"""Exception types shared across the package."""


class MsrError(Exception):
    """Base class for all msr errors."""


class ConfigError(MsrError):
    """Invalid configuration value; message names the offending field."""


class ShapeError(MsrError):
    """Mismatched vector lengths or array shapes."""


class DegenerateModalityError(MsrError):
    """A modality whose values cannot be normalized: constant (zero
    variance), or so large that their variance overflows."""


class EmptyInputError(MsrError):
    """An operation that requires at least one element got none."""


class InvalidEntryError(MsrError):
    """A memory vector that cannot be scored (all-zero)."""


class EmptyMemoryError(MsrError):
    """Retrieval or readout from a memory tier that holds no entries."""


class TemplateLookupError(MsrError):
    """Reference to a task template id that is not registered."""


class TemplateCycleError(MsrError):
    """Task template expansion revisited a template on the same path."""


class StateLookupError(MsrError):
    """A grid state outside the policy's environment."""


class ParseError(MsrError):
    """Malformed dataset or report file; message carries the record/line index."""


class IncompleteRunError(MsrError):
    """Report requested for a run that is missing one or more pipeline steps."""
