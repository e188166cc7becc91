"""Seeded synthetic multimodal corpus: generation, persistence, validation.

Every record carries a feature vector drawn from margin-separated clusters,
a trust score drawn from a valid/invalid pair of bands, and four ground-truth
fields. Labels are drawn first; features come from that label's cluster with
per-dimension truncated-Gaussian noise, so a nearest-cluster oracle recovers
every label exactly. Stored flags are then flipped independently with the
modality's label_noise probability, which makes the flip rate the only thing
separating a perfect pipeline from perfect scores.

Feature layout (dimension blocks):
    [0, 1]                relevance: two mirrored cluster centers
    next ceil(A/2) dims   action: signed one-hot centers, class c on dim c//2
    next ceil(K/2) dims   memory: same construction
    remainder             padding: noise only

`FeatureGeometry` holds each block's dimensions and the magnitudes of its
centers. `generate` adds each record's centers by that rule: the relevance
center on both relevance dimensions, and each class center on its one
nonzero dimension. Only a run builds dense (n_classes, feature_dim) center
tables, for its memory prototypes and action directions.

Label noise on the integer labels re-draws uniformly in the opposite half of
the class range, so the binary half-partition view used by the evaluation
steps disagrees with the oracle exactly at the flip rate.

`GeneratorConfig` checks its own values when built, with messages that start
`generator.<key>` as the run config names them, so `generate` trusts any
config it is given.

Generation is column-at-a-time, into a table allocated once: `generate`
draws each modality into its rows of the `Columns` table, _GEN_CHUNK rows
at a time. A chunk draws one (rows, 11 + feature_dim) block of keyed
uniforms (`seeding.keyed_uniforms`), whose columns are valid, relevant,
action, mem, trust, the features, four flip draws and two opposite-half
draws, writes each column's values straight into the chunk's rows of the
table, and frees the block before the next chunk. So `generate` holds the
table and one chunk's draws. Row i is keyed by (seed, modality, i), so a
record's content is independent of every other record, of n_per_modality
and of the chunk size. Truncated normals come from the inverse CDF, `ndtri`
and `ndtr` of `msr.special`, which equal scipy.special's bit for bit.

Storage is by column too. A `Dataset` holds the meta block, one `Columns`
table of every record in id order, which is the file's order, and each row's
index into MODALITIES. `save` formats the JSON text straight from the
table's columns with `numtext`, a block of rows at a time as one uint8
matrix with a row of text per record. `load` reads the file in 4 MiB pieces.
A file in `save`'s own bytes is read in numpy: every byte between two
numbers must be the fixed text `save` writes there, and every number the
text `save` writes for its field, which `numtext.read_numbers` parses: an
integer for the id and the labels, a float with a point or an exponent for
the features and trust. The record checks then run over the columns. Any
other file, and any file that fails a byte, a number or a check there, is
walked from its start with json's own scanner: the walk decodes `meta`
whole and the records one at a time, checks each record in turn, and
builds the columns of each block of SAVE_BLOCK checked records, dropping
the block's dicts. So it holds about one piece of text and one block of
dicts besides the columns:
a 3 x 10^5 file (86 MB) walks in a fresh process with a peak RSS of 91 MB,
where a whole `json.load` tree peaked at 340 MB. A fault names the lowest
bad record and the first check it fails; text the walk cannot read gets
json.load's own error; both come from the walk alone. `Dataset.records`
is a view of the table for callers that want one object per record: it has
a length, and iterating it builds `ModalRecord`s one block of SAVE_BLOCK
rows at a time and keeps none of them. Nothing in msr reads it.
"""

import codecs
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass, field, fields
import functools
import json
import math
import os
import stat
from typing import Annotated

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import mapping, numtext, seeding
from .errors import ConfigError, ParseError
from .special import ndtr, ndtri

MODALITIES = ("visual", "auditory", "tactile")
SCHEMA_VERSION = 1

RECORD_FIELDS = ("id", "modality", "features", "trust", "valid", "relevant",
                 "action", "mem_label")

# trust bands: centers at mean +/- 2*spread, truncated noise of +/-1.9*spread,
# leaving a guaranteed 0.1*spread gap on either side of the mean
_TRUST_CENTER = 2.0
_TRUST_TRUNC = 1.9
# per-dimension feature-noise bound, in cluster-sigma units relative to the
# separation; 0.3 keeps every draw strictly on its own side of every
# between-center midplane (worst case 0.849 of the margin)
_NOISE_BOUND = 0.3


def _default_noise():
    return {"visual": 0.09, "auditory": 0.11, "tactile": 0.12}


@dataclass(frozen=True)
class GeneratorConfig:
    n_per_modality: mapping.Count = 10_000
    feature_dim: Annotated[int, "< 2**60"] = 8  # at least the layout, checked below
    n_actions: Annotated[int, ">= 2"] = 4
    n_memory_classes: Annotated[int, ">= 2", "< 2**60"] = 4
    label_noise: dict[str, float] = field(default_factory=_default_noise)
    trust_distribution: tuple[float, float] = (0.5, 0.1)
    cluster_separation: Annotated[float, "> 0"] = 2.0
    seed: int = 42

    def __post_init__(self):
        mapping.check_fields(self, "generator")
        needed = 2 + (self.n_actions + 1) // 2 + (self.n_memory_classes + 1) // 2
        if self.feature_dim < needed:
            raise ConfigError(f"generator.feature_dim {self.feature_dim} too small; "
                              f"layout needs {needed}")
        # the largest tables: three modalities' draws and features
        mapping.check("3 * generator.n_per_modality * (generator.feature_dim + 11)",
                      3 * self.n_per_modality * (self.feature_dim + 11), int, "< 2**60")
        if set(self.label_noise) != set(MODALITIES):
            raise ConfigError(f"generator.label_noise must cover exactly {MODALITIES}, "
                              f"got {sorted(self.label_noise)}")
        for modality, p in self.label_noise.items():
            if not 0.0 <= p < 0.5:
                raise ConfigError(f"generator.label_noise[{modality}] must be in [0, 0.5), "
                                  f"got {p}")
        mean, spread = self.trust_distribution
        if not 0.0 <= mean <= 1.0:
            raise ConfigError(f"generator.trust_distribution mean must be in [0, 1], "
                              f"got {mean}")
        if spread <= 0.0:
            raise ConfigError(f"generator.trust_distribution spread must be > 0, got {spread}")
        if not math.isfinite(spread * (_TRUST_CENTER + _TRUST_TRUNC)):
            raise ConfigError(f"generator.trust_distribution spread {spread!r} puts the trust "
                              "bands past the float range")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"generator.seed must be a 64-bit unsigned integer, "
                              f"got {self.seed}")

    def to_mapping(self) -> dict:
        """JSON object with label_noise in MODALITIES order, whatever order
        it was given in."""
        return {**mapping.to_mapping(self),
                "label_noise": {m: self.label_noise[m] for m in MODALITIES}}

    @classmethod
    def from_mapping(cls, data: dict) -> "GeneratorConfig":
        return mapping.from_mapping(cls, data, "generator")


def opposite_half(label, n_classes: int, u):
    """Uniform pick from the half of [0, n) that does not contain label, made
    by a uniform u on [0, 1). label and u may be arrays of one shape."""
    half = n_classes // 2
    lower = np.asarray(label) < half
    width = np.where(lower, n_classes - half, half)
    return np.where(lower, half, 0) + np.floor(u * width).astype(np.int64)


def half_partition(label: int, n_classes: int) -> bool:
    """Binary view of a class label: True for the lower half."""
    return label < n_classes // 2


def _layout(cfg: GeneratorConfig) -> dict:
    """Each dimension block of the feature layout, as a range."""
    a_end = 2 + (cfg.n_actions + 1) // 2
    m_end = a_end + (cfg.n_memory_classes + 1) // 2
    return {"relevance": range(0, 2), "action": range(2, a_end), "memory": range(a_end, m_end),
            "padding": range(m_end, cfg.feature_dim)}


def _class_centers(dims, n_classes: int, magnitude: float, feature_dim: int) -> np.ndarray:
    """Signed one-hot centers: class c sits at +magnitude (c even) or
    -magnitude (c odd) on dimension dims[c // 2]."""
    labels = np.arange(n_classes)
    centers = np.zeros((n_classes, feature_dim))
    centers[labels, np.asarray(dims)[labels // 2]] = np.where(labels % 2 == 0, magnitude,
                                                              -magnitude)
    return centers


@dataclass(frozen=True, eq=False)
class FeatureGeometry:
    """Dimension blocks and cluster centers derived from a GeneratorConfig.

    A record that is not relevant has its relevance center at
    +rel_magnitude on both relevance dimensions, one that is relevant at
    -rel_magnitude; a class block puts class c at +class_magnitude (c even)
    or -class_magnitude (c odd) on its dimension c // 2. `add_centers` adds
    each record's centers by these rules; `action_centers` and
    `memory_centers` build the dense (n_classes, feature_dim) tables that a
    run takes its directions and prototypes from."""

    noise_bound: float
    feature_dim: int
    relevance_dims: range
    action_dims: range
    memory_dims: range
    n_actions: int
    n_memory_classes: int
    rel_magnitude: float
    class_magnitude: float

    @classmethod
    def from_config(cls, cfg: GeneratorConfig) -> "FeatureGeometry":
        # the dense center tables of a run; not in GeneratorConfig: `load`
        # checks a file's records before its meta
        mapping.check("max(2, generator.n_actions, generator.n_memory_classes) * "
                      "generator.feature_dim", max(2, cfg.n_actions, cfg.n_memory_classes)
                      * cfg.feature_dim, int, "< 2**60")
        rel, action, memory, _ = _layout(cfg).values()
        # the relevance pair lies `cluster_separation` apart, and so do the
        # nearest two signed one-hot centers of a class block
        return cls(
            noise_bound=_NOISE_BOUND * cfg.cluster_separation,
            feature_dim=cfg.feature_dim,
            relevance_dims=rel,
            action_dims=action,
            memory_dims=memory,
            n_actions=cfg.n_actions,
            n_memory_classes=cfg.n_memory_classes,
            rel_magnitude=cfg.cluster_separation / 2.0 / math.sqrt(2.0),
            class_magnitude=cfg.cluster_separation / math.sqrt(2.0),
        )

    def add_centers(self, features, relevant, action, mem) -> None:
        """Add each record's relevance, action and memory centers to its row
        of the C-contiguous array `features`, in place, from the records'
        `relevant` flags and `action` and `mem` labels. A class center is
        nonzero on one dimension, and only that one is added to: adding 0.0
        changes no value but -0.0, which `ndtri` does not return."""
        if not features.flags.c_contiguous:
            raise ValueError("features must be C-contiguous")
        rel = self.relevance_dims
        features[:, rel.start:rel.stop] += np.where(relevant, -self.rel_magnitude,
                                                    self.rel_magnitude)[:, None]
        # a view, as features is C-contiguous, and each row's first index in
        # it; labels are >= 0
        flat, first = features.reshape(-1), np.arange(0, features.size, self.feature_dim)
        signed = np.array([self.class_magnitude, -self.class_magnitude])
        for dims, label in ((self.action_dims, action), (self.memory_dims, mem)):
            flat[first + dims.start + (label >> 1)] += signed[label & 1]

    def action_centers(self) -> np.ndarray:
        return _class_centers(self.action_dims, self.n_actions, self.class_magnitude,
                              self.feature_dim)

    def memory_centers(self) -> np.ndarray:
        return _class_centers(self.memory_dims, self.n_memory_classes, self.class_magnitude,
                              self.feature_dim)


@dataclass(frozen=True, slots=True)
class ModalRecord:
    id: int
    modality: str
    features: tuple
    trust: float
    valid: bool
    relevant: bool
    action: int
    mem_label: int


class Table:
    """Equal-length array columns, the fields of a frozen dataclass, one row
    per record. Not iterable: a record is a row of every column."""

    __iter__ = None

    def arrays(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    def __len__(self) -> int:
        return len(self.arrays()[0])

    def __getitem__(self, rows):
        """The rows that a slice, an index array or a boolean mask picks."""
        return type(self)(*(column[rows] for column in self.arrays()))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            np.array_equal(a, b) for a, b in zip(self.arrays(), other.arrays()))

    @classmethod
    def concat(cls, parts):
        """The rows of every table in `parts`, in order."""
        return cls(*map(np.concatenate, zip(*(part.arrays() for part in parts))))


@dataclass(frozen=True, eq=False)
class Columns(Table):
    """Records, one row each: ids uint64, features (n, feature_dim) float64,
    trust float64, valid and relevant bool, action and mem_label int64."""

    ids: np.ndarray
    features: np.ndarray
    trust: np.ndarray
    valid: np.ndarray
    relevant: np.ndarray
    action: np.ndarray
    mem_label: np.ndarray


# rows per step of `load` and `Dataset.records`, which bounds the Python
# lists each step builds and the ModalRecords alive at once, and per block of
# the trace writer; `save` formats no more rows than this at once
SAVE_BLOCK = 1 << 12
# rows per draw of `generate`, which holds the table and one chunk's keyed
# uniforms. A draw costs about 90 numpy calls of `ndtri` per `_truncated`
# call whatever its size, so the chunk is large: a corpus of up to 65,536
# records a modality, as the benchmark's are, is drawn one modality a chunk
_GEN_CHUNK = 1 << 16


class _Records:
    """Every record of a Dataset as a ModalRecord, in id order: its length,
    and iteration that builds the records one SAVE_BLOCK of rows at a time
    and keeps none of them."""

    __slots__ = ("dataset",)

    def __init__(self, dataset: "Dataset"):
        self.dataset = dataset

    def __len__(self) -> int:
        return len(self.dataset.table)

    def __iter__(self):
        table, modality = self.dataset.table, self.dataset.modality
        for lo in range(0, len(table), SAVE_BLOCK):
            ids, features, *rest = (c.tolist() for c in table[lo:lo + SAVE_BLOCK].arrays())
            names = map(MODALITIES.__getitem__, modality[lo:lo + SAVE_BLOCK].tolist())
            yield from map(ModalRecord, ids, names, map(tuple, features), *rest)


@dataclass(frozen=True, eq=False)
class Dataset:
    """The meta block, every record as a row of one `Columns` table in id
    order, and `modality`: each row's index into MODALITIES, as int8."""

    meta: dict
    table: Columns
    modality: np.ndarray

    def by_modality(self, modality: str) -> Columns:
        """One modality's rows, in id order; a copy."""
        return self.table[self.modality == MODALITIES.index(modality)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Dataset) and self.meta == other.meta
                and self.table == other.table
                and np.array_equal(self.modality, other.modality))

    @property
    def records(self) -> _Records:
        """Every record as a ModalRecord, in id order, for callers that want
        one object per record: a view of the table with `len` and iteration,
        which builds each record while it is iterated and caches nothing, so
        each iteration builds them again. msr itself never reads it."""
        return _Records(self)


def _truncated(u, bound: float, out=None):
    """Map uniforms on [0,1) to a standard normal truncated at +/- bound:
    ndtri(lo + u * (hi - lo)), formed in `out` (a new array when None),
    which ndtri overwrites."""
    lo = ndtr(-bound)
    hi = ndtr(bound)
    y = np.multiply(u, hi - lo, out=out)
    y += lo
    return ndtri(y, out=y)


def _build_meta(cfg: GeneratorConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "generator": cfg.to_mapping(),
        "counts": {m: cfg.n_per_modality for m in MODALITIES},
        "feature_layout": {name: list(dims) for name, dims in _layout(cfg).items()},
    }


def generate(cfg: GeneratorConfig) -> Dataset:
    """Deterministic synthetic corpus for the given config. The table is
    allocated once, and each modality is drawn into its rows `_GEN_CHUNK`
    rows at a time."""
    geom = FeatureGeometry.from_config(cfg)
    n = cfg.n_per_modality
    size = len(MODALITIES) * n
    table = Columns(ids=np.arange(size, dtype=np.uint64),
                    features=np.empty((size, cfg.feature_dim)), trust=np.empty(size),
                    valid=np.empty(size, dtype=bool), relevant=np.empty(size, dtype=bool),
                    action=np.empty(size, dtype=np.int64),
                    mem_label=np.empty(size, dtype=np.int64))
    for m_idx in range(len(MODALITIES)):
        for lo in range(0, n, _GEN_CHUNK):
            hi = min(lo + _GEN_CHUNK, n)
            _draw(cfg, geom, m_idx, np.arange(lo, hi), table[m_idx * n + lo:m_idx * n + hi])
    return Dataset(meta=_build_meta(cfg), table=table,
                   modality=np.repeat(np.arange(len(MODALITIES), dtype=np.int8), n))


def _draw(cfg: GeneratorConfig, geom: FeatureGeometry, m_idx: int, keys,
          rows: Columns) -> None:
    """Draw the records `keys` of modality MODALITIES[m_idx] into `rows`, a
    view of their rows of the table. Row i is drawn from the (11 +
    feature_dim) keyed uniforms of key keys[i]."""
    mean, spread = cfg.trust_distribution
    d = cfg.feature_dim
    u = seeding.keyed_uniforms(cfg.seed, seeding.DATASET_RECORD, m_idx, keys, 11 + d)
    valid = u[:, 0] < 0.5
    relevant = u[:, 1] < 0.5
    action = np.floor(u[:, 2] * cfg.n_actions).astype(np.int64)
    mem = np.floor(u[:, 3] * cfg.n_memory_classes).astype(np.int64)

    center = np.where(valid, _TRUST_CENTER, -_TRUST_CENTER)
    np.clip(mean + spread * (center + _truncated(u[:, 4], _TRUST_TRUNC)), 0.0, 1.0,
            out=rows.trust)

    # each record's three centers, added in place over their own blocks
    geom.add_centers(_truncated(u[:, 5:5 + d], geom.noise_bound, out=rows.features),
                     relevant, action, mem)

    flip = u[:, 5 + d:9 + d] < cfg.label_noise[MODALITIES[m_idx]]
    np.bitwise_xor(valid, flip[:, 0], out=rows.valid)
    np.bitwise_xor(relevant, flip[:, 1], out=rows.relevant)
    rows.action[:] = np.where(flip[:, 2], opposite_half(action, cfg.n_actions, u[:, 9 + d]),
                              action)
    rows.mem_label[:] = np.where(
        flip[:, 3], opposite_half(mem, cfg.n_memory_classes, u[:, 10 + d]), mem)


@contextmanager
def atomic_open(*paths: str):
    """Text files for writing, one per path, that replace `paths` only once
    every one is complete: each is written as <path>.tmp, and all are renamed
    into place after the last is closed; on an error every temporary file
    goes and whatever was at each path stays."""
    tmps = [f"{path}.tmp" for path in paths]
    try:
        with ExitStack() as stack:
            yield [stack.enter_context(open(tmp, "w", encoding="utf-8")) for tmp in tmps]
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            with suppress(FileNotFoundError):
                os.remove(tmp)
        raise


# floats per formatting step of `save`: a block of rows holds at most this
# many, 512 rows at feature_dim 8, and a row wider than that is written in
# pieces of this many features. A float takes about 200 bytes of numpy
# temporaries and a row of text about 70 per float, which stay in the heap
# after `save` where Python objects made later cannot reuse them: a process
# that generates 3 x 15,000 records, saves them and then iterates
# `Dataset.records` peaked 0.5 MB higher with 1,024-row blocks than with
# these, and 5 MB higher with 4,096
_SAVE_CELLS = 9 << 9


_RECORD_HEAD = numtext.text_table([',{"id":'])
_MODALITY_TEXT = numtext.text_table([f',"modality":"{m}","features":[' for m in MODALITIES])
_TRUST_TEXT = numtext.text_table(['],"trust":'])
# by valid * 2 + relevant
_FLAG_TEXT = numtext.text_table([f',"valid":{v},"relevant":{r},"action":'
                                  for v in ("false", "true") for r in ("false", "true")])
_MEM_TEXT = numtext.text_table([',"mem_label":'])
_RECORD_END = numtext.text_table(["}"])
# the file's text around meta and the records
_SAVED_HEAD, _SAVED_RECORDS, _SAVED_END = b'{"meta":', b',"records":[', b"]}\n"


def _meta_text(meta: dict) -> bytes:
    return json.dumps(meta, separators=(",", ":"), allow_nan=False).encode("utf-8")


def _records_text(rows: Columns, owner, c0: int, c1: int) -> np.ndarray:
    """The JSON text of `rows`, each preceded by a comma, with only their
    features c0:c1: a row's fields before them when c0 is 0 and after them
    when c1 is the last. Built as one uint8 matrix, a row of text per
    record, whose 0s are dropped; the text's bytes, as uint8."""
    n, dim = rows.features.shape
    last = c1 == dim
    floats = np.column_stack((rows.features[:, c0:c1], rows.trust)) if last else \
        rows.features[:, c0:c1]
    floats = numtext.float_text(floats).reshape(n, floats.shape[1], -1)
    # a comma before each feature but the first
    floats[:, c0 == 0:c1 - c0, 0] = ord(",")
    parts = []
    if c0 == 0:
        parts += [_RECORD_HEAD, numtext.int_text(rows.ids), np.take(_MODALITY_TEXT, owner, axis=0)]
    parts.append(floats[:, :c1 - c0])
    if last:
        labels = numtext.int_text(np.column_stack((rows.action, rows.mem_label))).reshape(n, 2, -1)
        parts += [_TRUST_TEXT, floats[:, -1],
                  np.take(_FLAG_TEXT, rows.valid * 2 + rows.relevant, axis=0), labels[:, 0],
                  _MEM_TEXT, labels[:, 1], _RECORD_END]
    text = numtext.joined(n, parts).reshape(-1)
    return text[text != 0]


def save(dataset: Dataset, path: str) -> None:
    """Write the dataset as JSON, records in id order: the bytes of
    json.dumps(payload, separators=(",", ":"), allow_nan=False) + "\n".
    `meta` goes through json.dumps; the records are formatted straight
    from the table by `numtext`, whose floats are float.__repr__'s text as
    in json, so every float round-trips exactly. Each block of rows, or
    piece of a row, of at most _SAVE_CELLS floats is checked for values
    json rejects just before it is formatted; on one, no file is left."""
    table = dataset.table
    dim = table.features.shape[1]
    step = max(1, min(SAVE_BLOCK, _SAVE_CELLS // (dim + 1)))
    with atomic_open(path) as (fh,):
        # every byte goes to the binary file under the text one, so nothing
        # waits in the text layer; meta's text is not held while the records
        # are written, as its layout lists every feature index
        out = fh.buffer
        out.writelines((_SAVED_HEAD, _meta_text(dataset.meta), _SAVED_RECORDS))
        for lo in range(0, len(table), step):
            rows = table[lo:lo + step]
            for c0 in range(0, dim, _SAVE_CELLS):
                c1 = min(c0 + _SAVE_CELLS, dim)
                if not (np.isfinite(rows.features[:, c0:c1]).all()
                        and (c1 < dim or np.isfinite(rows.trust).all())):
                    raise ValueError("Out of range float values are not JSON compliant")
                text = _records_text(rows, dataset.modality[lo:lo + step], c0, c1)
                # no comma before the first record
                out.write(text[1:] if lo == 0 and c0 == 0 else text)
        out.write(_SAVED_END)


def load(path: str) -> Dataset:
    """Read and fully re-validate a dataset file; every error names the file."""
    try:
        return _load(path)
    except _Unreadable:
        error = _json_error(path)
    except ParseError as exc:
        error = exc
    raise ParseError(f"{path}: {error}") from None


def _load(path: str) -> Dataset:
    with suppress(_NotSaved):
        return _load_saved(path)
    cfg = None
    # a second walk only when the last records array was checked with
    # another generator than the last meta's: records before meta, or a
    # later meta key
    while True:
        keys, meta, records = _walk(path, cfg)
        if keys != {"meta", "records"}:
            raise ParseError("top level must be an object with keys meta, records")
        cfg = _meta_config(meta)
        if not isinstance(records, _Blocks):
            raise ParseError("records must be a list")
        if records.cfg == cfg:
            break
    return _dataset(meta, cfg, *records.result())


def _dataset(meta: dict, cfg: GeneratorConfig, table: Columns, owner) -> Dataset:
    """The dataset of checked records, once each modality's record count
    and every meta key but the generator block match the generator."""
    seen = {m: int(np.count_nonzero(owner == k)) for k, m in enumerate(MODALITIES)}
    counts = {m: cfg.n_per_modality for m in MODALITIES}
    if seen != counts:
        raise ParseError(f"record counts {seen} do not match meta {counts}")
    # the records went first: each holds feature_dim numbers, so the layout
    # built below is no larger than the file, whatever size meta claims.
    # Everything but the generator block follows from it, so a file cannot
    # carry a layout or counts that the records were not generated with
    expected = _build_meta(cfg)
    for key in sorted(meta.keys() | expected.keys()):
        if key not in expected:
            raise ParseError(f"meta.{key} is not a meta key; expected {sorted(expected)}")
        if key != "generator" and meta.get(key) != expected[key]:
            raise ParseError(f"meta.{key} {meta.get(key)!r} inconsistent with meta.generator, "
                             f"expected {expected[key]!r}")
    return Dataset(meta, table, owner)


def _meta_config(meta) -> GeneratorConfig:
    """The generator that a meta block names; a ParseError for a meta block
    that is not one."""
    if not isinstance(meta, dict):
        raise ParseError("meta must be an object")
    version = meta.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ParseError(f"schema_version {version!r} unsupported, expected {SCHEMA_VERSION}")
    try:
        return GeneratorConfig.from_mapping(meta.get("generator"))
    except ConfigError as exc:
        raise ParseError(f"meta.generator: {exc}") from None


def _json_error(path: str) -> ParseError:
    """What json.load makes of a file that `_walk` cannot read: its error,
    or, as a file of valid JSON is then not an object, the top-level one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            json.load(fh)
    except ValueError as exc:  # bad JSON, bad UTF-8, an integer too long to read
        return ParseError(f"invalid JSON: {exc}")
    except RecursionError:
        return ParseError("invalid JSON: nesting too deep")
    return ParseError("top level must be an object with keys meta, records")


# bytes per read of `load`, which holds about one piece of the file's text.
# Not less: glibc's malloc sets its mmap and trim thresholds from the largest
# block freed so far, and below about 4 MiB it keeps handing back the memory
# of `execute_run`'s per-chunk solver arrays, which then fault in again. With
# 1 MiB pieces a run of the default experiment after `load` took 45,000
# minor faults instead of 4,000, and about 12% longer. A walk frees each
# piece's text. A file in `save`'s layout frees its first piece, read as
# bytes for its meta, before its records are read into a buffer of the
# same size; so the buffer, and every array of the numpy reader, comes from
# the heap, which `execute_run` then reuses: its minor faults after such a
# `load` fell by half (2,300 to 1,130 on the default experiment)
_PIECE = 4 << 20
_skip = json.decoder.WHITESPACE.match


class _Unreadable(Exception):
    """Text that `_walk` cannot read as a JSON object."""


class _Text:
    """A UTF-8 file read in pieces: buf[pos:] is the text read but not yet
    consumed."""

    def __init__(self, fh):
        self.fh = fh
        self.decode = codecs.getincrementaldecoder("utf-8")().decode
        self.scan = json.JSONDecoder().scan_once
        self.buf, self.pos, self.eof = "", 0, False

    def more(self) -> None:
        """Append the next piece, at least as long as the text not yet
        consumed, so a value retried on more text is scanned at most twice
        its length over all its tries."""
        if self.eof:
            raise _Unreadable
        rest, self.buf = self.buf[self.pos:], ""
        data = self.fh.read(max(_PIECE, len(rest)))
        self.eof = not data
        try:
            text = self.decode(data, final=self.eof)
        except UnicodeDecodeError:
            raise _Unreadable from None
        del data  # so that no more than two pieces' worth is held at once
        self.buf, self.pos = rest + text, 0

    def read(self, parse):
        """The result of parse(buf, pos) -> (result, end), which consumes the
        text up to end. A token cut at the end of the text read so far fails
        in parse, or ends there, where parse then fails on the next token; so
        a failing parse is retried on more text until the file ends."""
        while True:
            try:
                result, self.pos = parse(self.buf, self.pos)
                return result
            except RecursionError:
                raise ParseError("invalid JSON: nesting too deep") from None
            except (ValueError, StopIteration, IndexError):
                pass
            # past the handler, so that the text read so far, which a
            # JSONDecodeError holds, is freed before more is read
            self.more()

    def at_end(self) -> bool:
        """Whether nothing but whitespace is left."""
        while True:
            self.pos = _skip(self.buf, self.pos).end()
            if self.pos < len(self.buf) or self.eof:
                return self.pos == len(self.buf)
            self.more()

    def member(self, buf: str, pos: int) -> tuple:
        """((value, the next character after it), the position after that)."""
        value, pos = self.scan(buf, _skip(buf, pos).end())
        c, pos = _char(buf, pos)
        return (value, c), pos

    def records(self, take) -> None:
        """Decode an array's values, from after its "[" to after its "]",
        and hand them to take(rows) in lists of SAVE_BLOCK, then the rest."""
        rows = []
        if self.read(_peek) == "]":
            self.pos += 1
        else:
            while True:
                row, c = self.read(self.member)
                rows.append(row)
                if c == "]":
                    break
                if c != ",":
                    raise _Unreadable
                if len(rows) == SAVE_BLOCK:
                    take(rows)
                    rows = []
        take(rows)


def _char(buf: str, pos: int) -> tuple:
    """The next character after whitespace, and the position after it."""
    pos = _skip(buf, pos).end()
    return buf[pos], pos + 1


def _peek(buf: str, pos: int) -> tuple:
    """The next character after whitespace, and its position."""
    pos = _skip(buf, pos).end()
    return buf[pos], pos


def _key(buf: str, pos: int) -> tuple:
    """A member's key, from after its opening quote, and the position after
    its colon."""
    key, pos = json.decoder.scanstring(buf, pos)
    colon, pos = _char(buf, pos)
    if colon != ":":
        raise ValueError(colon)
    return key, pos


def _walk(path: str, cfg=None) -> tuple:
    """One pass over the file's top-level object: the set of its keys, the
    last meta value and the last records value, as a `_Blocks` when it is a
    list. Each records list is checked with `cfg`, or if that is None with
    the generator of the last meta before it, when that meta is valid.
    Raises _Unreadable for text that is not one JSON object."""
    fixed = cfg is not None
    keys, meta, records = set(), None, None
    with open(path, "rb") as fh:
        text = _Text(fh)
        if text.read(_char) != "{":
            raise _Unreadable
        c = text.read(_char)
        # "}" straight after "{" closes an empty object; after "," it is not JSON
        while c != "}" or keys:
            if c != '"':
                raise _Unreadable
            key = text.read(_key)
            keys.add(key)
            if key == "records" and text.read(_peek) == "[":
                text.pos += 1
                records = _Blocks(cfg)
                text.records(records)
                c = text.read(_char)
            else:
                value, c = text.read(text.member)
                if key == "records":
                    records = value
                elif key == "meta":
                    meta = value
                    if not fixed:
                        cfg = None
                        with suppress(ParseError):
                            cfg = _meta_config(meta)
            if c == "}":
                break
            if c != ",":
                raise _Unreadable
            c = text.read(_char)
        if not text.at_end():
            raise _Unreadable
    return keys, meta, records


class _Blocks:
    """One records array, checked a block at a time with `cfg` (or not at
    all when it is None): the checked columns of each block up to the first
    block with a fault, and that fault. Its records are numbered in the
    whole array, and each block's id-order check starts from the last id of
    the block before."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.parts = []
        self.fault = None
        self.n = 0

    def __call__(self, rows: list) -> None:
        if self.cfg is not None and self.fault is None:
            last_id = int(self.parts[-1][0].ids[-1]) if self.n else None
            try:
                self.parts.append(_columns(rows, self.cfg, self.n, last_id))
            except ParseError as exc:
                self.fault = exc
        self.n += len(rows)

    def result(self) -> tuple:
        """The whole `Columns` table and each row's index into MODALITIES."""
        if self.fault is not None:
            raise self.fault
        tables, owners = zip(*self.parts)
        return Columns.concat(tables), np.concatenate(owners)


_FIELD_SET = frozenset(RECORD_FIELDS)


def _finite(value) -> bool:
    """Whether a JSON value is a number (a bool is not) that a float64 holds
    as a finite value."""
    try:
        return type(value) in (float, int) and math.isfinite(value)
    except OverflowError:  # an integer past the float range
        return False


def _fault(row, cfg: GeneratorConfig, last_id):
    """The message of the first check that record `row` fails, or None when
    it passes every one; last_id is the id of the record before it, or None
    for the first record."""
    if type(row) is not dict or row.keys() != _FIELD_SET:
        return f"fields must be exactly {RECORD_FIELDS}"
    rid = row["id"]
    if type(rid) is not int:
        return "id must be an integer"
    # record 0 has id 0, and every later id exceeds the one before it
    if rid != 0 if last_id is None else rid <= last_id:
        return f"id {rid} breaks the strictly-increasing-from-0 order"
    if rid >= 2 ** 64:
        return f"id {rid} outside [0, 2**64)"
    if row["modality"] not in MODALITIES:
        return f"unknown modality {row['modality']!r}"
    features = row["features"]
    if type(features) is not list or len(features) != cfg.feature_dim:
        return f"features must hold {cfg.feature_dim} numbers"
    for i, value in enumerate(features):
        if not _finite(value):
            return f"features[{i}] not a finite number"
    trust = row["trust"]
    if type(trust) not in (float, int) or not 0.0 <= trust <= 1.0:
        return f"trust {trust!r} outside [0, 1]"
    for flag in ("valid", "relevant"):
        if type(row[flag]) is not bool:
            return f"{flag} must be a boolean"
    for name, n in (("action", cfg.n_actions), ("mem_label", cfg.n_memory_classes)):
        if type(row[name]) is not int or not 0 <= row[name] < n:
            return f"{name} {row[name]!r} outside [0, {n})"
    return None


def _columns(rows: list, cfg: GeneratorConfig, first: int, last_id) -> tuple:
    """Check every record, and return the records as a `Columns` table and
    each one's index into MODALITIES. rows are records first, first + 1,
    ... of the file, after one with id last_id, or at its start when that
    is None. A fault is reported for the lowest bad record, by the first
    check it fails."""
    for i, row in enumerate(rows):
        message = _fault(row, cfg, last_id)
        if message:
            raise ParseError(f"record {first + i}: {message}")
        last_id = row["id"]

    def column(name, dtype):
        return np.array([row[name] for row in rows], dtype=dtype)
    owner = np.array([MODALITIES.index(row["modality"]) for row in rows], dtype=np.int8)
    table = Columns(ids=column("id", np.uint64),
                    features=column("features", np.float64).reshape(-1, cfg.feature_dim),
                    trust=column("trust", np.float64), valid=column("valid", bool),
                    relevant=column("relevant", bool), action=column("action", np.int64),
                    mem_label=column("mem_label", np.int64))
    return table, owner


# The fast path, for a file in `save`'s own bytes: its meta as json.dumps
# writes it, then the records, each the fixed texts of `_records_text` between
# its numbers, each number in the text `numtext` writes for its field. It
# reads the records in numpy, and any byte out of that layout or any record
# check that fails sends the whole file to the walk, which names the fault; so
# the outcome is the walk's whatever the file.

# bytes of records text per step of the fast path: small enough that a
# step's arrays stay in the CPU's caches. A 3 x 15,000 file loaded in 0.19 s
# with steps of 256 KiB and in 0.31 s with steps of 1 MiB
_CHUNK = 1 << 18
# room in the piece buffer before its text, for the row of NUMBER_WIDTH
# bytes that ends in its first number, and after it, for the bytes that
# `_choice` reads past a cut record
_BEFORE, _AFTER = numtext.NUMBER_WIDTH, 64
# a comma and the start of the next record
_NEXT = _RECORD_HEAD.tobytes()


class _NotSaved(Exception):
    """A file that is not in `save`'s layout, or whose records fail a check."""


def _load_saved(path: str) -> Dataset:
    """The dataset of a file in `save`'s layout whose records pass every
    check, read a piece at a time into one buffer, each piece cut after its
    last whole record; raises _NotSaved for any other file, and for a
    pipe, which the walk could not read again."""
    try:
        info = os.stat(path)
    except OSError:
        raise _NotSaved from None
    if not stat.S_ISREG(info.st_mode):
        raise _NotSaved
    with open(path, "rb", buffering=0) as fh:
        head = fh.read(_PIECE)
        end = head.find(_SAVED_RECORDS)
        if not head.startswith(_SAVED_HEAD) or end < 0:
            raise _NotSaved
        meta_text = head[len(_SAVED_HEAD):end]
        try:
            meta = json.loads(meta_text)
            if _meta_text(meta) != meta_text:
                raise _NotSaved
            cfg = _meta_config(meta)
        except (ValueError, RecursionError, ParseError):
            raise _NotSaved from None
        n, dim = len(MODALITIES) * cfg.n_per_modality, cfg.feature_dim
        # a record's text takes more than 2 * feature_dim + 64 bytes
        if n * (2 * dim + 64) > info.st_size:
            raise _NotSaved
        out = _SavedRecords(cfg, n)
        # read again from the first record, into a buffer no larger than
        # the piece freed just before, so that it comes from the heap
        fh.seek(end + len(_SAVED_RECORDS))
        del head
        buf = np.empty(_PIECE, dtype=np.uint8)
        # each run of records in buf[at:end] starts at a comma: the first
        # in place of the "[" before it
        at, end = _BEFORE, _BEFORE + 1
        buf[at] = ord(",")
        view = memoryview(buf)
        eof = False
        while True:
            while not eof and end < _PIECE - _AFTER:
                got = fh.readinto(view[end:_PIECE - _AFTER])
                eof = not got
                end += got
            if eof:
                stop = end - len(_SAVED_END)
                if stop <= at or view[stop:end] != _SAVED_END:
                    raise _NotSaved
            else:
                # a piece holds at least one whole record
                stop = _last_record(view, at, end)
                if stop == at:
                    raise _NotSaved
            while at < stop:
                cut = _last_record(view, at, at + _CHUNK) if stop - at > _CHUNK else stop
                if cut <= at:
                    cut = stop
                out.read(buf, at, cut)
                at = cut
            if eof:
                break
            # the part record after the cut, to the front
            buf[_BEFORE:_BEFORE + end - at] = buf[at:end]
            at, end = _BEFORE, _BEFORE + end - at
    try:
        return _dataset(meta, cfg, *out.result())
    except ParseError:
        raise _NotSaved from None


def _last_record(view, lo: int, hi: int) -> int:
    """The position of the comma before the last record that starts in
    view[lo:hi], or lo when there is none."""
    for span in (1 << 12, hi - lo):
        at = bytes(view[max(lo, hi - span):hi]).rfind(_NEXT)
        if at >= 0:
            return max(lo, hi - span) + at
    return lo


@functools.cache
def _record_texts(dim: int) -> tuple:
    """`save`'s texts around the numbers of a record with `dim` features:
    the one before its id, those after each number, and the "}" that ends
    it. For each choice v = modality * 4 + flags, texts[v] holds them in
    order, each padded with 0 to the length of its longest choice, and
    sizes[v] their lengths."""
    modality, flags = np.divmod(np.arange(len(MODALITIES) * len(_FLAG_TEXT)), len(_FLAG_TEXT))
    fixed = np.zeros_like(modality)
    comma = numtext.text_table([","])[fixed]
    rows = [_RECORD_HEAD[fixed], _MODALITY_TEXT[modality], *[comma] * (dim - 1),
            _TRUST_TEXT[fixed], _FLAG_TEXT[flags], _MEM_TEXT[fixed], _RECORD_END[fixed]]
    return (np.concatenate(rows, axis=1),
            np.column_stack([np.count_nonzero(row, axis=1) for row in rows]))


def _text_key(table) -> tuple:
    """The first column at which the rows of a text table differ, and each
    row's length: together they tell the rows apart."""
    return np.flatnonzero((table != table[0]).any(axis=0))[0], np.count_nonzero(table, axis=1)


_MODALITY_KEY, _FLAG_KEY = _text_key(_MODALITY_TEXT), _text_key(_FLAG_TEXT)


def _choice(buf, at, lengths, table, key) -> np.ndarray:
    """For each text buf[at[i]:at[i] + lengths[i]], the index of the row
    of `table` with its length and its byte at key's column; any row when
    none has."""
    column, sizes = key
    return np.argmax((lengths[:, None] == sizes) & (buf[at + column][:, None] == table[:, column]),
                     axis=1)


class _SavedRecords:
    """The table of a file's records, filled a run of records at a time,
    and each row's index into MODALITIES."""

    def __init__(self, cfg: GeneratorConfig, n: int):
        self.cfg = cfg
        self.table = Columns(ids=np.empty(n, dtype=np.uint64),
                             features=np.empty((n, cfg.feature_dim)), trust=np.empty(n),
                             valid=np.empty(n, dtype=bool), relevant=np.empty(n, dtype=bool),
                             action=np.empty(n, dtype=np.int64),
                             mem_label=np.empty(n, dtype=np.int64))
        self.owner = np.empty(n, dtype=np.int8)
        self.n = 0

    def result(self) -> tuple:
        if self.n != len(self.owner):
            raise _NotSaved
        return self.table, self.owner

    def read(self, buf, lo: int, hi: int) -> None:
        """Check and keep the records of buf[lo:hi], each a comma and a
        record's text in `save`'s layout."""
        cfg = self.cfg
        dim = cfg.feature_dim
        text = buf[lo:hi]
        # numbers are the runs of "+-./", digits, and "e" after one of them
        c = text - np.uint8(ord("+"))
        number = (c <= 14) & (c != ord(",") - ord("+"))
        number[1:] |= (text[1:] == ord("e")) & number[:-1]
        edges = np.flatnonzero(number[1:] != number[:-1]) + (lo + 1)
        # id, the features, trust, action and mem_label
        width = dim + 4
        rows = len(edges) // (2 * width)
        if len(edges) != 2 * width * rows or not 0 < rows <= len(self.owner) - self.n:
            raise _NotSaved
        start, end = edges[0::2], edges[1::2]
        floats, ints, form = numtext.read_numbers(
            sliding_window_view(buf, numtext.NUMBER_WIDTH)[end - numtext.NUMBER_WIDTH],
            end - start)
        start, end = start.reshape(rows, width), end.reshape(rows, width)
        floats, ints, form = (a.reshape(rows, width) for a in (floats, ints, form))

        # the texts around the numbers: the one before each id, and those
        # after each number, up to the one before the next id or to hi. Each
        # must have its length in `save`'s layout, and all together its bytes
        head = start[:, 0] - _RECORD_HEAD.shape[1]
        lengths = np.column_stack((np.full(rows, _RECORD_HEAD.shape[1]), start[:, 1:] - end[:, :-1],
                                   np.append(head[1:], hi) - end[:, -1]))
        modality = _choice(buf, end[:, 0], lengths[:, 1], _MODALITY_TEXT, _MODALITY_KEY)
        flags = _choice(buf, end[:, dim + 1], lengths[:, dim + 2], _FLAG_TEXT, _FLAG_KEY)
        texts, sizes = _record_texts(dim)
        choice = modality * len(_FLAG_TEXT) + flags
        expected = np.take(texts, choice, axis=0)
        if not (head[0] == lo and (lengths == np.take(sizes, choice, axis=0)).all()
                and np.array_equal(text[~number], expected[expected != 0])):
            raise _NotSaved

        # the numbers: integers as `save` writes them for the id and the
        # labels, and floats as it writes them for the features and trust
        values = floats[:, 1:dim + 2]
        ids = ints[:, 0]
        labels = ints[:, dim + 2:]
        last = self.table.ids[self.n - 1] if self.n else None
        if not ((form[:, [0, dim + 2, dim + 3]] == numtext.INTEGER).all()
                and (form[:, 1:dim + 2] == numtext.FLOAT).all()
                and (ids[0] == 0 if last is None else ids[0] > last) and (ids[1:] > ids[:-1]).all()
                and np.isfinite(values[:, :dim]).all()
                and ((values[:, dim] >= 0.0) & (values[:, dim] <= 1.0)).all()
                and (labels[:, 0] < cfg.n_actions).all()
                and (labels[:, 1] < cfg.n_memory_classes).all()):
            raise _NotSaved

        rows = slice(self.n, self.n + rows)
        table = self.table
        table.ids[rows] = ids
        table.features[rows] = values[:, :dim]
        table.trust[rows] = values[:, dim]
        table.valid[rows] = flags >= 2
        table.relevant[rows] = flags & 1
        table.action[rows] = labels[:, 0]
        table.mem_label[rows] = labels[:, 1]
        self.owner[rows] = modality
        self.n = rows.stop
