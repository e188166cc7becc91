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

`FeatureGeometry` builds the centers of each block once, as a read-only
table with one row per label (relevance: row 0 not relevant, row 1
relevant). `generate` adds each record's row of the three tables, and a run
takes its memory prototypes and action directions from the same rows.

Label noise on the integer labels re-draws uniformly in the opposite half of
the class range, so the binary half-partition view used by the evaluation
steps disagrees with the oracle exactly at the flip rate.

`GeneratorConfig` checks its own values when built, with messages that start
`generator.<key>` as the run config names them, so `generate` trusts any
config it is given.

Generation is column-at-a-time: each modality draws one (n_per_modality,
11 + feature_dim) block of keyed uniforms (`seeding.keyed_uniforms`), whose
columns are valid, relevant, action, mem, trust, the features, four flip
draws and two opposite-half draws. Row i is keyed by (seed, modality, i), so
a record's content is independent of every other record and of
n_per_modality. Truncated normals come from the inverse CDF, `ndtri` and
`ndtr` of `msr.special`, which equal scipy.special's bit for bit.

Storage is by column too. A `Dataset` holds the meta block, one `Columns`
table of every record in id order, which is the file's order, and each row's
index into MODALITIES. `save` formats the JSON text straight from the table.
`load` parses it with json.load and runs every record check as a check over
a whole column; a fault names the lowest bad record and the first check it
fails. `Dataset.records` is a read-only tuple of `ModalRecord`s derived from
the table on first access, for callers that want one object per record;
nothing in msr reads it.
"""

from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain, compress
import json
import math
from operator import itemgetter, le, ne
import os

import numpy as np

from . import mapping, seeding
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
    n_per_modality: int = 10_000
    feature_dim: int = 8
    n_actions: int = 4
    n_memory_classes: int = 4
    label_noise: dict[str, float] = field(default_factory=_default_noise)
    trust_distribution: tuple[float, float] = (0.5, 0.1)
    cluster_separation: float = 2.0
    seed: int = 42

    def __post_init__(self):
        mapping.check_count("generator.n_per_modality", self.n_per_modality, 1)
        if self.n_actions < 2:
            raise ConfigError(f"generator.n_actions must be >= 2, got {self.n_actions}")
        mapping.check_count("generator.n_memory_classes", self.n_memory_classes, 2)
        needed = 2 + (self.n_actions + 1) // 2 + (self.n_memory_classes + 1) // 2
        if self.feature_dim < needed:
            raise ConfigError(f"generator.feature_dim {self.feature_dim} too small; "
                              f"layout needs {needed}")
        mapping.check_count("generator.feature_dim", self.feature_dim, needed)
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
        if self.cluster_separation <= 0.0:
            raise ConfigError(f"generator.cluster_separation must be > 0, "
                              f"got {self.cluster_separation}")
        if not 0 <= int(self.seed) < 2 ** 64:
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
    centers.setflags(write=False)
    return centers


@dataclass(frozen=True, eq=False)
class FeatureGeometry:
    """Dimension blocks and cluster centers derived from a GeneratorConfig.

    The centers are read-only (rows, feature_dim) tables, built once:
    `relevance_centers` row 0 for a record that is not relevant and row 1
    for one that is, `action_centers` and `memory_centers` one row per
    class label."""

    noise_bound: float
    relevance_dims: tuple
    action_dims: tuple
    memory_dims: tuple
    relevance_centers: np.ndarray
    action_centers: np.ndarray
    memory_centers: np.ndarray

    @classmethod
    def from_config(cls, cfg: GeneratorConfig) -> "FeatureGeometry":
        rel, action, memory, _ = _layout(cfg).values()
        # the relevance pair lies `cluster_separation` apart, and so do the
        # nearest two signed one-hot centers of a class block
        rel_magnitude = cfg.cluster_separation / 2.0 / math.sqrt(2.0)
        class_magnitude = cfg.cluster_separation / math.sqrt(2.0)
        relevance = np.zeros((2, cfg.feature_dim))
        relevance[:, list(rel)] = [[rel_magnitude], [-rel_magnitude]]
        relevance.setflags(write=False)
        return cls(
            noise_bound=_NOISE_BOUND * cfg.cluster_separation,
            relevance_dims=rel,
            action_dims=action,
            memory_dims=memory,
            relevance_centers=relevance,
            action_centers=_class_centers(action, cfg.n_actions, class_magnitude,
                                          cfg.feature_dim),
            memory_centers=_class_centers(memory, cfg.n_memory_classes, class_magnitude,
                                          cfg.feature_dim),
        )

    # nearest-cluster oracles (exact on generated data by the margin bound)

    def oracle_relevant(self, features) -> bool:
        f = np.asarray(features, dtype=float)
        return float(f[list(self.relevance_dims)].sum()) < 0.0

    def _oracle_class(self, features, dims, n_classes: int) -> int:
        f = np.asarray(features, dtype=float)
        best, best_v = 0, -math.inf
        for label in range(n_classes):
            sign = 1.0 if label % 2 == 0 else -1.0
            v = sign * f[dims[label // 2]]
            if v > best_v:
                best, best_v = label, v
        return best

    def oracle_action(self, features) -> int:
        return self._oracle_class(features, self.action_dims, len(self.action_centers))

    def oracle_memory(self, features) -> int:
        return self._oracle_class(features, self.memory_dims, len(self.memory_centers))


def oracle_valid(trust: float, trust_distribution) -> bool:
    mean, _ = trust_distribution
    return trust > mean


@dataclass(frozen=True)
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


# rows per step of `save`, `Dataset.records` and the trace writer, which
# bounds the Python lists each step builds
SAVE_BLOCK = 1 << 12


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

    @cached_property
    def records(self) -> tuple:
        """Every record as a ModalRecord, in id order: a read-only view of the
        table, built on first access, for callers that want one object per
        record. msr itself never reads it."""
        records = []
        for lo in range(0, len(self.table), SAVE_BLOCK):
            ids, features, *rest = (c.tolist() for c in self.table[lo:lo + SAVE_BLOCK].arrays())
            names = map(MODALITIES.__getitem__, self.modality[lo:lo + SAVE_BLOCK].tolist())
            records += map(ModalRecord, ids, names, map(tuple, features), *rest)
        return tuple(records)


def _truncated(u, bound: float):
    """Map uniforms on [0,1) to a standard normal truncated at +/- bound:
    ndtri(lo + u * (hi - lo)), formed in one array that ndtri overwrites."""
    lo = ndtr(-bound)
    hi = ndtr(bound)
    y = u * (hi - lo)
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
    """Deterministic synthetic corpus for the given config."""
    geom = FeatureGeometry.from_config(cfg)
    mean, spread = cfg.trust_distribution
    n, d = cfg.n_per_modality, cfg.feature_dim
    blocks = []
    for m_idx, modality in enumerate(MODALITIES):
        u = seeding.keyed_uniforms(cfg.seed, seeding.DATASET_RECORD, m_idx,
                                   np.arange(n), 11 + d)
        valid = u[:, 0] < 0.5
        relevant = u[:, 1] < 0.5
        action = np.floor(u[:, 2] * cfg.n_actions).astype(np.int64)
        mem = np.floor(u[:, 3] * cfg.n_memory_classes).astype(np.int64)

        center = np.where(valid, _TRUST_CENTER, -_TRUST_CENTER)
        trust = np.clip(mean + spread * (center + _truncated(u[:, 4], _TRUST_TRUNC)),
                        0.0, 1.0)

        # each record's three centers, added in place over their own blocks
        features = _truncated(u[:, 5:5 + d], geom.noise_bound)
        for centers, dims, label in ((geom.relevance_centers, geom.relevance_dims, relevant),
                                     (geom.action_centers, geom.action_dims, action),
                                     (geom.memory_centers, geom.memory_dims, mem)):
            rows = label.astype(np.intp)
            for dim in dims:
                features[:, dim] += centers[rows, dim]

        flip = u[:, 5 + d:9 + d] < cfg.label_noise[modality]
        stored_action = np.where(
            flip[:, 2], opposite_half(action, cfg.n_actions, u[:, 9 + d]), action)
        stored_mem = np.where(
            flip[:, 3], opposite_half(mem, cfg.n_memory_classes, u[:, 10 + d]), mem)

        blocks.append(Columns(
            ids=np.arange(m_idx * n, (m_idx + 1) * n, dtype=np.uint64), features=features,
            trust=trust, valid=valid ^ flip[:, 0], relevant=relevant ^ flip[:, 1],
            action=stored_action, mem_label=stored_mem))
    return Dataset(meta=_build_meta(cfg), table=Columns.concat(blocks),
                   modality=np.repeat(np.arange(len(MODALITIES), dtype=np.int8), n))


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


def save(dataset: Dataset, path: str) -> None:
    """Write the dataset as JSON, records in id order: the bytes of
    json.dumps(payload, separators=(",", ":"), allow_nan=False) + "\n",
    formatted straight from the table. Floats go through %r, which is
    float.__repr__ as in json, so every float round-trips exactly."""
    table = dataset.table
    if not (np.isfinite(table.features).all() and np.isfinite(table.trust).all()):
        raise ValueError("Out of range float values are not JSON compliant")
    record = ('{"id":%d,"modality":%s,"features":[' + ",".join(["%r"] * table.features.shape[1])
              + '],"trust":%r,"valid":%s,"relevant":%s,"action":%d,"mem_label":%d}')
    names = [json.dumps(modality) for modality in MODALITIES]
    meta = json.dumps(dataset.meta, separators=(",", ":"), allow_nan=False)
    with atomic_open(path) as (fh,):
        fh.write('{"meta":%s,"records":[' % meta)
        for lo in range(0, len(table), SAVE_BLOCK):
            rows = table[lo:lo + SAVE_BLOCK]
            flags = (np.where(column, "true", "false").tolist()
                     for column in (rows.valid, rows.relevant))
            fh.write(("," if lo else "") + ",".join(record % row for row in zip(
                rows.ids.tolist(), map(names.__getitem__,
                                       dataset.modality[lo:lo + SAVE_BLOCK].tolist()),
                *rows.features.T.tolist(), rows.trust.tolist(), *flags,
                rows.action.tolist(), rows.mem_label.tolist())))
        fh.write("]}\n")


def load(path: str) -> Dataset:
    """Read and fully re-validate a dataset file; every error names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # bad JSON, bad UTF-8, an integer too long to read
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{path}: invalid JSON: nesting too deep") from None
    try:
        return _parse(payload)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _parse(payload) -> Dataset:
    if not isinstance(payload, dict) or set(payload) != {"meta", "records"}:
        raise ParseError("top level must be an object with keys meta, records")
    meta = payload["meta"]
    if not isinstance(meta, dict):
        raise ParseError("meta must be an object")
    version = meta.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ParseError(f"schema_version {version!r} unsupported, expected {SCHEMA_VERSION}")
    try:
        cfg = GeneratorConfig.from_mapping(meta.get("generator"))
    except ConfigError as exc:
        raise ParseError(f"meta.generator: {exc}") from None
    rows = payload["records"]
    if not isinstance(rows, list):
        raise ParseError("records must be a list")
    # the records go first: each holds feature_dim numbers, so the layout
    # built below is no larger than the file, whatever size meta claims
    table, owner = _columns(rows, cfg, {m: cfg.n_per_modality for m in MODALITIES})
    # everything but the generator block follows from it, so a file cannot
    # carry a layout or counts that the records were not generated with
    expected = _build_meta(cfg)
    for key in sorted(meta.keys() | expected.keys()):
        if key not in expected:
            raise ParseError(f"meta.{key} is not a meta key; expected {sorted(expected)}")
        if key != "generator" and meta.get(key) != expected[key]:
            raise ParseError(f"meta.{key} {meta.get(key)!r} inconsistent with meta.generator, "
                             f"expected {expected[key]!r}")
    return Dataset(meta, table, owner)


class _FirstFault:
    """The lowest index of a record that fails a check, and the message of
    the first check that fails there. Checks run in a fixed order, each over
    the records below the lowest failure so far; those have passed every
    earlier check, so a check may rely on what the earlier ones established."""

    def __init__(self, rows: list):
        self.rows = rows
        self.stop = len(rows)
        self.message = None

    def column(self, name: str) -> list:
        """Field `name` of every record below the lowest failure so far."""
        return list(map(itemgetter(name), self.rows[:self.stop]))

    def check(self, bad, message) -> None:
        """bad: one flag per record from the first on; message(i): the
        fault of record i."""
        first = next(compress(range(self.stop), bad), None)
        if first is not None:
            self.stop = first
            self.message = f"record {first}: {message(first)}"


def _numbers(values: list) -> np.ndarray:
    """values as float64, with NaN for any value that is not a JSON number
    (a bool is not) or is an integer too large for a float, so that one
    isfinite test finds every bad value."""
    if set(map(type, values)) <= {float}:
        return np.array(values, dtype=np.float64)
    return np.array([_number(v) for v in values], dtype=np.float64)


def _number(value) -> float:
    if type(value) is float:
        return value
    if type(value) is int:
        with suppress(OverflowError):
            return float(value)
    return math.nan


def _columns(rows: list, cfg: GeneratorConfig, counts: dict) -> tuple:
    """Check every record, each check over a whole column, and return the
    records as a `Columns` table and each one's index into MODALITIES. A
    fault is reported for the lowest bad record, by the first check it fails
    in this order."""
    fault = _FirstFault(rows)
    keys = set(RECORD_FIELDS)
    fault.check([type(row) is not dict or row.keys() != keys for row in rows],
                lambda i: f"fields must be exactly {RECORD_FIELDS}")
    ids = fault.column("id")
    fault.check([type(rid) is not int for rid in ids], lambda i: "id must be an integer")
    # record 0 has id 0, and every later id exceeds the one before it
    fault.check([*map(ne, ids[:1], [0]), *map(le, ids[1:fault.stop], ids)],
                lambda i: f"id {ids[i]} breaks the strictly-increasing-from-0 order")
    fault.check([rid >= 2 ** 64 for rid in ids[:fault.stop]],
                lambda i: f"id {ids[i]} outside [0, 2**64)")
    modalities = fault.column("modality")
    fault.check([m not in MODALITIES for m in modalities],
                lambda i: f"unknown modality {modalities[i]!r}")
    dim = cfg.feature_dim
    raw = fault.column("features")
    fault.check([type(f) is not list or len(f) != dim for f in raw],
                lambda i: f"features must hold {dim} numbers")
    features = _numbers(list(chain.from_iterable(raw[:fault.stop]))).reshape(-1, dim)
    bad = ~np.isfinite(features)
    fault.check(bad.any(axis=1),
                lambda i: f"features[{int(np.argmax(bad[i]))}] not a finite number")
    raw = fault.column("trust")
    trust = _numbers(raw)
    fault.check(~((trust >= 0.0) & (trust <= 1.0)), lambda i: f"trust {raw[i]!r} outside [0, 1]")
    flags = {}
    for flag in ("valid", "relevant"):
        flags[flag] = fault.column(flag)
        fault.check([type(v) is not bool for v in flags[flag]],
                    lambda i: f"{flag} must be a boolean")
    labels = {}
    for name, n in (("action", cfg.n_actions), ("mem_label", cfg.n_memory_classes)):
        labels[name] = fault.column(name)
        fault.check([type(v) is not int or not 0 <= v < n for v in labels[name]],
                    lambda i: f"{name} {labels[name][i]!r} outside [0, {n})")
    if fault.message:
        raise ParseError(fault.message)

    owner = np.array(list(map(MODALITIES.index, modalities)), dtype=np.int8)
    seen = {m: int(np.count_nonzero(owner == k)) for k, m in enumerate(MODALITIES)}
    if seen != counts:
        raise ParseError(f"record counts {seen} do not match meta {counts}")
    table = Columns(ids=np.array(ids, dtype=np.uint64), features=features, trust=trust,
                    valid=np.array(flags["valid"], dtype=bool),
                    relevant=np.array(flags["relevant"], dtype=bool),
                    action=np.array(labels["action"], dtype=np.int64),
                    mem_label=np.array(labels["mem_label"], dtype=np.int64))
    return table, owner
