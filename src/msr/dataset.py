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
n_per_modality.

Storage is by column too. A `Dataset` holds the meta block and one `Columns`
per modality: ids, (n, feature_dim) features, trust, valid, relevant, action
and mem_label, rows in id order. `save` formats the JSON text straight from
the columns. `load` parses it with json.load and runs every record check as
a check over a whole column; a fault names the lowest bad record and the
first check it fails. `Dataset.records` is a read-only tuple of
`ModalRecord`s derived from the columns on first access, for callers that
want one object per record; nothing in msr reads it.
"""

from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain, compress, repeat
import json
import math
from operator import itemgetter, le, ne
import os

import numpy as np
from scipy.special import ndtr, ndtri

from . import mapping, seeding
from .errors import ConfigError, ParseError

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
        if self.n_per_modality < 1:
            raise ConfigError(f"generator.n_per_modality must be >= 1, "
                              f"got {self.n_per_modality}")
        if self.n_actions < 2:
            raise ConfigError(f"generator.n_actions must be >= 2, got {self.n_actions}")
        if self.n_memory_classes < 2:
            raise ConfigError(f"generator.n_memory_classes must be >= 2, "
                              f"got {self.n_memory_classes}")
        needed = 2 + (self.n_actions + 1) // 2 + (self.n_memory_classes + 1) // 2
        if self.feature_dim < needed:
            raise ConfigError(f"generator.feature_dim {self.feature_dim} too small; "
                              f"layout needs {needed}")
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


@dataclass(frozen=True)
class FeatureGeometry:
    """Cluster centers and dimension blocks derived from a GeneratorConfig."""

    feature_dim: int
    n_actions: int
    n_memory_classes: int
    separation: float
    relevance_dims: tuple
    action_dims: tuple
    memory_dims: tuple
    padding_dims: tuple

    @classmethod
    def from_config(cls, cfg: GeneratorConfig) -> "FeatureGeometry":
        rel = (0, 1)
        a_width = (cfg.n_actions + 1) // 2
        m_width = (cfg.n_memory_classes + 1) // 2
        action = tuple(range(2, 2 + a_width))
        memory = tuple(range(2 + a_width, 2 + a_width + m_width))
        padding = tuple(range(2 + a_width + m_width, cfg.feature_dim))
        return cls(
            feature_dim=cfg.feature_dim,
            n_actions=cfg.n_actions,
            n_memory_classes=cfg.n_memory_classes,
            separation=cfg.cluster_separation,
            relevance_dims=rel,
            action_dims=action,
            memory_dims=memory,
            padding_dims=padding,
        )

    @property
    def noise_bound(self) -> float:
        return _NOISE_BOUND * self.separation

    @property
    def relevance_magnitude(self) -> float:
        # center pair distance = separation
        return self.separation / 2.0 / math.sqrt(2.0)

    @property
    def class_magnitude(self) -> float:
        # min distance between signed one-hot centers = separation
        return self.separation / math.sqrt(2.0)

    def relevance_center(self, relevant) -> np.ndarray:
        """Cluster center of a relevance flag; (N, d) centers of N flags."""
        rel = np.asarray(relevant, dtype=bool)
        c = np.zeros(rel.shape + (self.feature_dim,))
        c[..., list(self.relevance_dims)] = np.where(
            rel, -self.relevance_magnitude, self.relevance_magnitude)[..., None]
        return c

    def _class_center(self, dims, label) -> np.ndarray:
        lab = np.asarray(label, dtype=np.int64)
        c = np.zeros(lab.shape + (self.feature_dim,))
        value = np.where(lab % 2 == 0, self.class_magnitude, -self.class_magnitude)
        dim = np.asarray(dims)[lab // 2]
        np.put_along_axis(c, dim[..., None], value[..., None], axis=-1)
        return c

    def action_center(self, label) -> np.ndarray:
        """Cluster center of an action label; (N, d) centers of N labels."""
        return self._class_center(self.action_dims, label)

    def memory_center(self, label) -> np.ndarray:
        """Cluster center of a memory label; (N, d) centers of N labels."""
        return self._class_center(self.memory_dims, label)

    def action_directions(self) -> np.ndarray:
        """(n_actions, feature_dim) unit vectors toward each action center."""
        out = np.zeros((self.n_actions, self.feature_dim))
        for a in range(self.n_actions):
            out[a] = self.action_center(a)
            out[a] /= np.linalg.norm(out[a])
        return out

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
        return self._oracle_class(features, self.action_dims, self.n_actions)

    def oracle_memory(self, features) -> int:
        return self._oracle_class(features, self.memory_dims, self.n_memory_classes)


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


@dataclass(frozen=True, eq=False)
class Columns:
    """One modality's records, one row each, in id order: ids uint64,
    features (n, feature_dim) float64, trust float64, valid and relevant
    bool, action and mem_label int64."""

    ids: np.ndarray
    features: np.ndarray
    trust: np.ndarray
    valid: np.ndarray
    relevant: np.ndarray
    action: np.ndarray
    mem_label: np.ndarray

    # not iterable: a record is a row of every column, and one row is a slice
    __iter__ = None

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, rows) -> "Columns":
        """The rows that a slice, an index array or a boolean mask picks."""
        return Columns(*(column[rows] for column in self.arrays()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Columns) and all(
            np.array_equal(a, b) for a, b in zip(self.arrays(), other.arrays()))

    def arrays(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]


@dataclass(frozen=True, eq=False)
class Dataset:
    """The meta block and one `Columns` per modality of MODALITIES."""

    columns: dict
    meta: dict

    def by_modality(self, modality: str) -> Columns:
        return self.columns[modality]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Dataset) and self.meta == other.meta
                and self.columns == other.columns)

    @cached_property
    def records(self) -> tuple:
        """Every record as a ModalRecord, in id order: a read-only view of the
        columns, built on first access, for callers that want one object per
        record. msr itself never reads it."""
        return tuple(
            ModalRecord(rid, modality, tuple(feats), *rest)
            for modality, block in _runs(self)
            for rid, feats, *rest in zip(*(column.tolist() for column in block.arrays())))


def _runs(dataset: Dataset):
    """(modality, rows) blocks that list every record once, in id order: one
    block per modality unless a hand-written file interleaves modalities."""
    ids = np.concatenate([dataset.columns[m].ids for m in MODALITIES])
    owner = np.repeat(np.arange(len(MODALITIES)),
                      [len(dataset.columns[m]) for m in MODALITIES])
    owner = owner[np.argsort(ids, kind="stable")]
    edges = np.flatnonzero(np.diff(owner)) + 1
    done = dict.fromkeys(MODALITIES, 0)
    for lo, hi in zip([0, *edges.tolist()], [*edges.tolist(), len(owner)]):
        modality = MODALITIES[owner[lo]]
        start = done[modality]
        done[modality] += hi - lo
        yield modality, dataset.columns[modality][start:done[modality]]


def _truncated(u, bound: float):
    """Map uniforms on [0,1) to a standard normal truncated at +/- bound."""
    lo = ndtr(-bound)
    hi = ndtr(bound)
    return ndtri(lo + u * (hi - lo))


def _build_meta(cfg: GeneratorConfig, geom: FeatureGeometry) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "generator": cfg.to_mapping(),
        "counts": {m: cfg.n_per_modality for m in MODALITIES},
        "feature_layout": {
            "relevance": list(geom.relevance_dims),
            "action": list(geom.action_dims),
            "memory": list(geom.memory_dims),
            "padding": list(geom.padding_dims),
        },
    }


def generate(cfg: GeneratorConfig) -> Dataset:
    """Deterministic synthetic corpus for the given config."""
    geom = FeatureGeometry.from_config(cfg)
    mean, spread = cfg.trust_distribution
    n, d = cfg.n_per_modality, cfg.feature_dim
    columns = {}
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

        features = _truncated(u[:, 5:5 + d], geom.noise_bound)
        features += geom.relevance_center(relevant)
        features += geom.action_center(action)
        features += geom.memory_center(mem)

        flip = u[:, 5 + d:9 + d] < cfg.label_noise[modality]
        stored_action = np.where(
            flip[:, 2], opposite_half(action, cfg.n_actions, u[:, 9 + d]), action)
        stored_mem = np.where(
            flip[:, 3], opposite_half(mem, cfg.n_memory_classes, u[:, 10 + d]), mem)

        columns[modality] = Columns(
            ids=np.arange(m_idx * n, (m_idx + 1) * n, dtype=np.uint64), features=features,
            trust=trust, valid=valid ^ flip[:, 0], relevant=relevant ^ flip[:, 1],
            action=stored_action, mem_label=stored_mem)
    return Dataset(columns=columns, meta=_build_meta(cfg, geom))


# records written per formatting call of `save`
SAVE_BLOCK = 1 << 14


@contextmanager
def atomic_open(path: str):
    """A text file for writing that replaces `path` only once it is complete:
    it is written as `path`.tmp and renamed into place; on an error the
    temporary file goes and whatever was at `path` stays."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save(dataset: Dataset, path: str) -> None:
    """Write the dataset as JSON, records in id order: the bytes of
    json.dumps(payload, separators=(",", ":"), allow_nan=False) + "\n",
    formatted straight from the columns. Floats go through %r, which is
    float.__repr__ as in json, so every float round-trips exactly."""
    for columns in dataset.columns.values():
        if not (np.isfinite(columns.features).all() and np.isfinite(columns.trust).all()):
            raise ValueError("Out of range float values are not JSON compliant")
    dim = dataset.columns[MODALITIES[0]].features.shape[1]
    record = ('{"id":%d,"modality":%s,"features":[' + ",".join(["%r"] * dim)
              + '],"trust":%r,"valid":%s,"relevant":%s,"action":%d,"mem_label":%d}')
    meta = json.dumps(dataset.meta, separators=(",", ":"), allow_nan=False)
    with atomic_open(path) as fh:
        fh.write('{"meta":%s,"records":[' % meta)
        sep = ""
        for modality, block in _runs(dataset):
            name = json.dumps(modality)
            for lo in range(0, len(block), SAVE_BLOCK):
                rows = block[lo:lo + SAVE_BLOCK]
                flags = (np.where(column, "true", "false").tolist()
                         for column in (rows.valid, rows.relevant))
                fh.write(sep + ",".join(record % row for row in zip(
                    rows.ids.tolist(), repeat(name), *rows.features.T.tolist(),
                    rows.trust.tolist(), *flags, rows.action.tolist(),
                    rows.mem_label.tolist())))
                sep = ","
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
    # everything but the generator block follows from it, so a file cannot
    # carry a layout or counts that the records were not generated with
    expected = _build_meta(cfg, FeatureGeometry.from_config(cfg))
    for key in sorted(meta.keys() | expected.keys()):
        if key not in expected:
            raise ParseError(f"meta.{key} is not a meta key; expected {sorted(expected)}")
        if key != "generator" and meta.get(key) != expected[key]:
            raise ParseError(f"meta.{key} {meta.get(key)!r} inconsistent with meta.generator, "
                             f"expected {expected[key]!r}")
    rows = payload["records"]
    if not isinstance(rows, list):
        raise ParseError("records must be a list")
    return Dataset(columns=_columns(rows, cfg, expected["counts"]), meta=meta)


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


def _columns(rows: list, cfg: GeneratorConfig, counts: dict) -> dict:
    """Check every record, each check over a whole column, and split the
    records into one `Columns` per modality. A fault is reported for the
    lowest bad record, by the first check it fails in this order."""
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

    owner = np.array(list(map({m: k for k, m in enumerate(MODALITIES)}.get, modalities)))
    seen = {m: int(np.count_nonzero(owner == k)) for k, m in enumerate(MODALITIES)}
    if seen != counts:
        raise ParseError(f"record counts {seen} do not match meta {counts}")
    table = Columns(ids=np.array(ids, dtype=np.uint64), features=features, trust=trust,
                    valid=np.array(flags["valid"], dtype=bool),
                    relevant=np.array(flags["relevant"], dtype=bool),
                    action=np.array(labels["action"], dtype=np.int64),
                    mem_label=np.array(labels["mem_label"], dtype=np.int64))
    return {m: table[owner == k] for k, m in enumerate(MODALITIES)}
