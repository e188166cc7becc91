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

Generation is column-at-a-time: each modality draws one (n_per_modality,
11 + feature_dim) block of keyed uniforms (`seeding.keyed_uniforms`), whose
columns are valid, relevant, action, mem, trust, the features, four flip
draws and two opposite-half draws. Row i is keyed by (seed, modality, i), so
a record's content is independent of every other record and of
n_per_modality.
"""

from dataclasses import dataclass, field
import json
import math
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

    def validate(self) -> None:
        if self.n_per_modality < 1:
            raise ConfigError(f"n_per_modality must be >= 1, got {self.n_per_modality}")
        if self.n_actions < 2:
            raise ConfigError(f"n_actions must be >= 2, got {self.n_actions}")
        if self.n_memory_classes < 2:
            raise ConfigError(
                f"n_memory_classes must be >= 2, got {self.n_memory_classes}"
            )
        needed = 2 + (self.n_actions + 1) // 2 + (self.n_memory_classes + 1) // 2
        if self.feature_dim < needed:
            raise ConfigError(
                f"feature_dim {self.feature_dim} too small; layout needs {needed}"
            )
        if set(self.label_noise) != set(MODALITIES):
            raise ConfigError(
                f"label_noise must cover exactly {MODALITIES}, got {sorted(self.label_noise)}"
            )
        for modality, p in self.label_noise.items():
            if not 0.0 <= p < 0.5:
                raise ConfigError(f"label_noise[{modality}] must be in [0, 0.5), got {p}")
        mean, spread = self.trust_distribution
        if not 0.0 <= mean <= 1.0:
            raise ConfigError(f"trust_distribution mean must be in [0, 1], got {mean}")
        if spread <= 0.0:
            raise ConfigError(f"trust_distribution spread must be > 0, got {spread}")
        if self.cluster_separation <= 0.0:
            raise ConfigError(
                f"cluster_separation must be > 0, got {self.cluster_separation}"
            )
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed}")

    def to_mapping(self) -> dict:
        """JSON object with label_noise in MODALITIES order, whatever order
        it was given in."""
        return {**mapping.to_mapping(self),
                "label_noise": {m: self.label_noise[m] for m in MODALITIES}}

    @classmethod
    def from_mapping(cls, data: dict) -> "GeneratorConfig":
        cfg = mapping.from_mapping(cls, data, "generator")
        cfg.validate()
        return cfg


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


@dataclass(frozen=True)
class Dataset:
    records: tuple
    meta: dict

    def by_modality(self, modality: str) -> list:
        return [r for r in self.records if r.modality == modality]


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
    cfg.validate()
    geom = FeatureGeometry.from_config(cfg)
    mean, spread = cfg.trust_distribution
    n, d = cfg.n_per_modality, cfg.feature_dim
    records = []
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

        ids = range(m_idx * n, (m_idx + 1) * n)
        records.extend(
            ModalRecord(id=rid, modality=modality, features=tuple(feats), trust=t,
                        valid=v, relevant=r, action=a, mem_label=mlab)
            for rid, feats, t, v, r, a, mlab in zip(
                ids, features.tolist(), trust.tolist(), (valid ^ flip[:, 0]).tolist(),
                (relevant ^ flip[:, 1]).tolist(), stored_action.tolist(),
                stored_mem.tolist()))
    return Dataset(records=tuple(records), meta=_build_meta(cfg, geom))


def save(dataset: Dataset, path: str) -> None:
    """Write the dataset as JSON with full float round-trip precision."""
    payload = {
        "meta": dataset.meta,
        "records": [{name: getattr(r, name) for name in RECORD_FIELDS}
                    for r in dataset.records],
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"), allow_nan=False)
        fh.write("\n")
    os.replace(tmp, path)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load(path: str) -> Dataset:
    """Read and fully re-validate a dataset file; every error names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return _parse(json.load(fh))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from None
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
    counts = expected["counts"]

    rows = payload["records"]
    if not isinstance(rows, list):
        raise ParseError("records must be a list")
    records = []
    seen_counts = dict.fromkeys(MODALITIES, 0)
    prev_id = -1
    for idx, row in enumerate(rows):
        if not isinstance(row, dict) or set(row) != set(RECORD_FIELDS):
            raise ParseError(f"record {idx}: fields must be exactly {RECORD_FIELDS}")
        rid = row["id"]
        if not _is_int(rid):
            raise ParseError(f"record {idx}: id must be an integer")
        if rid <= prev_id or (idx == 0 and rid != 0):
            raise ParseError(f"record {idx}: id {rid} breaks the strictly-increasing-from-0 order")
        prev_id = rid
        modality = row["modality"]
        if modality not in MODALITIES:
            raise ParseError(f"record {idx}: unknown modality {modality!r}")
        feats = row["features"]
        if not isinstance(feats, list) or len(feats) != cfg.feature_dim:
            raise ParseError(f"record {idx}: features must hold {cfg.feature_dim} numbers")
        for j, x in enumerate(feats):
            if not _is_number(x) or not math.isfinite(x):
                raise ParseError(f"record {idx}: features[{j}] not a finite number")
        trust = row["trust"]
        if not _is_number(trust) or not math.isfinite(trust) or not 0.0 <= trust <= 1.0:
            raise ParseError(f"record {idx}: trust {trust!r} outside [0, 1]")
        for flag in ("valid", "relevant"):
            if not isinstance(row[flag], bool):
                raise ParseError(f"record {idx}: {flag} must be a boolean")
        action = row["action"]
        if not _is_int(action) or not 0 <= action < cfg.n_actions:
            raise ParseError(f"record {idx}: action {action!r} outside [0, {cfg.n_actions})")
        mem = row["mem_label"]
        if not _is_int(mem) or not 0 <= mem < cfg.n_memory_classes:
            raise ParseError(f"record {idx}: mem_label {mem!r} outside [0, {cfg.n_memory_classes})")
        seen_counts[modality] += 1
        records.append(ModalRecord(
            id=rid, modality=modality,
            features=tuple(float(x) for x in feats),
            trust=float(trust), valid=row["valid"], relevant=row["relevant"],
            action=action, mem_label=mem,
        ))
    if seen_counts != counts:
        raise ParseError(f"record counts {seen_counts} do not match meta {counts}")
    return Dataset(records=tuple(records), meta=meta)
