"""Sensor-side preprocessing: trust filtering, normalization, extraction, fusion.

The four stages mirror the front of the pipeline: discard records whose trust
score does not clear the threshold, z-normalize the surviving stream with one
(mean, std) pair per modality, extract features (the identity), and combine
the per-modality features into a single tagged bundle.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import ConfigError, DegenerateModalityError, EmptyInputError, ShapeError

MODALITY_ORDER = ("visual", "auditory", "tactile")


@dataclass(frozen=True)
class NormStats:
    """Population mean and standard deviation of one modality's values."""

    mean: float
    std: float


@dataclass(frozen=True)
class FeatureBundle:
    """Extracted features from all surviving modalities, canonically ordered."""

    entries: tuple  # ((modality, np.ndarray), ...) in MODALITY_ORDER


def filter_by_trust(records, tau: float):
    """Keep records whose trust is strictly greater than tau, order preserved."""
    if not 0.0 <= tau <= 1.0:
        raise ConfigError(f"tau must be in [0, 1], got {tau}")
    return [r for r in records if r.trust > tau]


def fit_norm_stats(values) -> NormStats:
    """Population mean/std of a value vector.

    Raises DegenerateModalityError for constant input: a zero-variance
    modality cannot be normalized and would break cosine scoring downstream.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        v = v.reshape(-1)
    if v.size < 2:
        raise EmptyInputError(f"need at least 2 values to fit stats, got {v.size}")
    mean = math.fsum(v) / v.size
    var = math.fsum((x - mean) ** 2 for x in v) / v.size
    if var == 0.0:
        raise DegenerateModalityError("constant modality: standard deviation is zero")
    return NormStats(mean=mean, std=math.sqrt(var))


def normalize(values, stats: NormStats) -> np.ndarray:
    if stats.std <= 0.0:
        raise DegenerateModalityError("standard deviation must be positive")
    return (np.asarray(values, dtype=float) - stats.mean) / stats.std


def extract_features(values) -> np.ndarray:
    """Feature extraction on a normalized vector or stack: the identity, as a
    copy. The scoring steps read features by the generator's dimension
    blocks, so extraction must keep that layout."""
    return np.array(values, dtype=float)


def fuse(per_modality) -> FeatureBundle:
    """Combine (modality, features) pairs into one bundle.

    Output order is always visual, auditory, tactile regardless of input
    order. Duplicate tags and unknown tags are rejected.
    """
    items = list(per_modality)
    if not items:
        raise EmptyInputError("fuse needs at least one modality")
    seen = {}
    for tag, feats in items:
        if tag not in MODALITY_ORDER:
            raise ShapeError(f"unknown modality tag {tag!r}")
        if tag in seen:
            raise ShapeError(f"duplicate modality tag {tag!r}")
        seen[tag] = np.asarray(feats, dtype=float)
    ordered = tuple((m, seen[m]) for m in MODALITY_ORDER if m in seen)
    return FeatureBundle(entries=ordered)
