"""Sensor-side preprocessing: trust filtering, normalization, extraction, fusion.

The four stages mirror the front of the pipeline: mask out records whose trust
score does not clear the threshold, z-normalize the surviving stream with one
(mean, std) pair per modality, extract features (the identity), and combine
the per-modality features into a single tagged bundle.
"""

from dataclasses import dataclass
from itertools import repeat
import math

import numpy as np

from . import mapping
from .dataset import MODALITIES
from .errors import DegenerateModalityError, EmptyInputError, ShapeError


@dataclass(frozen=True)
class NormStats:
    """Population mean and standard deviation of one modality's values."""

    mean: float
    std: float


@dataclass(frozen=True)
class FeatureBundle:
    """Extracted features from all surviving modalities, canonically ordered."""

    entries: tuple  # ((modality, np.ndarray), ...) in MODALITIES order


def filter_by_trust(trust, tau: float) -> np.ndarray:
    """Mask of the records whose trust is strictly greater than tau."""
    mapping.check("tau", tau, float, "[0, 1]")
    return np.asarray(trust, dtype=float) > tau


def fit_norm_stats(values) -> NormStats:
    """Population mean/std of a value vector.

    Raises DegenerateModalityError for constant input, or for values so large
    that their sum or variance overflows: such a modality cannot be
    normalized and would break cosine scoring downstream.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        v = v.reshape(-1)
    if v.size < 2:
        raise EmptyInputError(f"need at least 2 values to fit stats, got {v.size}")
    try:
        mean = math.fsum(v.tolist()) / v.size
        with np.errstate(over="ignore"):
            deviations = (v - mean).tolist()
        # builtin pow squares as a scalar `** 2` does; the vector x * x differs in some last bits
        var = math.fsum(map(pow, deviations, repeat(2.0))) / v.size
    except OverflowError:  # a finite sum beyond the float range
        var = math.inf
    if var == math.inf:
        raise DegenerateModalityError("values too large to normalize: their sum or "
                                      "variance overflows")
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
        if tag not in MODALITIES:
            raise ShapeError(f"unknown modality tag {tag!r}")
        if tag in seen:
            raise ShapeError(f"duplicate modality tag {tag!r}")
        seen[tag] = np.asarray(feats, dtype=float)
    ordered = tuple((m, seen[m]) for m in MODALITIES if m in seen)
    return FeatureBundle(entries=ordered)
