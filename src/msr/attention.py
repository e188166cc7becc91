"""Relevance scoring over scenario utilities and memory-guided refinement.

The softmax here is max-subtracted, so utilities around 1e3 are as safe as
utilities around 1. Selection by relevance must agree with selection by raw
utility (softmax is strictly monotone); that equivalence is enforced by test.
The memory readout is the same softmax and top-k over cosine scores.
"""

import numpy as np

from .errors import ConfigError, EmptyInputError, ShapeError


def relevance_scores(utilities) -> np.ndarray:
    """Numerically stable softmax over scenario utilities; a stack (N, m)
    gives one softmax per row."""
    u = np.asarray(utilities, dtype=float)
    if u.size == 0:
        raise EmptyInputError("relevance_scores needs at least one utility")
    # a difference past -max overflows to -inf, whose exp is 0 as for any below -745
    with np.errstate(over="ignore"):
        z = u - u.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def top_k_indices(scores, k: int) -> np.ndarray:
    """Positions of the k highest scores along the last axis, best first;
    equal scores keep ascending position (a stable sort). A stack (N, m)
    gives (N, min(k, m))."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    r = np.asarray(scores, dtype=float)
    return np.argsort(-r, axis=-1, kind="stable")[..., :k]


def top_k_by_relevance(scores, scenarios, k: int) -> list:
    """Top-k scenarios by relevance score, ties by scenario index; identical
    to utility-based top-k whenever distinct utilities stay distinct through
    exp (utilities closer than one float ulp of each other can collide and
    then fall back to the index tie-break)."""
    r = np.asarray(scores, dtype=float)
    if r.size != len(scenarios):
        raise ShapeError(f"{r.size} scores for {len(scenarios)} scenarios")
    by_index = sorted(range(len(scenarios)), key=lambda j: scenarios[j].index)
    picked = top_k_indices(r.reshape(-1)[by_index], k)
    return [scenarios[by_index[j]] for j in picked.tolist()]


def refine_scenario(attributes, memory_readout, beta: float) -> np.ndarray:
    """Blend scenario attributes toward the memory readout:
    (1 - beta) * attributes + beta * readout."""
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"beta must be in [0, 1], got {beta}")
    a = np.asarray(attributes, dtype=float)
    m = np.asarray(memory_readout, dtype=float)
    if a.shape != m.shape:
        raise ShapeError(f"attribute shape {a.shape} != readout shape {m.shape}")
    return (1.0 - beta) * a + beta * m
