"""Scenario construction: channel integration, feature mapping, candidate
generation with bounded perturbations, utility scoring, and top-k selection."""

from dataclasses import dataclass
import math

import numpy as np

from .errors import ConfigError, ShapeError
from .rounding import round_half_away

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class ModalityWeights:
    """Convex weights over the sensor, internal-state, and instruction channels."""

    sensor: float
    internal: float
    instruction: float

    def __post_init__(self):
        for name in ("sensor", "internal", "instruction"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"weights.{name} must be >= 0, got {getattr(self, name)}")
        total = self.sensor + self.internal + self.instruction
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ConfigError(f"weights must sum to 1, got {total!r}")


@dataclass(frozen=True)
class Scenario:
    """One candidate situation: perturbed attributes plus their summed utility."""

    index: int
    attributes: np.ndarray
    utility: float


def integrate(sensor, internal, instruction, weights: ModalityWeights) -> np.ndarray:
    """Elementwise convex combination of the three channels. The sensor
    channel may be a stack of rows (N, d) sharing one internal state and
    instruction."""
    s = np.asarray(sensor, dtype=float)
    i = np.asarray(internal, dtype=float)
    h = np.asarray(instruction, dtype=float)
    if not (s.shape[-1:] == i.shape == h.shape) or i.ndim != 1 or s.ndim > 2 or i.size < 1:
        raise ShapeError(
            f"channel lengths must match and be >= 1, got {s.shape}, {i.shape}, {h.shape}"
        )
    return weights.sensor * s + weights.internal * i + weights.instruction * h


def semantic_features(unified) -> np.ndarray:
    """Round each unified value to 2 decimals, ties away from zero."""
    u = np.asarray(unified, dtype=float)
    rounded = [round_half_away(x, 2) for x in u.ravel().tolist()]
    return np.asarray(rounded, dtype=float).reshape(u.shape)


def feature_map(unified) -> np.ndarray:
    """exp(-u) per element: strictly positive and decreasing in u."""
    return np.exp(-np.asarray(unified, dtype=float))


def perturb(map_rows, m_count: int, noise_width: float, u) -> np.ndarray:
    """(N, m_count, d) scenario attributes: each (d,) row of map_rows plus
    m_count rows of uniform noise on [-noise_width, +noise_width) per
    attribute, made from that row's (m_count * d) uniforms on [0, 1) in the
    (N, m_count * d) array u."""
    if m_count < 1:
        raise ConfigError(f"m_count must be >= 1, got {m_count}")
    if noise_width < 0.0:
        raise ConfigError(f"noise_width must be >= 0, got {noise_width}")
    m = np.asarray(map_rows, dtype=float)
    noise = -noise_width + 2.0 * noise_width * np.asarray(u, dtype=float)
    return m[:, None, :] + noise.reshape(m.shape[0], m_count, m.shape[-1])


def generate_scenarios(map_values, m_count: int, noise_width: float, rng) -> list:
    """Perturb the feature map m_count times (see `perturb`). Deterministic
    for a given seed; pass an int seed or a Generator."""
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    row = np.asarray(map_values, dtype=float)[None]
    u = gen.random((1, max(m_count, 0) * row.shape[1]))
    attrs = perturb(row, m_count, noise_width, u)[0]
    return [Scenario(index=j, attributes=a, utility=scenario_utility(a))
            for j, a in enumerate(attrs)]


def scenario_utility(attributes) -> float:
    """Sum of attribute values (compensated, so long vectors stay exact)."""
    return float(scenario_utilities(attributes))


def scenario_utilities(attributes) -> np.ndarray:
    """`scenario_utility` of every row of an (..., d) attribute array."""
    a = np.asarray(attributes, dtype=float)
    rows = a.reshape(math.prod(a.shape[:-1]), a.shape[-1])
    sums = list(map(math.fsum, rows.tolist()))
    return np.asarray(sums, dtype=float).reshape(a.shape[:-1])


def select_top_k(scenarios, k: int) -> list:
    """The min(k, m) scenarios with the largest utility, descending; ties by
    ascending scenario index."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    ranked = sorted(scenarios, key=lambda s: (-s.utility, s.index))
    return ranked[: min(k, len(ranked))]
