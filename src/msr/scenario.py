"""Scenario construction: channel integration, feature mapping, candidate
generation with bounded perturbations of the caller's uniforms (each record's
row of keyed uniforms in a run), utility scoring, and top-k selection."""

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
    """Round each unified value to 2 decimals, ties away from zero, equal to
    `round_half_away(x, 2)` bit for bit: below 1e6, |u|*100 is off by under
    1e-8 and k / 100 is correctly rounded, as float(Decimal) is. Values within
    1e-6 of a tie, huge and non-finite ones go through `round_half_away`."""
    u = np.asarray(unified, dtype=float)
    small = np.abs(u) < 1e6              # False for NaN and inf
    scaled = np.where(small, np.abs(u), 0.0) * 100.0
    out = np.copysign(np.floor(scaled + 0.5) / 100.0, u)
    slow = ~small | (np.abs(scaled - np.floor(scaled) - 0.5) <= 1e-6)
    out[slow] = [round_half_away(x, 2) for x in u[slow].tolist()]
    return out


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
    if np.shape(u) != (m.shape[0], m_count * m.shape[-1]):
        raise ShapeError(f"scenario draws {np.shape(u)} for {m.shape[0]} maps of "
                         f"{m.shape[-1]} values and m_count {m_count}")
    noise = -noise_width + 2.0 * noise_width * np.asarray(u, dtype=float)
    return m[:, None, :] + noise.reshape(m.shape[0], m_count, m.shape[-1])


def generate_scenarios(map_values, m_count: int, noise_width: float, draws) -> list:
    """m_count scenarios around one feature map, read from its row of
    m_count * d uniforms on [0, 1) in `draws`: the one-row form of `perturb`,
    as the run perturbs each record's map with its keyed SCENARIO_NOISE row."""
    row = np.asarray(map_values, dtype=float)[None]
    attrs = perturb(row, m_count, noise_width, np.asarray(draws, dtype=float)[None])[0]
    return [Scenario(index=j, attributes=a, utility=scenario_utility(a))
            for j, a in enumerate(attrs)]


def scenario_utility(attributes) -> float:
    """Sum of attribute values (compensated, so long vectors stay exact)."""
    return float(scenario_utilities(attributes))


def scenario_utilities(attributes) -> np.ndarray:
    """`scenario_utility` of every row of an (..., d) attribute array. Two
    values have one IEEE sum, the correctly rounded one fsum returns (`+ 0.0`
    for its +0.0 from -0.0 + -0.0); a non-finite sum goes through fsum."""
    a = np.asarray(attributes, dtype=float)
    if a.shape[-1] == 2:
        with np.errstate(over="ignore", invalid="ignore"):
            sums = a[..., 0] + a[..., 1] + 0.0
        if np.isfinite(sums).all():
            return sums
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
