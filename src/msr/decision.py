"""Task decomposition and context-weighted decision scoring.

Templates expand depth-first into flat subtask lists; a template may embed
references to other templates, and expansion aborts on cycles. Decision
scoring is a weighted sum of context factors, and `first_best` picks the
first maximal one, in the run and in `select_decision` alike; the feedback
channel keeps a per-decision running mean of past outcomes.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    EmptyInputError,
    ShapeError,
    TemplateCycleError,
    TemplateLookupError,
)
from .memory import row_dot


@dataclass(frozen=True)
class Subtask:
    id: str
    weights: tuple

    def weight_vector(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


@dataclass(frozen=True)
class TaskRef:
    """Reference to another template, expanded in place."""

    task_id: str


@dataclass(frozen=True)
class TaskTemplate:
    id: str
    steps: tuple  # Subtask | TaskRef, in execution order

    def __post_init__(self):
        if not self.steps:
            raise ConfigError(f"template {self.id!r} has no subtasks")
        ids = [s.id for s in self.steps if isinstance(s, Subtask)]
        if len(ids) != len(set(ids)):
            raise ConfigError(f"duplicate subtask ids in template {self.id!r}")


def decompose(registry: dict, task_id: str) -> list:
    """Flat, ordered subtask list for a task; nested references expand
    depth-first and a template may appear at most once per path."""

    def expand(tid, path):
        if tid not in registry:
            raise TemplateLookupError(f"unknown task template {tid!r}")
        if tid in path:
            raise TemplateCycleError(f"template cycle through {tid!r}")
        out = []
        for step in registry[tid].steps:
            if isinstance(step, TaskRef):
                out.extend(expand(step.task_id, path | {tid}))
            else:
                out.append(step)
        return out

    return expand(task_id, frozenset())


def subtask_priority(subtask: Subtask, context):
    """Dot product of the subtask's weight vector with the context vector; a
    stack of contexts (N, d) gives an (N,) array, one priority per row."""
    w = subtask.weight_vector()
    c = np.asarray(context, dtype=float)
    if c.ndim not in (1, 2) or w.shape != c.shape[-1:]:
        raise ShapeError(f"weights {w.shape} vs context {c.shape} for {subtask.id!r}")
    priority = row_dot(w, c)
    return float(priority) if c.ndim == 1 else priority


@dataclass
class DecisionCandidate:
    id: int
    context: np.ndarray
    predicted_outcome: float = 0.0


@dataclass(frozen=True)
class ContextWeights:
    w: tuple

    def __post_init__(self):
        arr = np.asarray(self.w, dtype=float)
        if arr.size == 0 or not np.any(arr):
            raise ConfigError(f"context_weights must not be all zero, got {list(self.w)}")
        if not np.all(arr >= 0.0):
            raise ConfigError(f"context_weights must be >= 0, got {list(self.w)}")

    def vector(self) -> np.ndarray:
        return np.asarray(self.w, dtype=float)


def decision_utilities(contexts, weights: ContextWeights) -> np.ndarray:
    """Weighted sums of context factors over the last axis; a stack
    (..., n_factors) gives one utility per leading index. A sum that
    overflows is inf or nan, without a warning."""
    w = weights.vector()
    c = np.asarray(contexts, dtype=float)
    if c.shape[-1:] != w.shape:
        raise ShapeError(f"weights {w.shape} vs context factors {c.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        return row_dot(w, c)


def first_best(utilities) -> np.ndarray:
    """Position of the maximal utility along the last axis; ties go to the
    lowest position and NaN never wins."""
    u = np.asarray(utilities, dtype=float)
    if u.shape[-1:] == (0,):
        raise EmptyInputError("no decision candidates")
    return np.argmax(np.where(np.isnan(u), -np.inf, u), axis=-1)


def decision_utility(candidate: DecisionCandidate, weights: ContextWeights) -> float:
    """Weighted sum of the candidate's context factors."""
    c = np.asarray(candidate.context, dtype=float)
    if c.ndim != 1:
        raise ShapeError(f"weights {weights.vector().shape} vs context factors {c.shape}")
    return float(decision_utilities(c, weights))


def select_decision(candidates, weights: ContextWeights) -> DecisionCandidate:
    """Candidate with maximal utility by the run's own rule, `first_best` of
    each candidate's `decision_utility`: ties go to the lowest list index and
    NaN never wins."""
    return candidates[int(first_best([decision_utility(c, weights) for c in candidates]))]


@dataclass
class FeedbackHistory:
    """Running count and left-to-right total of past outcomes per decision id."""

    totals: dict = field(default_factory=dict)  # decision id -> (count, total)

    def add(self, decision_id: int, outcome: float) -> None:
        count, total = self.totals.get(int(decision_id), (0, 0.0))
        self.totals[int(decision_id)] = (count + 1, total + float(outcome))

    def count(self, decision_id: int) -> int:
        return self.totals.get(int(decision_id), (0, 0.0))[0]

    def mean(self, decision_id: int) -> float:
        """Running mean of past outcomes; 0.0 for an unseen decision id."""
        count, total = self.totals.get(int(decision_id), (0, 0.0))
        return total / count if count else 0.0


def feedback_means(decision_ids, outcomes) -> np.ndarray:
    """Each row's `FeedbackHistory.mean` just before its outcome is added, rows
    in order; bit for bit, as totals add left to right from 0.0."""
    ids = np.asarray(decision_ids)
    values = np.asarray(outcomes, dtype=float)
    means = np.zeros(len(values))
    for decision_id in np.unique(ids):
        rows = np.flatnonzero(ids == decision_id)
        totals = np.cumsum(np.concatenate(([0.0], values[rows[:-1]])))
        means[rows] = totals / np.maximum(np.arange(len(rows)), 1)
    return means
