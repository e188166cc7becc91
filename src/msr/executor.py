"""Final action emission and feedback routing.

A run's command per surviving record is the refined policy's action at the
start cell, read from the batched policy tables, with `check_confidence` on
its confidence. `select_optimal_action` and `route_feedback` are one-record
forms: one ActionCommand, and the outcome routed into the decision's feedback
history with the episode's scenario vector into short-term memory.
"""

from dataclasses import dataclass

import numpy as np

from .decision import DecisionCandidate, FeedbackHistory
from .errors import ConfigError
from .memory import MemoryStore
from .sim2real import PolicyTable


@dataclass(frozen=True)
class ActionCommand:
    record_id: int
    action: int
    decision_id: int
    state: tuple
    confidence: float

    def __post_init__(self):
        check_confidence(self.confidence)


def check_confidence(confidence) -> None:
    """Raise ConfigError naming the first confidence outside [0, 1]."""
    c = np.asarray(confidence)
    bad = ~((c >= 0.0) & (c <= 1.0))
    if bad.any():
        raise ConfigError(f"confidence must be in [0, 1], got {c[bad][0].item()}")


@dataclass(frozen=True)
class FeedbackRecord:
    record_id: int
    outcome: float
    matched: bool


def select_optimal_action(decision: DecisionCandidate, policy: PolicyTable,
                          state, confidence: float, record_id: int) -> ActionCommand:
    """Command for the policy's greedy action at `state` with the relevance
    confidence carried from scenario selection."""
    action = policy.action(state)  # raises StateLookupError when out of bounds
    return ActionCommand(record_id=record_id, action=action,
                         decision_id=decision.id, state=tuple(state),
                         confidence=confidence)


def route_feedback(fb: FeedbackRecord, decision_id: int,
                   history: FeedbackHistory, store: MemoryStore,
                   scenario_vector) -> None:
    """Append-only feedback routing: outcome into the decision history,
    episode scenario vector into STM labeled with the outcome match."""
    history.add(decision_id, fb.outcome)
    store.stm_append(np.asarray(scenario_vector, dtype=float), int(fb.matched))
