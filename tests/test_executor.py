import numpy as np
import pytest
from hypothesis import given, strategies as st

from msr.decision import DecisionCandidate, FeedbackHistory
from msr.errors import StateLookupError
from msr.executor import ActionCommand, FeedbackRecord, route_feedback, select_optimal_action
from msr.memory import MemoryStore
from msr.sim2real import GridEnv, optimize_policy


@pytest.fixture()
def policy():
    env = GridEnv(width=3, height=3, start=(0, 0), goal=(2, 0), horizon=4)
    return optimize_policy(env, 0.9)


def _decision():
    return DecisionCandidate(id=2, context=np.array([1.0, 0.5, 0.2]))


class TestSelectOptimalAction:
    def test_action_comes_from_policy(self, policy):
        cmd = select_optimal_action(_decision(), policy, (0, 0), 0.8, record_id=4)
        assert cmd.action == 3  # straight right along the shortest path
        assert cmd.decision_id == 2
        assert cmd.record_id == 4
        assert cmd.confidence == pytest.approx(0.8)

    def test_first_step_matches_shortest_path(self, policy):
        # path enumeration on a 3x3 with goal two cells right: right first
        cmd = select_optimal_action(_decision(), policy, (0, 0), 0.5, record_id=0)
        assert cmd.action == 3

    def test_illegal_state(self, policy):
        with pytest.raises(StateLookupError):
            select_optimal_action(_decision(), policy, (9, 9), 0.5, record_id=0)

    def test_confidence_validated(self):
        with pytest.raises(Exception):
            ActionCommand(record_id=0, action=0, decision_id=0, state=(0, 0),
                          confidence=1.5)


class TestRouteFeedback:
    def test_single_feedback(self):
        history = FeedbackHistory()
        store = MemoryStore()
        fb = FeedbackRecord(record_id=0, outcome=1.0, matched=True)
        route_feedback(fb, decision_id=3, history=history, store=store,
                       scenario_vector=[0.5, 0.5])
        assert history.count(3) == 1
        assert len(store.stm) == 1
        assert store.stm[0].label == 1

    def test_running_mean_updates(self):
        history = FeedbackHistory()
        store = MemoryStore()
        for outcome in (0.0, 1.0):
            fb = FeedbackRecord(record_id=0, outcome=outcome, matched=bool(outcome))
            route_feedback(fb, 5, history, store, [1.0, 0.0])
        assert history.mean(5) == pytest.approx(0.5)

    def test_unseen_decision_creates_history(self):
        history = FeedbackHistory()
        store = MemoryStore()
        fb = FeedbackRecord(record_id=0, outcome=0.0, matched=False)
        route_feedback(fb, 42, history, store, [1.0])
        assert history.count(42) == 1
        assert history.mean(42) == 0.0

    @given(st.lists(st.sampled_from([0.0, 1.0, 0.25, 0.1, 1e-17, 3.5]), min_size=1,
                    max_size=40))
    def test_mean_is_left_to_right_mean(self, outcomes):
        history = FeedbackHistory()
        total = 0.0
        for i, outcome in enumerate(outcomes):
            route_feedback(FeedbackRecord(i, outcome, bool(outcome)), 1, history,
                           MemoryStore(), [1.0])
            total += outcome
        assert history.count(1) == len(outcomes)
        assert history.mean(1) == total / len(outcomes)
