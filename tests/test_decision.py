import numpy as np
import pytest
from hypothesis import given, strategies as st

from msr.decision import (
    ContextWeights,
    DecisionCandidate,
    FeedbackHistory,
    Subtask,
    TaskRef,
    TaskTemplate,
    decision_utility,
    decompose,
    feedback_means,
    first_best,
    select_decision,
    subtask_priority,
)
from msr.errors import (
    ConfigError,
    EmptyInputError,
    ShapeError,
    TemplateCycleError,
    TemplateLookupError,
)


def _sub(name, weights=(1.0,)):
    return Subtask(id=name, weights=weights)


class TestDecompose:
    def test_flat_template_in_order(self):
        reg = {"t": TaskTemplate("t", (_sub("a"), _sub("b"), _sub("c")))}
        assert [s.id for s in decompose(reg, "t")] == ["a", "b", "c"]

    def test_unknown_id(self):
        with pytest.raises(TemplateLookupError):
            decompose({}, "nope")

    def test_nested_depth_first(self):
        reg = {
            "outer": TaskTemplate("outer", (_sub("a"), TaskRef("inner"), _sub("d"))),
            "inner": TaskTemplate("inner", (_sub("b"), _sub("c"))),
        }
        assert [s.id for s in decompose(reg, "outer")] == ["a", "b", "c", "d"]

    def test_self_reference_cycle(self):
        reg = {"loop": TaskTemplate("loop", (_sub("a"), TaskRef("loop")))}
        with pytest.raises(TemplateCycleError):
            decompose(reg, "loop")

    def test_mutual_cycle(self):
        reg = {
            "x": TaskTemplate("x", (TaskRef("y"),)),
            "y": TaskTemplate("y", (TaskRef("x"),)),
        }
        with pytest.raises(TemplateCycleError):
            decompose(reg, "x")

    def test_diamond_is_not_a_cycle(self):
        reg = {
            "top": TaskTemplate("top", (TaskRef("leaf"), TaskRef("leaf"))),
            "leaf": TaskTemplate("leaf", (_sub("l"),)),
        }
        assert [s.id for s in decompose(reg, "top")] == ["l", "l"]

    def test_duplicate_subtask_ids_rejected(self):
        with pytest.raises(ConfigError):
            TaskTemplate("t", (_sub("a"), _sub("a")))


class TestSubtaskPriority:
    def test_zero_context(self):
        assert subtask_priority(_sub("s", (1.0, 1.0)), [0.0, 0.0]) == 0.0

    def test_hand_dot(self):
        assert subtask_priority(_sub("s", (1.0, 0.0)), [0.7, 0.2]) == pytest.approx(0.7)

    def test_symmetric(self):
        assert subtask_priority(_sub("s", (0.5, 0.5)), [1.0, 1.0]) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            subtask_priority(_sub("s", (1.0,)), [1.0, 2.0])


class TestDecisionUtility:
    def test_hand_value(self):
        c = DecisionCandidate(0, np.array([1.0, 0.0]))
        assert decision_utility(c, ContextWeights((0.5, 0.5))) == pytest.approx(0.5)

    def test_zero_context(self):
        c = DecisionCandidate(0, np.array([0.0, 0.0]))
        assert decision_utility(c, ContextWeights((0.5, 0.5))) == 0.0

    def test_linear_in_weights(self):
        c = DecisionCandidate(0, np.array([0.3, 0.4]))
        u1 = decision_utility(c, ContextWeights((0.5, 0.5)))
        u2 = decision_utility(c, ContextWeights((1.0, 1.0)))
        assert u2 == pytest.approx(2.0 * u1)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ConfigError):
            ContextWeights((0.0, 0.0))

    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=6),
        st.lists(st.floats(-10, 10), min_size=2, max_size=6),
        st.lists(st.floats(0.01, 10), min_size=2, max_size=6),
    )
    def test_additive_in_context(self, c1, c2, w):
        size = min(len(c1), len(c2), len(w))
        weights = ContextWeights(tuple(w[:size]))
        a = DecisionCandidate(0, np.asarray(c1[:size]))
        b = DecisionCandidate(1, np.asarray(c2[:size]))
        both = DecisionCandidate(2, np.asarray(c1[:size]) + np.asarray(c2[:size]))
        assert decision_utility(both, weights) == pytest.approx(
            decision_utility(a, weights) + decision_utility(b, weights), abs=1e-9
        )


class TestSelectDecision:
    def test_single_candidate(self):
        c = DecisionCandidate(0, np.array([1.0]))
        assert select_decision([c], ContextWeights((1.0,))) is c

    def test_argmax(self):
        cands = [
            DecisionCandidate(0, np.array([0.5])),
            DecisionCandidate(1, np.array([0.7])),
        ]
        assert select_decision(cands, ContextWeights((1.0,))).id == 1

    def test_tie_break_lowest_index(self):
        cands = [
            DecisionCandidate(0, np.array([0.7])),
            DecisionCandidate(1, np.array([0.7])),
        ]
        assert select_decision(cands, ContextWeights((1.0,))).id == 0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            select_decision([], ContextWeights((1.0,)))

    def test_context_length_mismatch(self):
        cands = [DecisionCandidate(0, np.array([1.0, 2.0])), DecisionCandidate(1, np.array([1.0]))]
        with pytest.raises(ShapeError):
            select_decision(cands, ContextWeights((1.0, 1.0)))

    def test_nan_never_wins(self):
        cands = [
            DecisionCandidate(0, np.array([np.nan])),
            DecisionCandidate(1, np.array([-np.inf])),
            DecisionCandidate(2, np.array([-1.0])),
        ]
        assert select_decision(cands, ContextWeights((1.0,))).id == 2
        assert select_decision(cands[:2], ContextWeights((1.0,))).id == 0

    @given(
        st.lists(
            st.lists(st.floats(-10, 10), min_size=3, max_size=3),
            min_size=1,
            max_size=8,
        ),
        st.lists(st.floats(0.01, 5), min_size=3, max_size=3),
    )
    def test_selected_utility_dominates(self, contexts, w):
        cands = [DecisionCandidate(i, np.asarray(c)) for i, c in enumerate(contexts)]
        weights = ContextWeights(tuple(w))
        chosen = select_decision(cands, weights)
        u_star = decision_utility(chosen, weights)
        assert all(u_star >= decision_utility(c, weights) - 1e-12 for c in cands)


class TestFirstBest:
    def test_ties_go_to_the_lowest_position(self):
        assert first_best([1.0, 3.0, 3.0, 2.0]) == 1
        assert first_best([[0.5, 0.5], [0.2, 0.7]]).tolist() == [0, 1]

    def test_nan_never_wins(self):
        assert first_best([np.nan, -5.0, np.nan]) == 1
        assert first_best([[np.nan, -np.inf, -1e300]]).tolist() == [2]

    def test_only_nan_or_minus_inf_gives_position_zero(self):
        assert first_best([[np.nan, np.nan], [-np.inf, -np.inf], [np.nan, -np.inf],
                           [-np.inf, np.nan]]).tolist() == [0, 0, 0, 0]

    def test_empty_row_rejected(self):
        with pytest.raises(EmptyInputError):
            first_best([])
        with pytest.raises(EmptyInputError):
            first_best(np.zeros((3, 0)))


class TestFeedback:
    def test_history_running_mean(self):
        h = FeedbackHistory()
        h.add(3, 0.0)
        assert h.mean(3) == 0.0
        h.add(3, 1.0)
        assert h.mean(3) == pytest.approx(0.5)

    @given(st.lists(st.tuples(st.integers(0, 5),
                              st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-1e300, 1e300))),
                    max_size=200))
    def test_feedback_means_equal_history_bit_for_bit(self, rows):
        # the mean before each row's outcome joins the history, 0.0 while unseen
        history = FeedbackHistory()
        expected = []
        for decision_id, outcome in rows:
            expected.append(history.mean(decision_id))
            history.add(decision_id, outcome)
        got = feedback_means([d for d, _ in rows], [o for _, o in rows])
        assert got.tobytes() == np.asarray(expected, dtype=float).tobytes()

    def test_unseen_decision_id(self):
        h = FeedbackHistory()
        assert h.mean(9) == 0.0
        h.add(9, 0.25)
        assert h.count(9) == 1
