import numpy as np
import pytest
from hypothesis import given, strategies as st

from msr.errors import ConfigError, ShapeError
from msr.scenario import (
    ModalityWeights,
    Scenario,
    feature_map,
    generate_scenarios,
    integrate,
    scenario_utility,
    select_top_k,
    semantic_features,
)
from msr.seeding import SCENARIO_NOISE, keyed_uniforms

EQUAL = ModalityWeights(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


def _draws(seed, n):
    """One record's row of n scenario-noise uniforms, as the run draws them."""
    return keyed_uniforms(seed, SCENARIO_NOISE, 0, [0], n)[0]


class TestWeights:
    def test_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            ModalityWeights(0.5, 0.5, 0.5)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            ModalityWeights(1.2, -0.2, 0.0)


class TestIntegrate:
    def test_equal_inputs_equal_weights(self):
        out = integrate([0.6], [0.6], [0.6], EQUAL)
        assert out == pytest.approx([0.6], abs=1e-12)

    def test_degenerate_weights_pick_sensor(self):
        out = integrate([1.0, 2.0], [9.0, 9.0], [7.0, 7.0], ModalityWeights(1.0, 0.0, 0.0))
        assert out == pytest.approx([1.0, 2.0])

    def test_hand_value(self):
        out = integrate([1.0], [0.0], [1.0], ModalityWeights(0.5, 0.3, 0.2))
        assert out == pytest.approx([0.7], abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            integrate([1.0, 2.0], [1.0], [1.0], EQUAL)

    @given(st.lists(st.floats(-1, 1), min_size=1, max_size=16))
    def test_convex_combination_stays_in_range(self, values):
        s = np.asarray(values)
        out = integrate(s, s * 0.5, -s, ModalityWeights(0.2, 0.5, 0.3))
        assert np.all(out >= -1.0 - 1e-12) and np.all(out <= 1.0 + 1e-12)


class TestSemanticFeatures:
    def test_already_two_decimals(self):
        assert semantic_features([0.5]) == pytest.approx([0.5])

    def test_rounds_down_digit(self):
        assert semantic_features([0.548812]) == pytest.approx([0.55])

    def test_half_away_from_zero(self):
        assert semantic_features([-0.005]) == pytest.approx([-0.01])
        assert semantic_features([0.005]) == pytest.approx([0.01])

    def test_classic_binary_trap(self):
        # 2.675 stores as 2.67499...; rounding the decimal repr keeps intent
        assert semantic_features([2.675]) == pytest.approx([2.68])


class TestFeatureMap:
    def test_zero_maps_to_one(self):
        assert feature_map([0.0]) == pytest.approx([1.0])

    def test_exponential_values(self):
        assert feature_map([0.6]) == pytest.approx([0.548812], abs=5e-7)
        assert feature_map([-1.0]) == pytest.approx([2.71828], abs=5e-6)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=20))
    def test_positive_and_monotone(self, values):
        m = feature_map(values)
        assert np.all(m > 0)
        order = np.argsort(values)
        assert np.all(np.diff(m[order]) <= 0)


class TestGenerateScenarios:
    def test_zero_noise_copies_map(self):
        m = np.array([0.5, 1.5])
        for s in generate_scenarios(m, 4, 0.0, _draws(0, 8)):
            assert s.attributes == pytest.approx(m, abs=0.0)

    def test_noise_bound(self):
        m = np.array([1.0, 2.0, 3.0])
        for s in generate_scenarios(m, 64, 0.1, _draws(3, 192)):
            assert np.all(np.abs(s.attributes - m) <= 0.1)

    def test_deterministic_under_seed(self):
        a = generate_scenarios([1.0, 2.0], 8, 0.1, _draws(99, 16))
        b = generate_scenarios([1.0, 2.0], 8, 0.1, _draws(99, 16))
        for x, y in zip(a, b):
            assert np.array_equal(x.attributes, y.attributes)
            assert x.utility == y.utility

    def test_bad_count(self):
        with pytest.raises(ConfigError):
            generate_scenarios([1.0], 0, 0.1, np.zeros(0))

    @pytest.mark.parametrize("n", [0, 7, 9])
    def test_draws_of_the_wrong_length(self, n):
        with pytest.raises(ShapeError):
            generate_scenarios([1.0, 2.0], 4, 0.1, np.zeros(n))


class TestUtility:
    def test_zeros(self):
        assert scenario_utility([0.0, 0.0, 0.0]) == 0.0

    def test_halves(self):
        assert scenario_utility([0.5, 0.5]) == 1.0

    def test_three_rounded_map_values(self):
        assert scenario_utility([0.548812] * 3) == pytest.approx(1.646436, abs=1e-12)

    def test_long_vector_compensated(self):
        v = np.full(100_000, 0.1)
        assert scenario_utility(v) == pytest.approx(10_000.0, abs=1e-9)

    @given(st.lists(st.floats(-100, 100), max_size=30), st.lists(st.floats(-100, 100), max_size=30))
    def test_additive_over_concatenation(self, a, b):
        total = scenario_utility(a + b)
        assert total == pytest.approx(scenario_utility(a) + scenario_utility(b), abs=1e-9)


def _mk(index, utility):
    return Scenario(index=index, attributes=np.array([utility]), utility=utility)


class TestSelectTopK:
    def test_k_beyond_m_returns_all_sorted(self):
        out = select_top_k([_mk(0, 1.0), _mk(1, 5.0), _mk(2, 3.0)], 10)
        assert [s.index for s in out] == [1, 2, 0]

    def test_hand_sort(self):
        out = select_top_k([_mk(0, 3.0), _mk(1, 1.0), _mk(2, 2.0)], 2)
        assert [s.index for s in out] == [0, 2]

    def test_tie_break_by_index(self):
        out = select_top_k([_mk(0, 1.0), _mk(1, 1.0), _mk(2, 1.0)], 2)
        assert [s.index for s in out] == [0, 1]

    def test_zero_k_rejected(self):
        with pytest.raises(ConfigError):
            select_top_k([_mk(0, 1.0)], 0)

    def test_zero_noise_top_k_returns_lowest_indices(self):
        scenarios = generate_scenarios([0.7, 1.1], 8, 0.0, _draws(0, 16))
        assert len({s.utility for s in scenarios}) == 1
        out = select_top_k(scenarios, 3)
        assert [s.index for s in out] == [0, 1, 2]

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40), st.integers(1, 40))
    def test_selected_dominate_unselected(self, utilities, k):
        scenarios = [_mk(i, u) for i, u in enumerate(utilities)]
        chosen = select_top_k(scenarios, k)
        left_out = {s.index for s in scenarios} - {s.index for s in chosen}
        if chosen and left_out:
            worst_kept = min(s.utility for s in chosen)
            best_dropped = max(scenarios[i].utility for i in left_out)
            assert worst_kept >= best_dropped
