import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from msr.dataset import MODALITIES
from msr.errors import ConfigError, DegenerateModalityError, EmptyInputError, ShapeError
from msr.ingest import (
    FeatureBundle,
    extract_features,
    filter_by_trust,
    fit_norm_stats,
    fuse,
    normalize,
)


class TestFilterByTrust:
    def test_vacuous_threshold_keeps_everything(self):
        assert filter_by_trust(np.array([0.1, 0.5, 0.9]), 0.0).tolist() == [True] * 3

    def test_empty_input(self):
        assert filter_by_trust(np.array([]), 0.5).tolist() == []

    def test_strict_comparison(self):
        kept = filter_by_trust(np.array([0.2, 0.8, 0.5]), 0.5)
        assert kept.tolist() == [False, True, False]  # 0.5 itself is dropped

    def test_bad_tau(self):
        with pytest.raises(ConfigError):
            filter_by_trust(np.array([]), 1.5)

    @given(st.lists(st.floats(0, 1), max_size=30), st.floats(0, 1))
    def test_subset_order_and_strictness(self, values, tau):
        kept = filter_by_trust(np.array(values), tau)
        assert kept.tolist() == [t > tau for t in values]


class TestNormStats:
    def test_hand_values(self):
        stats = fit_norm_stats([1.0, 2.0, 3.0])
        assert stats.mean == pytest.approx(2.0, abs=1e-12)
        assert stats.std == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)

    def test_binary_vector(self):
        stats = fit_norm_stats([0.0, 0.0, 1.0, 1.0])
        assert stats.mean == pytest.approx(0.5, abs=1e-12)
        assert stats.std == pytest.approx(0.5, abs=1e-12)

    def test_constant_input_degenerate(self):
        with pytest.raises(DegenerateModalityError):
            fit_norm_stats([5.0, 5.0, 5.0])

    def test_too_few_values(self):
        with pytest.raises(EmptyInputError):
            fit_norm_stats([1.0])


class TestNormalize:
    def test_hand_values(self):
        stats = fit_norm_stats([1.0, 2.0, 3.0])
        out = normalize([1.0, 2.0, 3.0], stats)
        expected = [-math.sqrt(3.0 / 2.0), 0.0, math.sqrt(3.0 / 2.0)]
        assert out == pytest.approx(expected, abs=1e-12)

    def test_standard_input_unchanged(self):
        v = np.array([-1.0, 1.0])
        out = normalize(v, fit_norm_stats(v))
        assert out == pytest.approx(v, abs=1e-12)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200))
    def test_post_stats_are_standard(self, values):
        v = np.asarray(values)
        assume(np.ptp(v) > 1e-9 * (1.0 + np.abs(v).max()))
        out = normalize(v, fit_norm_stats(v))
        assert abs(out.mean()) <= 1e-9
        assert abs(out.std() - 1.0) <= 1e-9


class TestExtractFeatures:
    def test_identity(self):
        v = np.array([[3.0, -1.0, 2.5], [0.0, 1.0, -2.0]])
        out = extract_features(v)
        assert np.array_equal(out, v) and out is not v


class TestFuse:
    def test_single_modality(self):
        bundle = fuse([("tactile", [1.0, 2.0])])
        assert len(bundle.entries) == 1
        assert bundle.entries[0][0] == "tactile"

    def test_canonical_order(self):
        bundle = fuse([("tactile", [3.0]), ("visual", [1.0]), ("auditory", [2.0])])
        assert [tag for tag, _ in bundle.entries] == list(MODALITIES)

    def test_duplicate_tags_rejected(self):
        with pytest.raises(ShapeError):
            fuse([("visual", [1.0]), ("visual", [2.0])])

    def test_unknown_tag_rejected(self):
        with pytest.raises(ShapeError):
            fuse([("smell", [1.0])])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            fuse([])

    def test_refusing_own_output_reproduces_bundle(self):
        bundle = fuse([("auditory", [2.0]), ("visual", [1.0])])
        again = fuse(bundle.entries)
        assert isinstance(again, FeatureBundle)
        assert [tag for tag, _ in again.entries] == [tag for tag, _ in bundle.entries]
        for (_, a), (_, b) in zip(again.entries, bundle.entries):
            assert a == pytest.approx(b)
