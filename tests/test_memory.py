import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msr.errors import ConfigError, EmptyMemoryError, InvalidEntryError
from msr.memory import LTM, STM, MemoryEntry, MemoryStore, cosine_score


def brute_force_retrieve(store, query):
    """Independent linear scan: max cosine, earliest timestamp on ties."""
    best = None
    for entry in store.ltm:
        q = np.asarray(query)
        v = entry.vector
        score = float(q @ v / (np.linalg.norm(q) * np.linalg.norm(v)))
        if best is None or score > best[0] or (score == best[0] and entry.timestamp < best[1]):
            best = (score, entry.timestamp, entry)
    return best[2]


class TestCosine:
    def test_self_similarity(self):
        assert cosine_score([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_score([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        assert cosine_score([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidEntryError):
            cosine_score([0.0, 0.0], [1.0, 0.0])

    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=8),
        st.floats(0.01, 100),
        st.floats(0.01, 100),
    )
    def test_scale_invariance(self, values, a, b):
        v = np.asarray(values)
        w = v[::-1].copy()
        if np.linalg.norm(a * v) == 0 or np.linalg.norm(b * w) == 0:
            return  # denormals can underflow to a zero vector
        assert cosine_score(a * v, b * w) == pytest.approx(cosine_score(v, w), abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-170, 3e-161, 1e160, 1e200])
    def test_extreme_magnitudes(self, scale):
        # squared norms here underflow to subnormals or zero, or overflow to inf
        v = np.array([1.0, 0.0]) * scale
        w = np.array([1.0, 1.0]) * scale
        assert cosine_score(v, w) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


class TestStmAppend:
    def test_first_append(self):
        store = MemoryStore(stm_capacity=4)
        store.stm_append([1.0, 0.0], label=1)
        assert len(store.stm) == 1
        assert store.stm[0].tier == STM

    def test_fifo_eviction_promotes(self):
        store = MemoryStore(stm_capacity=2)
        for i in range(3):
            store.stm_append([1.0, float(i)], label=i)
        assert [e.label for e in store.stm] == [1, 2]
        assert [e.label for e in store.ltm] == [0]
        assert store.ltm[0].tier == LTM
        assert store.ltm[0].timestamp == 0  # original timestamp preserved

    def test_zero_vector_rejected(self):
        store = MemoryStore()
        with pytest.raises(InvalidEntryError):
            store.stm_append([0.0, 0.0], label=0)

    def test_eviction_count_matches_appends(self):
        c = 5
        store = MemoryStore(stm_capacity=c)
        for i in range(40):
            store.stm_append([1.0, float(i)], label=i)
        assert len(store.stm) == c
        assert len(store.ltm) == 40 - c

    @given(st.integers(1, 8), st.integers(0, 40))
    def test_capacity_never_exceeded(self, capacity, n):
        store = MemoryStore(stm_capacity=capacity)
        for i in range(n):
            store.stm_append([1.0, float(i + 1)], label=i)
        assert len(store.stm) <= capacity
        timestamps = [e.timestamp for e in store.stm]
        assert timestamps == sorted(timestamps)


class TestPromote:
    def test_promote_grows_ltm(self):
        store = MemoryStore()
        store.promote_to_ltm(MemoryEntry(np.array([1.0]), 0, 0, STM))
        assert len(store.ltm) == 1

    def test_no_dedup(self):
        store = MemoryStore()
        for t in (0, 1):
            store.promote_to_ltm(MemoryEntry(np.array([1.0]), 0, t, STM))
        assert len(store.ltm) == 2


class TestRetrieve:
    def test_exact_match_scores_one(self):
        store = MemoryStore()
        store.promote_to_ltm(MemoryEntry(np.array([1.0, 2.0]), 7, 0, LTM))
        store.promote_to_ltm(MemoryEntry(np.array([-2.0, 1.0]), 8, 1, LTM))
        hit = store.ltm_retrieve([1.0, 2.0])
        assert hit.label == 7
        assert cosine_score([1.0, 2.0], hit.vector) == pytest.approx(1.0)

    def test_orthogonal_pair(self):
        store = MemoryStore()
        store.promote_to_ltm(MemoryEntry(np.array([1.0, 0.0]), 0, 0, LTM))
        store.promote_to_ltm(MemoryEntry(np.array([0.0, 1.0]), 1, 1, LTM))
        assert store.ltm_retrieve([0.0, 0.5]).label == 1

    def test_tie_goes_to_earliest_timestamp(self):
        store = MemoryStore()
        store.promote_to_ltm(MemoryEntry(np.array([2.0, 0.0]), 0, 5, LTM))
        store.promote_to_ltm(MemoryEntry(np.array([1.0, 0.0]), 1, 2, LTM))
        assert store.ltm_retrieve([1.0, 0.0]).label == 1

    def test_empty_ltm(self):
        store = MemoryStore()
        with pytest.raises(EmptyMemoryError):
            store.ltm_retrieve([1.0])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 128))
    def test_matches_brute_force_scan(self, seed, n_entries):
        rng = np.random.default_rng(seed)
        store = MemoryStore()
        for t in range(n_entries):
            v = rng.normal(size=4)
            while not np.any(v):
                v = rng.normal(size=4)
            store.promote_to_ltm(MemoryEntry(v, t, t, LTM))
        for _ in range(5):
            q = rng.normal(size=4)
            if not np.any(q):
                continue
            assert store.ltm_retrieve(q) is brute_force_retrieve(store, q)


class TestReadout:
    def test_singleton_returns_vector(self):
        store = MemoryStore()
        store.promote_to_ltm(MemoryEntry(np.array([3.0, 4.0]), 0, 0, LTM))
        out = store.attention_readout([1.0, 0.0])
        assert out == pytest.approx([3.0, 4.0])

    def test_identical_entries_fixed_point(self):
        store = MemoryStore()
        for t in range(2):
            store.promote_to_ltm(MemoryEntry(np.array([1.0, 2.0]), t, t, LTM))
        assert store.attention_readout([0.5, 0.5]) == pytest.approx([1.0, 2.0])

    def test_hand_weights(self):
        store = MemoryStore()
        store.promote_to_ltm(MemoryEntry(np.array([1.0, 0.0]), 0, 0, LTM))
        store.promote_to_ltm(MemoryEntry(np.array([0.0, 1.0]), 1, 1, LTM))
        out = store.attention_readout([1.0, 0.0])
        e = math.e
        assert out == pytest.approx([e / (e + 1.0), 1.0 / (e + 1.0)], abs=1e-9)

    def test_tier_restriction(self):
        store = MemoryStore()
        store.promote_to_ltm(MemoryEntry(np.array([1.0, 0.0]), 0, 0, LTM))
        store.stm_append([0.0, 1.0], label=1)
        out = store.attention_readout([1.0, 1.0], tiers=(LTM,))
        assert out == pytest.approx([1.0, 0.0])

    def test_empty_tier_selection(self):
        store = MemoryStore()
        store.stm_append([1.0, 1.0], label=0)
        with pytest.raises(EmptyMemoryError):
            store.attention_readout([1.0, 0.0], tiers=(LTM,))

    def test_unknown_tier(self):
        store = MemoryStore()
        store.stm_append([1.0], label=0)
        with pytest.raises(ConfigError):
            store.attention_readout([1.0], tiers=("mtm",))

    def test_sparse_readout_keeps_top_n_only(self):
        store = MemoryStore(sparse_readout_top_n=2, sparse_readout_threshold=4)
        # 5 entries > threshold 4: only the two best-aligned may contribute
        vectors = [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
        for t, v in enumerate(vectors):
            store.promote_to_ltm(MemoryEntry(np.asarray(v), t, t, LTM))
        out = store.attention_readout([1.0, 0.0])
        # convex blend of [1,0] and [0.9,0.1] only
        assert 0.9 <= out[0] <= 1.0
        assert 0.0 <= out[1] <= 0.1

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40))
    def test_convexity_bounds(self, seed, n_entries):
        rng = np.random.default_rng(seed)
        store = MemoryStore()
        vectors = []
        for t in range(n_entries):
            v = rng.normal(size=3)
            while not np.any(v):
                v = rng.normal(size=3)
            vectors.append(v)
            store.promote_to_ltm(MemoryEntry(v, t, t, LTM))
        q = rng.normal(size=3)
        if not np.any(q):
            q = np.array([1.0, 0.0, 0.0])
        out = store.attention_readout(q)
        stack = np.stack(vectors)
        assert np.all(out >= stack.min(axis=0) - 1e-12)
        assert np.all(out <= stack.max(axis=0) + 1e-12)
