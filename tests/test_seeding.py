"""Counter-based keyed streams: known answers against a plain-integer
SplitMix64, range, uniformity, and independence of each row from the rest
of the call."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from msr import seeding
from msr.seeding import keyed_uniforms

MASK = 2 ** 64 - 1
GOLDEN = 0x9E3779B97F4A7C15
MAX_SEED = 2 ** 64 - 1


def mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def reference_bits(seed, purpose, modality, rid, j):
    """Output j of the SplitMix64 stream seeded with the record's key."""
    key = seed
    for part in (purpose, modality, rid):
        key = mix(key ^ ((part + GOLDEN) & MASK))
    return mix((key + (j + 1) * GOLDEN) & MASK)


def test_splitmix64_reference_vector():
    # first outputs of SplitMix64 seeded with 1234567, the published test vector
    outputs = [mix((1234567 + j * GOLDEN) & MASK) for j in range(1, 4)]
    assert outputs == [6457827717110365317, 3203168211198807973, 9817491932198370423]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, MAX_SEED), purpose=st.integers(0, 4),
       modality=st.integers(0, 2),
       ids=st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=8),
       n=st.integers(1, 12))
def test_known_answers(seed, purpose, modality, ids, n):
    got = keyed_uniforms(seed, purpose, modality, ids, n)
    want = [[(reference_bits(seed, purpose, modality, rid, j) >> 11) * 2.0 ** -53
             for j in range(n)] for rid in ids]
    assert got.tolist() == want
    got_open = keyed_uniforms(seed, purpose, modality, ids, n, open_interval=True)
    want_open = [[((reference_bits(seed, purpose, modality, rid, j) >> 12) + 0.5) * 2.0 ** -52
                  for j in range(n)] for rid in ids]
    assert got_open.tolist() == want_open


@pytest.mark.parametrize("block", [1, 12, 13, 40])
def test_known_answers_across_mixing_blocks(monkeypatch, block):
    # the rows are mixed a block at a time: a block of at least one row, and
    # a last block that is short
    monkeypatch.setattr(seeding, "_BLOCK", block)
    ids = list(range(0, 700, 7))
    got = keyed_uniforms(9, 1, 2, ids, 13)
    got_open = keyed_uniforms(9, 1, 2, ids, 13, open_interval=True)
    bits = [[reference_bits(9, 1, 2, rid, j) for j in range(13)] for rid in ids]
    assert got.tolist() == [[(b >> 11) * 2.0 ** -53 for b in row] for row in bits]
    assert got_open.tolist() == [[((b >> 12) + 0.5) * 2.0 ** -52 for b in row] for row in bits]


def test_no_runtime_warning_at_the_largest_seed():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ids in ([0], [2 ** 63 - 1], np.arange(50)):
            keyed_uniforms(MAX_SEED, 4, 2, ids, 7)
            keyed_uniforms(MAX_SEED, 4, 2, ids, 7, open_interval=True)


def test_ranges():
    u = keyed_uniforms(3, 0, 1, np.arange(20_000), 5)
    assert u.shape == (20_000, 5) and u.dtype == np.float64
    assert u.min() >= 0.0 and u.max() < 1.0
    o = keyed_uniforms(3, 0, 1, np.arange(20_000), 5, open_interval=True)
    assert o.min() > 0.0 and o.max() < 1.0


def test_uniform_by_kolmogorov_smirnov():
    u = keyed_uniforms(42, 1, 0, np.arange(10_000), 10).ravel()
    assert u.size == 100_000
    assert stats.kstest(u, "uniform").pvalue > 1e-3
    # across records at one draw index too, where only the key varies
    column = keyed_uniforms(42, 1, 0, np.arange(100_000), 1)[:, 0]
    assert stats.kstest(column, "uniform").pvalue > 1e-3


@settings(max_examples=40, deadline=None)
@given(ids=st.lists(st.integers(0, 10 ** 6), min_size=2, max_size=30, unique=True),
       data=st.data())
def test_row_independent_of_the_other_ids(ids, data):
    whole = keyed_uniforms(11, 3, 1, ids, 4)
    subset = data.draw(st.lists(st.sampled_from(range(len(ids))), min_size=1, unique=True))
    part = keyed_uniforms(11, 3, 1, [ids[i] for i in subset], 4)
    assert part.tolist() == whole[subset].tolist()


def test_keys_separate_streams():
    base = keyed_uniforms(5, 1, 0, [7], 16)
    for other in (keyed_uniforms(6, 1, 0, [7], 16), keyed_uniforms(5, 2, 0, [7], 16),
                  keyed_uniforms(5, 1, 1, [7], 16), keyed_uniforms(5, 1, 0, [8], 16)):
        assert not np.array_equal(base, other)
    # fewer draws are a prefix of more
    assert keyed_uniforms(5, 1, 0, [7], 4).tolist() == base[:, :4].tolist()
