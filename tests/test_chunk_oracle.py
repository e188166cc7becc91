"""Chunked phase 1 against itself: the outcome columns of one survivor must
not depend on which chunk it is scored in, on the chunk size, or on the
worker count. Runs over the golden test's configs, whose outcome digests tie
the same branches to the one-record-at-a-time scorer."""

import contextlib
import dataclasses
import functools
import multiprocessing
import types

import pytest
from hypothesis import given, settings, strategies as st

from msr import pipeline
from msr.config import RunConfig
from msr.dataset import generate
from msr.ingest import filter_by_trust
from msr.pipeline import Outcomes, build_context, process_record, score_chunk, score_records

from test_golden import CONFIGS


def assert_same_columns(got, want):
    """Every column equal in dtype, shape and bytes."""
    for field in dataclasses.fields(Outcomes):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
        assert a.tobytes() == b.tobytes(), field.name


@functools.lru_cache(maxsize=None)
def scored(name):
    """(ctx, survivors, outcomes of the whole set as one chunk)."""
    cfg = RunConfig.from_mapping({"generator": {"n_per_modality": 120, "seed": 5},
                                  "seed": 5, **CONFIGS[name]})
    records = generate(cfg.generator).by_modality("auditory")
    survivors = records[filter_by_trust(records.trust, cfg.tau)]
    ctx = build_context(cfg, cfg.generator, "auditory", survivors)
    return ctx, survivors, score_chunk(ctx, survivors)


def test_sparse_config_takes_the_sparse_readout():
    ctx, _, _ = scored("sparse-readout")
    assert len(ctx.prototypes) > ctx.cfg.sparse_readout_threshold


@pytest.mark.parametrize("name", sorted(CONFIGS))
@settings(max_examples=15, deadline=None)
@given(sizes=st.lists(st.integers(1, 25), min_size=1, max_size=12))
def test_any_split_gives_the_same_outcomes(name, sizes):
    ctx, survivors, whole = scored(name)
    parts, lo, i = [], 0, 0
    while lo < len(survivors):
        hi = lo + sizes[i % len(sizes)]
        parts.append(score_chunk(ctx, survivors[lo:hi]))
        lo, i = hi, i + 1
    assert_same_columns(Outcomes.concat(parts), whole)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_one_record_at_a_time(name):
    ctx, survivors, whole = scored(name)
    assert_same_columns(Outcomes.concat([process_record(ctx, survivors, row)
                                         for row in range(len(survivors))]), whole)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["default", "swap-randomized", "sparse-readout"])
def test_worker_counts(monkeypatch, name, workers):
    ctx, survivors, whole = scored(name)
    monkeypatch.setattr(pipeline, "chunk_records", lambda grid: 7)
    assert_same_columns(score_records(ctx, survivors, workers), whole)


def test_pool_is_no_larger_than_the_chunk_count(monkeypatch):
    # an in-process stand-in for multiprocessing.Pool: no process starts
    opened = []

    @contextlib.contextmanager
    def pool(processes):
        opened.append(processes)
        yield types.SimpleNamespace(map=lambda fn, items: list(map(fn, items)))

    ctx, survivors, _ = scored("default")
    monkeypatch.setattr(pipeline, "chunk_records", lambda grid: 16)
    one_worker = score_records(ctx, survivors, 1)
    monkeypatch.setattr(multiprocessing, "Pool", pool)
    got = score_records(ctx, survivors, 10_000)
    assert opened == [-(-len(survivors) // 16)] and opened[0] > 1
    assert_same_columns(got, one_worker)


# (grid config, survivors per chunk): about 64,000 solver value cells of
# n_states * (horizon + 1) per record, and at least 128 records
@pytest.mark.parametrize("grid, size", [
    ({}, 512),                                 # 5x5, horizon 4: 125 cells
    (CONFIGS["grid-7x6"]["grid"], 217),        # 7x6, horizon 6: 294 cells
    ({"width": 21, "height": 21, "start": [10, 10], "horizon": 20}, 128),  # 9,261 cells
])
def test_chunk_length_follows_the_solver_cells(grid, size):
    assert pipeline.chunk_records(RunConfig.from_mapping({"grid": grid}).grid) == size
