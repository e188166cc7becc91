"""Bit-for-bit oracles for the array fast paths of phase 1, alignment, the
memory store, the trace writer and the dataset writer, for `load` against
json.load and the record rules, for msr.numtext against repr and str and
its reader against float and int, and for msr.special against
scipy.special and libm.
Each fast path claims exact equality with a slower reference, so each test
compares bytes, not tolerances. CI reruns this file with
`--hypothesis-profile=ci` (tests/conftest.py) for a longer search."""

from dataclasses import replace
import decimal
import functools
import json
import math
import os
import tempfile
from types import SimpleNamespace
from unittest import mock

from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
import numpy as np
import pytest
from scipy import special as scipy_special

from msr import numtext, pipeline, seeding, special
from msr.config import GridSpec, RunConfig
from msr.dataset import (
    MODALITIES,
    RECORD_FIELDS,
    Columns,
    Dataset,
    GeneratorConfig,
    generate,
    load,
    save,
)
from msr.decision import feedback_means
from msr.errors import DegenerateModalityError, MsrError, ParseError
from msr.ingest import NormStats, fit_norm_stats
from msr.memory import (
    LTM,
    MemoryEntry,
    MemoryStore,
    cosine_score,
    readout_rows,
    retrieve_rows,
)
from msr.rounding import round_half_away
from msr.scenario import scenario_utilities, semantic_features
from msr.sim2real import (
    ACTIONS,
    EnvBatch,
    RandomizationConfig,
    SolvedBatch,
    next_state_table,
    optimize_policy,
    randomize_batch,
    randomize_env,
    refine_policy,
    reward_discrepancy,
    reward_table,
    rollout,
    rollout_batch,
    solve,
    solve_batch,
)


def _result(fn, values):
    """The bytes fn returns, or the type of what it raises."""
    try:
        return np.asarray(fn(values), dtype=float).tobytes()
    except (ArithmeticError, ValueError) as exc:  # the oracle compares failures too
        return type(exc)


def _rounded(values):
    return [round_half_away(x, 2) for x in np.ravel(values).tolist()]


def _fsum_rows(values):
    a = np.asarray(values, dtype=float)
    return [math.fsum(row) for row in a.reshape(-1, a.shape[-1]).tolist()]


def _same_rounding(values):
    u = np.asarray(values, dtype=float)
    assert _result(semantic_features, u) == _result(_rounded, u)


def _norm_stats(fit, values):
    """The bytes of fit(values)'s (mean, std), or the type of what it raises."""
    try:
        stats = fit(values)
    except MsrError as exc:
        return type(exc)
    return np.array([stats.mean, stats.std]).tobytes()


def _per_element_norm_stats(values):
    """fit_norm_stats one element at a time: fsum over numpy scalars and each
    deviation squared by the scalar `** 2`."""
    v = np.asarray(values, dtype=float)
    try:
        mean = math.fsum(v) / v.size
        with np.errstate(over="ignore"):
            var = math.fsum((x - mean) ** 2 for x in v) / v.size
    except OverflowError:
        var = math.inf
    if var == math.inf or var == 0.0:
        raise DegenerateModalityError(var)
    return NormStats(mean=mean, std=math.sqrt(var))


class TestFitNormStats:
    @given(hnp.arrays(np.float64, st.integers(2, 64), elements=st.one_of(
        st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 1.0, 1.7e308, -1.7e308]))))
    # a deviation whose vector square (x * x) moves the std by one ulp
    @example(np.array([2.23031011746327, -0.2966170059539525]))
    def test_any_finite_values(self, values):
        assert (_norm_stats(fit_norm_stats, values)
                == _norm_stats(_per_element_norm_stats, values))

    def test_many_small_samples(self):
        # the vector square moves the std of 2 of these rows by one ulp
        for v in np.random.default_rng(8).normal(0.3, 1.7, (2_000, 3)):
            assert (_norm_stats(fit_norm_stats, v)
                    == _norm_stats(_per_element_norm_stats, v))


class TestSemanticFeatures:
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.just(2)),
                      elements=st.floats(width=64)))
    def test_any_float(self, values):
        _same_rounding(values)

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1e-4, 1e-2, 1.0, 10.0, 1e3, 1e5, 1e6]))
    def test_normals(self, seed, scale):
        _same_rounding(np.random.default_rng(seed).normal(0.0, scale, size=(64, 2)))

    @given(st.integers(-10 ** 9, 10 ** 9))
    def test_tie_and_neighbours(self, k):
        tie = (k + 0.5) / 100
        _same_rounding([tie, np.nextafter(tie, -np.inf), np.nextafter(tie, np.inf)])

    def test_every_small_tie(self):
        ties = (np.arange(-20_000, 20_000) + 0.5) / 100
        _same_rounding(np.stack([ties, np.nextafter(ties, -np.inf), np.nextafter(ties, np.inf)]))

    def test_signed_zero_huge_and_nan(self):
        values = [0.0, -0.0, 1e-320, -1e-320, 0.004999, -0.005, 999_999.995, 1e6, -1e6,
                  1e6 + 0.125, 3.5e15, -1e20, math.nan]
        _same_rounding(values)
        out = semantic_features(values)
        assert math.copysign(1.0, out[1]) == -1.0 and math.isnan(out[-1])

    @pytest.mark.parametrize("huge", [math.inf, -math.inf, 1e30])
    def test_values_past_2_52_come_back_unchanged(self, huge):
        # Decimal.quantize used to fail on these (over 28 significant digits)
        values = [0.5, huge]
        assert _result(semantic_features, values) == _result(_rounded, values) == \
            np.asarray(values).tobytes()

    @given(st.floats(2.0 ** 52, 1e20), st.booleans(), st.integers(0, 6))
    def test_values_from_2_52_to_1e20_round_as_before(self, x, negative, digits):
        # the Decimal arithmetic round_half_away ran on these before it
        # returned them unchanged
        x = -x if negative else x
        q = decimal.Decimal(1).scaleb(-digits)
        before = float(decimal.Decimal(repr(x)).quantize(q, rounding=decimal.ROUND_HALF_UP))
        assert round_half_away(x, digits) == before == x


class TestScenarioUtilities:
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5), st.just(2)),
                      elements=st.floats(width=64)))
    def test_any_float(self, values):
        assert _result(scenario_utilities, values) == _result(_fsum_rows, values)

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5), st.just(2)),
                      elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e308, -1e308,
                                                math.inf, -math.inf])))
    def test_signed_zeros_and_overflow(self, values):
        assert _result(scenario_utilities, values) == _result(_fsum_rows, values)

    @pytest.mark.parametrize("pair,error", [((1e308, 1e308), OverflowError),
                                            ((math.inf, -math.inf), ValueError)])
    def test_fsum_errors(self, pair, error):
        values = np.zeros((3, 4, 2))
        values[1, 2] = pair
        with pytest.raises(error):
            scenario_utilities(values)

    def test_negative_zero_sum_is_positive(self):
        out = scenario_utilities(np.full((2, 3, 2), -0.0))
        assert out.tobytes() == np.zeros((2, 3)).tobytes()


def _stepwise_rollout(env, policy, u):
    """The per-step greedy walk over one GridEnv's tables, one step at a time:
    step t slips when u[2t] < slip_prob, to the move at index floor(3 * u[2t+1])
    of the other three in ascending order, the pick rng.choice made over that
    list."""
    nxt, rewards = next_state_table(env), reward_table(env)
    goal, s = env.state_index(env.goal), env.state_index(env.start)
    steps = []
    for t, h in enumerate(range(env.horizon, 0, -1)):
        x, y = s % env.width, s // env.width
        a = policy.action((x, y), h)
        move = a
        if u[2 * t] < env.slip_prob:
            move = [b for b in range(4) if b != a][math.floor(3 * u[2 * t + 1])]
        steps.append(((x, y), a, float(rewards[s, move])))
        s = int(nxt[s, move])
        if s == goal:
            break
    return tuple(steps)


def _row_steps(walk, width, row):
    """Row `row` of a batched rollout as `rollout` returns it; its taken steps
    must come first."""
    *columns, taken = walk
    k = int(taken[row].sum())
    assert taken[row, :k].all()
    return tuple(((s % width, s // width), a, r) for s, a, r in
                 zip(*(column[row, :k].tolist() for column in columns)))


LAYOUTS = {
    "5x5": GridSpec(slip_prob=0.2),
    "7x6": GridSpec(width=7, height=6, start=(3, 3), horizon=6, slip_prob=0.3),
}
SWAPPED = RandomizationConfig(
    continuous={"slip_prob": (0.1, 0.05), "goal_reward": (0.0, 1.0), "step_reward": (0.0, 0.05)},
    variants={"keep": 0.5, "swap_start_goal": 0.5})


# every randomizable parameter, mu and sigma up to 1e308, and every variant mix
SPECS = st.builds(
    RandomizationConfig,
    continuous=st.dictionaries(st.sampled_from(("goal_reward", "slip_prob", "step_reward")),
                               st.tuples(st.floats(-1e308, 1e308), st.floats(0.0, 1e308))),
    variants=st.floats(0.0, 1.0).map(lambda p: {"keep": p, "swap_start_goal": 1.0 - p})
    | st.sampled_from([{"keep": 1.0}, {"swap_start_goal": 1.0}]))


@given(SPECS, st.sampled_from(sorted(LAYOUTS)), st.data())
@settings(deadline=None)
def test_randomized_batch_keeps_slip_and_cells_in_range(spec, layout, data):
    """`GridEnv`'s checks hold on every row `randomize_batch` makes from
    checked bases: slip_prob in [0, 0.95] (never NaN), start and goal distinct
    and inside the grid."""
    directions = data.draw(hnp.arrays(np.int64, 8, elements=st.integers(0, 3)))
    draws = data.draw(hnp.arrays(np.float64, (8, len(spec.continuous) + 1), elements=st.floats(
        0.0, 1.0, exclude_min=True, exclude_max=True)))
    bases = EnvBatch.of([sim for sim, _ in LAYOUTS[layout].envs()]).take(directions)
    with np.errstate(over="ignore"):  # a reward may reach +-inf
        envs = randomize_batch(bases, spec, draws)
    assert ((envs.slip_prob >= 0.0) & (envs.slip_prob <= 0.95)).all()
    n_states = envs.width * envs.height
    for cells in (envs.start, envs.goal):
        assert ((cells >= 0) & (cells < n_states)).all()
    assert (envs.start != envs.goal).all()


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(sorted(LAYOUTS)), st.data())
@settings(deadline=None)
def test_table_rollout_matches_stepwise_rollout(seed, layout, data):
    gamma, alpha, n = 0.9, 0.5, 8
    pairs = LAYOUTS[layout].envs()
    directions = np.random.default_rng(seed).integers(0, 4, size=n)
    draws = seeding.keyed_uniforms(seed, seeding.ENV_RANDOMIZATION, 0, np.arange(n),
                                   len(SWAPPED.continuous) + 1, open_interval=True)
    sim = randomize_batch(EnvBatch.of([s for s, _ in pairs]).take(directions), SWAPPED, draws)
    real = EnvBatch.of([r for _, r in pairs]).take(directions)
    horizon, width = sim.horizon, sim.width
    sim_solved = solve(sim, gamma)
    real_solved = solve(real, gamma,
                        plan=lambda r: r + alpha * reward_discrepancy(r, sim_solved.rewards))
    # both rollouts of a record read its row of uniforms; some equal the
    # real env's slip_prob, which does not slip
    uniforms = data.draw(hnp.arrays(np.float64, (n, 2 * horizon), elements=st.one_of(
        st.floats(0.0, 1.0, exclude_max=True), st.just(real.slip_prob[0]))))
    walks = [rollout_batch(sim_solved, uniforms), rollout_batch(real_solved, uniforms)]
    for row, direction in enumerate(directions.tolist()):
        sim_base, real_env = pairs[direction]
        sim_env = randomize_env(sim_base, SWAPPED, draws[row])
        policy = optimize_policy(sim_env, gamma)
        refined = refine_policy(
            real_env, reward_discrepancy(reward_table(real_env), reward_table(sim_env)),
            alpha, gamma)
        expected = [_stepwise_rollout(sim_env, policy, uniforms[row]),
                    _stepwise_rollout(real_env, refined, uniforms[row])]
        batched = [_row_steps(walk, width, row) for walk in walks]
        single = [rollout(policy, uniforms[row]), rollout(refined, uniforms[row])]
        one_row = SolvedBatch(sim.take([row]), *(table[row:row + 1] for table in sim_solved[1:]))
        alone = _row_steps(rollout_batch(one_row, uniforms[row:row + 1]), width, 0)
        assert repr(batched) == repr(expected) == repr(single)
        assert repr(alone) == repr(single[0])


def _take_along_axis_solve(nxt, rewards, slip_probs, horizon, gamma):
    """`solve_batch` as it was before its flat gathers: take_along_axis for
    the successor values and for the chosen q, over a transposed slip mix."""
    n_env, n = rewards.shape[:2]
    p = np.asarray(slip_probs, dtype=float)
    mix = np.empty((n_env, 4, 4))
    mix[:] = (p / 3.0)[:, None, None]
    mix[:, np.arange(4), np.arange(4)] = (1.0 - p)[:, None]
    mix_t = np.swapaxes(mix, 1, 2)
    flat_nxt = nxt.reshape(n_env, -1)
    actions = np.empty((n_env, horizon, n), dtype=np.int64)
    values = np.zeros((n_env, horizon + 1, n), dtype=float)
    v = values[:, 0]
    for h in range(1, horizon + 1):
        future = np.take_along_axis(v, flat_nxt, axis=1).reshape(nxt.shape)
        q = (rewards + gamma * future) @ mix_t
        best = np.argmax(q, axis=2)
        actions[:, h - 1] = best
        v = np.take_along_axis(q, best[..., None], axis=2)[..., 0]
        values[:, h] = v
    return actions, values


def _per_cell_next_table(width, height, goal):
    """`EnvBatch.tables`' move table as it was before its array arithmetic:
    a loop over every cell and move, off-grid moves kept in place."""
    nxt = np.empty((width * height, 4), dtype=np.int64)
    for y in range(height):
        for x in range(width):
            for a, (dx, dy) in enumerate(((0, -1), (0, 1), (-1, 0), (1, 0))):
                nx, ny = x + dx, y + dy
                if not (0 <= nx < width and 0 <= ny < height):
                    nx, ny = x, y
                nxt[y * width + x, a] = ny * width + nx
    nxt[goal, :] = goal
    return nxt


@given(width=st.integers(1, 9), height=st.integers(1, 9), data=st.data())
@settings(deadline=None)
def test_array_move_table_equals_the_per_cell_loop(width, height, data):
    goals = data.draw(hnp.arrays(np.int64, st.integers(1, 40),
                                 elements=st.integers(0, width * height - 1)))
    zeros = np.zeros(len(goals))
    envs = EnvBatch(width=width, height=height, horizon=1, start=np.zeros_like(goals),
                    goal=goals, step_reward=zeros, goal_reward=zeros, slip_prob=zeros)
    nxt, _ = envs.tables()
    want = np.stack([_per_cell_next_table(width, height, g) for g in goals.tolist()])
    assert (nxt.dtype, nxt.shape) == (want.dtype, want.shape)
    assert nxt.tobytes() == want.tobytes()


# slip 0 leaves many ties for the first-maximum rule; signed zeros and values
# that are not finite must come out of the flat gathers as they went in
@given(layout=st.sampled_from(sorted(LAYOUTS)), n=st.integers(1, 600),
       seed=st.integers(0, 2 ** 32 - 1), slippery=st.booleans(),
       gamma=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
       poison=st.sampled_from([None, math.inf, -math.inf, math.nan, 0.0, -0.0]),
       data=st.data())
@settings(deadline=None)
def test_flat_gather_solver_equals_take_along_axis(layout, n, seed, slippery, gamma, poison,
                                                    data):
    grid = replace(LAYOUTS[layout], slip_prob=0.0)
    continuous = {"goal_reward": (0.0, 1.0), "step_reward": (0.0, 0.05)}
    if slippery:
        continuous["slip_prob"] = (0.1, 0.05)
    spec = RandomizationConfig(continuous=continuous,
                               variants={"keep": 0.5, "swap_start_goal": 0.5})
    directions = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 3)))
    draws = seeding.keyed_uniforms(seed, seeding.ENV_RANDOMIZATION, 0, np.arange(n),
                                   len(continuous) + 1, open_interval=True)
    envs = randomize_batch(EnvBatch.of([sim for sim, _ in grid.envs()]).take(directions),
                           spec, draws)
    nxt, rewards = envs.tables()
    if poison is not None:
        cells = data.draw(st.lists(st.integers(0, rewards.size - 1), min_size=1, max_size=8))
        rewards.flat[cells] = poison
    with np.errstate(all="ignore"):
        got = solve_batch(nxt, rewards, envs.slip_prob, grid.horizon, gamma)
        want = _take_along_axis_solve(nxt, rewards, envs.slip_prob, grid.horizon, gamma)
    for a, b in zip(got, want):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


@st.composite
def memory_tables(draw, sparse):
    """(entries, timestamps, queries, top_n, threshold): a (K, d) entry table
    whose rows repeat, so cosines tie, its distinct timestamps in ascending
    order, (N, d) queries, and a readout threshold below K when `sparse`."""
    d = draw(st.integers(1, 4))
    vector = hnp.arrays(np.float64, d, elements=st.integers(-3, 3).map(float)).filter(np.any)
    pool = draw(st.lists(vector, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=10))
    entries = np.stack([pool[i] for i in picks])
    timestamps = sorted(draw(st.lists(st.integers(0, 1000), min_size=len(picks),
                                      max_size=len(picks), unique=True)))
    queries = np.stack(draw(st.lists(vector, min_size=1, max_size=6)))
    top_n = draw(st.integers(1, len(picks) + 1))
    threshold = draw(st.integers(0, len(picks) - 1) if sparse
                     else st.integers(len(picks), len(picks) + 3))
    return entries, timestamps, queries, top_n, threshold


@pytest.mark.parametrize("sparse", [False, True])
@settings(deadline=None)
@given(data=st.data())
def test_memory_store_equals_the_table_functions(sparse, data):
    entries, timestamps, queries, top_n, threshold = data.draw(memory_tables(sparse))
    store = MemoryStore(sparse_readout_top_n=top_n, sparse_readout_threshold=threshold)
    for row in data.draw(st.permutations(range(len(entries)))):
        store.promote_to_ltm(MemoryEntry(entries[row], row, timestamps[row], LTM))
    labels = [store.ltm_retrieve(q).label for q in queries]
    assert labels == retrieve_rows(entries, queries).tolist()
    # the first maximum in timestamp order, as a scan of the entries finds it
    assert labels == [max(range(len(entries)), key=lambda row: cosine_score(q, entries[row]))
                      for q in queries]
    readout = np.stack([store.attention_readout(q) for q in queries])
    assert readout.tobytes() == readout_rows(entries, queries, top_n, threshold).tobytes()


SMALL = GeneratorConfig(n_per_modality=60, seed=5)


def _trace_config(tmp_path):
    return RunConfig(generator=SMALL, seed=5, out_dir=str(tmp_path), randomization=SWAPPED,
                     grid=GridSpec(slip_prob=0.2))


def test_trace_lines_are_canonical_json(tmp_path):
    result = pipeline.execute_run(_trace_config(tmp_path))
    with open(result.trace_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 3 * SMALL.n_per_modality
    assert any('"kept":false' in line for line in lines)
    for line in lines:
        assert json.dumps(json.loads(line), separators=(",", ":"), allow_nan=False) == line


def _json_lines(res, ids, trust, matched, feedback, adjusted):
    """Trace lines as json.dumps of one dict per record, keyed by id, for the
    modality's records of `ids` and `trust`, with these phase-2 columns."""
    out = res.outcomes
    kept = dict(zip(out.record_id.tolist(), range(len(out.record_id))))
    columns = {
        "semantic": out.semantic, "relevance_mass": out.relevance_mass,
        "own_in_topk": out.own_in_topk, "retrieved_label": out.retrieved_label,
        "decision": out.decision_id,
        "subtask": np.asarray([f"move-{a}" for a in ACTIONS])[out.decision_id],
        "sim_first_action": out.sim_first_action, "action": out.policy_action,
        "confidence": out.confidence, "matched": matched, "outcome": matched.astype(float),
        "feedback_mean": feedback, "adjusted_utility": adjusted,
    }
    values = {name: column.tolist() for name, column in columns.items()}
    lines = {}
    for rid, value in zip(ids, trust):
        line = {"id": rid, "modality": res.modality, "trust": value, "kept": rid in kept}
        if rid in kept:
            i = kept[rid]
            line.update({name: column[i] for name, column in values.items()})
            line["steps"] = {"s2": bool(out.pred_step2[i]), "s3": bool(out.pred_step3[i]),
                             "s4": line["retrieved_label"], "s5": line["decision"],
                             "s6": line["action"], "s7": line["action"]}
        lines[rid] = json.dumps(line, separators=(",", ":"), allow_nan=False)
    return lines


def _dict_lines(cfg, res, records):
    """Trace lines as json.dumps of one dict per record, as the writer made
    them before it formatted lines from the outcome columns, with the phase-2
    columns computed again from the records."""
    out = res.outcomes
    kept = set(out.record_id.tolist())
    action = np.asarray([r.action for r in records if r.id in kept])
    matched = out.policy_action == action
    feedback = feedback_means(out.decision_id, matched.astype(float))
    return _json_lines(res, [r.id for r in records], [r.trust for r in records], matched,
                       feedback, out.predicted_outcome + cfg.lambda_feedback * feedback)


@pytest.mark.parametrize("modality", MODALITIES)
def test_trace_lines_equal_json_dumps_of_a_dict(tmp_path, modality):
    cfg = _trace_config(tmp_path)
    data = generate(SMALL)
    rows = data.by_modality(modality)
    res = pipeline.run_modality(cfg, SMALL, modality, rows, 1)
    lines = b"".join(pipeline.trace_blocks(data, [res])).decode("utf-8").splitlines()
    records = [r for r in data.records if r.modality == modality]
    ids = rows.ids.tolist()
    assert ids == [r.id for r in records] and len(lines) == len(ids)
    assert dict(zip(ids, lines)) == _dict_lines(cfg, res, records)


def _interleaved(tmp_path):
    """SMALL's records saved in a shuffled order with ids 0..n-1, and loaded:
    the modalities interleave in no pattern."""
    data = generate(SMALL)
    order = np.random.default_rng(3).permutation(len(data.modality))
    table = data.table[order]
    shuffled = Dataset(meta=data.meta, modality=data.modality[order],
                       table=replace(table, ids=np.arange(len(order), dtype=np.uint64)))
    path = os.path.join(tmp_path, "interleaved.json")
    save(shuffled, path)
    return load(path)


# (dataset, modalities that run, workers); two workers score chunks of 16
# survivors in a pool
MERGE_CASES = [("generated", MODALITIES, 1), ("interleaved", MODALITIES, 1),
               ("interleaved", ("auditory",), 1), ("generated", ("visual", "tactile"), 1),
               ("interleaved", ("visual", "tactile"), 2), ("generated", MODALITIES, 2)]


@pytest.mark.parametrize("block", [1, 7, pipeline.SAVE_BLOCK])
@pytest.mark.parametrize("source, modalities, workers", MERGE_CASES)
def test_block_merge_equals_the_dict_oracle(tmp_path, monkeypatch, block, source, modalities,
                                            workers):
    data = generate(SMALL) if source == "generated" else _interleaved(tmp_path)
    if source == "interleaved":
        owner = data.modality.tolist()
        assert owner != sorted(owner) and data.table.ids.tolist() == list(range(len(owner)))
    monkeypatch.setattr(pipeline, "SAVE_BLOCK", block)
    monkeypatch.setattr(pipeline, "chunk_records", lambda grid: 16)
    run_modality, results = pipeline.run_modality, []

    def recorded(*args):
        results.append(run_modality(*args))
        return results[-1]

    monkeypatch.setattr(pipeline, "run_modality", recorded)
    cfg = replace(_trace_config(tmp_path / "out"), modalities=modalities, workers=workers)
    trace = pipeline.execute_run(cfg, data).trace_path
    expected = {}
    for res in results:
        expected |= _dict_lines(cfg, res, [r for r in data.records if r.modality == res.modality])
    with open(trace, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert [r.modality for r in results] == [m for m in MODALITIES if m in modalities]
    assert lines == [expected[r.id] for r in data.records if r.modality in modalities]


@pytest.mark.parametrize("column", ["semantic", "relevance_mass", "confidence",
                                    "predicted_outcome", "trust"])
def test_non_finite_trace_value_is_rejected(tmp_path, monkeypatch, column):
    cfg = _trace_config(tmp_path)
    records = generate(SMALL).by_modality("visual")
    if column == "trust":
        # a record the trust filter drops still gets a trace line
        trust = records.trust.copy()
        trust[0] = math.nan
        records = replace(records, trust=trust)
    else:
        score = pipeline.score_records

        def poisoned(*args):
            out = score(*args)
            values = getattr(out, column).copy()
            values.flat[-1] = math.nan
            return replace(out, **{column: values})

        monkeypatch.setattr(pipeline, "score_records", poisoned)
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        pipeline.run_modality(cfg, SMALL, "visual", records, 1)


FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e-07, 1.0, -3.0, 1e16,
                                    2.0 ** 53, 1.7976931348623157e308]))


@st.composite
def column_datasets(draw, elements=FLOATS):
    """A Dataset of arbitrary columns: ids strictly increasing anywhere in
    [0, 2**64), each record in a drawn modality, so modalities interleave."""
    n = draw(st.integers(1, 9))
    dim = draw(st.integers(1, 5))
    ids = sorted(draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=n, max_size=n,
                               unique=True)))
    owner = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    table = Columns(
        ids=np.array(ids, dtype=np.uint64),
        features=draw(hnp.arrays(np.float64, (n, dim), elements=elements)),
        trust=draw(hnp.arrays(np.float64, n, elements=elements)),
        valid=draw(hnp.arrays(bool, n)), relevant=draw(hnp.arrays(bool, n)),
        action=draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2 ** 63 - 1))),
        mem_label=draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2 ** 63 - 1))))
    meta = {"schema_version": 1, "note": [draw(FLOATS), "\u00e9"]}
    return Dataset(meta=meta, table=table, modality=owner.astype(np.int8))


@st.composite
def trace_cases(draw):
    """A dataset of arbitrary columns and a ModalityResult of arbitrary
    columns for each of a drawn set of its modalities: kept masks that keep
    none, all or some of its rows, and a semantic column of few values that
    holds 0.0 and -0.0 together."""
    data = draw(column_datasets())
    ints = functools.partial(hnp.arrays, np.int64)
    results = []
    for index, modality in enumerate(MODALITIES):
        mine = data.modality == index
        if not draw(st.booleans()):
            continue
        n = int(np.count_nonzero(mine))
        kept = draw(st.one_of(st.just(np.zeros(n, bool)), st.just(np.ones(n, bool)),
                              hnp.arrays(bool, n)))
        c = int(np.count_nonzero(kept))
        semantic = st.sampled_from(draw(st.lists(FLOATS, max_size=3)) + [0.0, -0.0])
        big, moves = st.integers(0, 2 ** 63 - 1), st.integers(0, len(ACTIONS) - 1)
        floats = hnp.arrays(np.float64, c, elements=FLOATS)
        flags = hnp.arrays(bool, c)
        outcomes = pipeline.Outcomes(
            record_id=data.table.ids[mine][kept],
            semantic=draw(hnp.arrays(np.float64, (c, 2), elements=semantic)),
            own_in_topk=draw(ints(c, elements=big)), relevance_mass=draw(floats),
            pred_step2=draw(flags), pred_step3=draw(flags),
            retrieved_label=draw(ints(c, elements=big)), readout_cosine=np.zeros(c),
            refined_attributes=np.zeros((c, 2)), refined_utility=np.zeros(c),
            decision_id=draw(ints(c, elements=moves)), predicted_outcome=np.zeros(c),
            sim_first_action=draw(ints(c, elements=big)),
            policy_action=draw(ints(c, elements=big)), confidence=draw(floats))
        results.append(pipeline.ModalityResult(
            modality=modality, confusions={}, outcomes=outcomes,
            context=SimpleNamespace(modality_index=index), kept=kept, matched=draw(flags),
            feedback=draw(floats), adjusted=draw(floats)))
    return data, results


# steps of the writer of few floats: one line a step, or a few lines
@given(case=trace_cases(), block=st.sampled_from([1, 7, pipeline.SAVE_BLOCK]),
       cells=st.sampled_from([1, 9, pipeline._TRACE_CELLS]))
@settings(deadline=None)
def test_trace_of_arbitrary_columns_equals_the_dict_oracle(case, block, cells):
    data, results = case
    expected = {}
    for res in results:
        mine = data.modality == MODALITIES.index(res.modality)
        expected |= _json_lines(res, data.table.ids[mine].tolist(),
                                data.table.trust[mine].tolist(), res.matched, res.feedback,
                                res.adjusted)
    with mock.patch.object(pipeline, "SAVE_BLOCK", block), \
            mock.patch.object(pipeline, "_TRACE_CELLS", cells):
        text = b"".join(pipeline.trace_blocks(data, results)).decode("utf-8")
    assert text.splitlines() == [expected[rid] for rid in data.table.ids.tolist()
                                 if rid in expected]
    assert text.endswith("\n") or not text


def _saved(dataset):
    """The bytes `save` writes, or the type and text of what it raises."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.json")
        try:
            save(dataset, path)
        except ValueError as exc:
            return type(exc), str(exc), os.listdir(tmp)
        with open(path, "rb") as fh:
            return fh.read()


def _dumped(dataset):
    """json.dumps of the payload, one dict per record in id order, or the
    type and text of what it raises and an empty directory."""
    rows = sorted(
        ({"id": rid, "modality": MODALITIES[k], "features": feats, "trust": trust,
          "valid": valid, "relevant": relevant, "action": action, "mem_label": mem}
         for k, rid, feats, trust, valid, relevant, action, mem in zip(
             dataset.modality.tolist(), *(column.tolist() for column in dataset.table.arrays()))),
        key=lambda row: row["id"])
    try:
        text = json.dumps({"meta": dataset.meta, "records": rows}, separators=(",", ":"),
                          allow_nan=False)
    except ValueError as exc:
        return type(exc), str(exc), []
    return (text + "\n").encode("utf-8")


@given(column_datasets())
@settings(deadline=None)
def test_saved_bytes_equal_json_dumps(dataset):
    assert _saved(dataset) == _dumped(dataset)


@given(column_datasets(elements=st.one_of(FLOATS, st.sampled_from([math.nan, math.inf,
                                                                    -math.inf]))))
@settings(deadline=None)
def test_non_finite_values_raise_what_json_dumps_raises(dataset):
    assert _saved(dataset) == _dumped(dataset)


def test_non_finite_feature_is_rejected():
    data = generate(GeneratorConfig(n_per_modality=2, seed=1))
    auditory = np.flatnonzero(data.modality == MODALITIES.index("auditory"))
    data.table.features[auditory[1], 3] = math.nan
    assert _saved(data) == _dumped(data)
    assert _saved(data)[:2] == (ValueError, "Out of range float values are not JSON compliant")


def test_non_finite_value_in_a_later_block_leaves_no_file():
    # each block is checked just before it is formatted, so the first two
    # blocks are already in the temporary file when the third fails
    data = generate(GeneratorConfig(n_per_modality=2, seed=1))
    data.table.trust[-1] = math.inf
    with mock.patch("msr.dataset.SAVE_BLOCK", 2):
        assert _saved(data) == _dumped(data)


@given(column_datasets(elements=st.one_of(FLOATS, st.sampled_from([math.nan, math.inf]))),
       st.sampled_from([1, 2, 3, 7]))
@settings(deadline=None)
def test_saved_bytes_in_pieces_equal_json_dumps(dataset, cells):
    # blocks of few cells: one row a block, and rows wider than a block in
    # pieces of `cells` features, each checked before it is formatted
    with mock.patch("msr.dataset._SAVE_CELLS", cells):
        assert _saved(dataset) == _dumped(dataset)


# `load` against json.load and the README's per-record rules: a saved corpus
# of 3 x 3 records with up to three record fields set to drawn JSON values,
# and a record's keys reordered, a key repeated or whitespace added, written
# in `save`'s layout, which the numpy reader takes first, and with indent=1,
# which is walked
LOAD_SOURCE = json.loads(_saved(generate(GeneratorConfig(n_per_modality=3, seed=3))))
_DROP = object()
# an int of this size or more rounds to 2**1024, past the largest float
_FLOAT_EDGE = 2 ** 1024 - 2 ** 970
JSON_VALUES = st.one_of(
    st.integers(-2 ** 64, 2 ** 64),
    st.integers(_FLOAT_EDGE - 2 ** 971, 2 ** 1030).flatmap(lambda v: st.sampled_from([v, -v])),
    st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, *MODALITIES]), st.floats(),
    st.booleans(), st.none(), st.text(max_size=4),
    st.lists(st.one_of(st.floats(), st.integers(-2 ** 64, 2 ** 64), st.booleans()), max_size=9),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2), st.just(_DROP))


@st.composite
def load_edits(draw):
    """Up to three (record, key, value): a record field, a new key, or an
    int for one feature; then, each drawn or not, a record's keys in a drawn
    order, a record with a key repeated at a drawn place with a drawn second
    value, and a record with drawn whitespace after each ":" and ",". The
    edits fall on one or two records, so that a record often breaks two
    rules, whose order then decides the message."""
    records = st.sampled_from(draw(st.lists(st.integers(0, 8), min_size=1, max_size=2)))
    keys = st.one_of(st.sampled_from([*RECORD_FIELDS, "extra"]), st.integers(0, 7))
    values = draw(st.lists(st.tuples(records, keys, JSON_VALUES), max_size=3))
    order, repeat, space = (draw(st.none() | st.tuples(records, *parts)) for parts in (
        [st.permutations([*RECORD_FIELDS, "extra"])],
        [st.sampled_from(RECORD_FIELDS), JSON_VALUES.filter(lambda v: v is not _DROP),
         st.integers(0, len(RECORD_FIELDS))],
        [st.text(" \t\n\r", min_size=1, max_size=3)]))
    return values, order, repeat, space


def _edited_texts(edits):
    """LOAD_SOURCE with `edits` made, in `save`'s layout and with indent=1.
    A record with a repeated key or added whitespace is written by hand, in
    place of a placeholder string in both texts."""
    values, order, repeat, space = edits
    payload = json.loads(json.dumps(LOAD_SOURCE))
    records = payload["records"]
    for i, key, value in values:
        record = records[i]
        if isinstance(key, int):
            features = record.get("features")
            if isinstance(features, list) and key < len(features) and value is not _DROP:
                features[key] = value
        elif value is _DROP:
            record.pop(key, None)
        else:
            record[key] = value
    if order:
        i, keys = order
        records[i] = {key: records[i][key] for key in sorted(records[i], key=keys.index)}
    by_hand = {}
    for i in {edit[0] for edit in (repeat, space) if edit}:
        items = list(records[i].items())
        if repeat and repeat[0] == i:
            items.insert(repeat[3], repeat[1:3])
        ws = space[1] if space and space[0] == i else ""
        separators = ("," + ws, ":" + ws)
        # longer than any drawn string, so that no drawn value is replaced
        records[i] = f"\x00record {i} by hand"
        by_hand[json.dumps(records[i])] = "{" + separators[0].join(
            json.dumps(k) + separators[1] + json.dumps(v, separators=separators)
            for k, v in items) + "}"
    texts = [json.dumps(payload, separators=(",", ":")) + "\n", json.dumps(payload, indent=1)]
    for placeholder, text in by_hand.items():
        texts = [t.replace(placeholder, text) for t in texts]
    return texts


def _finite_number(value) -> bool:
    return (type(value) is float and math.isfinite(value)
            or type(value) is int and abs(value) < _FLOAT_EDGE)


def _broken_rule(r, previous, cfg):
    """The message of the first of the README's record rules that record r
    breaks, in the README's order, or None; previous is the id before it."""
    rules = [
        (lambda: type(r) is dict and set(r) == set(RECORD_FIELDS),
         lambda: f"fields must be exactly {RECORD_FIELDS}"),
        (lambda: type(r["id"]) is int, lambda: "id must be an integer"),
        (lambda: r["id"] == 0 if previous is None else r["id"] > previous,
         lambda: f"id {r['id']} breaks the strictly-increasing-from-0 order"),
        (lambda: r["id"] < 2 ** 64, lambda: f"id {r['id']} outside [0, 2**64)"),
        (lambda: r["modality"] in MODALITIES, lambda: f"unknown modality {r['modality']!r}"),
        (lambda: type(r["features"]) is list and len(r["features"]) == cfg.feature_dim,
         lambda: f"features must hold {cfg.feature_dim} numbers"),
        *((lambda j=j: _finite_number(r["features"][j]),
           lambda j=j: f"features[{j}] not a finite number") for j in range(cfg.feature_dim)),
        (lambda: type(r["trust"]) in (int, float) and 0 <= r["trust"] <= 1,
         lambda: f"trust {r['trust']!r} outside [0, 1]"),
        *((lambda f=f: type(r[f]) is bool, lambda f=f: f"{f} must be a boolean")
          for f in ("valid", "relevant")),
        *((lambda f=f, n=n: type(r[f]) is int and 0 <= r[f] < n,
           lambda f=f, n=n: f"{f} {r[f]!r} outside [0, {n})")
          for f, n in (("action", cfg.n_actions), ("mem_label", cfg.n_memory_classes))),
    ]
    return next((message() for holds, message in rules if not holds()), None)


def _load_oracle(payload):
    """What `load` must make of the payload's file: its meta and columns'
    bytes, or the message of the lowest record that breaks a rule, or that
    of the record counts."""
    meta, records = payload["meta"], payload["records"]
    cfg = GeneratorConfig.from_mapping(meta["generator"])
    previous = None
    for i, r in enumerate(records):
        message = _broken_rule(r, previous, cfg)
        if message:
            return f"record {i}: {message}"
        previous = r["id"]
    seen = {m: sum(r["modality"] == m for r in records) for m in MODALITIES}
    counts = {m: cfg.n_per_modality for m in MODALITIES}
    if seen != counts:
        return f"record counts {seen} do not match meta {counts}"
    columns = [np.array([r["id"] for r in records], dtype=np.uint64),
               np.array([list(map(float, r["features"])) for r in records]),
               np.array([float(r["trust"]) for r in records]),
               *(np.array([r[f] for r in records], dtype=dtype) for f, dtype in (
                   ("valid", bool), ("relevant", bool), ("action", np.int64),
                   ("mem_label", np.int64)))]
    owner = np.array([MODALITIES.index(r["modality"]) for r in records], dtype=np.int8)
    return meta, [a.tobytes() for a in (*columns, owner)]


def _load_outcome(path):
    try:
        data = load(path)
    except ParseError as exc:
        return str(exc).removeprefix(f"{path}: ")
    return data.meta, [a.tobytes() for a in (*data.table.arrays(), data.modality)]


@given(load_edits())
@settings(deadline=None)
def test_load_ends_as_json_load_and_the_record_rules(edits):
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.json")
        for text in _edited_texts(edits):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            outcomes.append(_load_outcome(path))
        with open(path, encoding="utf-8") as fh:
            expected = _load_oracle(json.load(fh))
    assert outcomes[0] == outcomes[1] == expected


# numtext against repr and str: each row's nonzero bytes are the text
def _texts(matrix, width):
    assert matrix.dtype == np.uint8 and matrix.shape[1] == width
    assert not matrix[:, :3].any()  # free for a caller's separator
    ends = np.full((len(matrix), 1), ord("\n"), dtype=np.uint8)
    flat = np.concatenate((matrix, ends), axis=1).reshape(-1)
    return flat[flat != 0].tobytes().decode("ascii").split("\n")[:-1]


def _float_texts(values):
    return _texts(numtext.float_text(values), numtext.FLOAT_WIDTH)


def _finite(bits):
    """The finite float64s among uint64 bit patterns."""
    values = np.asarray(bits, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)]


@given(hnp.arrays(np.uint64, st.integers(0, 64), elements=st.integers(0, 2 ** 64 - 1)))
def test_float_text_is_repr_for_any_bit_pattern(bits):
    values = _finite(bits)
    assert _float_texts(values) == list(map(repr, values.tolist()))


def test_float_text_is_repr_for_a_million_bit_patterns():
    bits = np.random.default_rng(20251).integers(0, 2 ** 64, 1_000_000, dtype=np.uint64)
    values = _finite(bits)
    assert len(values) > 990_000
    assert _float_texts(values) == list(map(repr, values.tolist()))


def test_float_text_is_repr_at_the_edges():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    # positional text from 1e-4 up to below 1e16; shortest digits of one
    # digit at 1e-5 and 1e17
    around = [_neighbours(center, np.arange(-3, 4)) for center in (1e-5, 1e-4, 1e16, 1e17)]
    values = np.concatenate([powers, -powers, *around, [0.0, -0.0, 5e-324, -5e-324,
                                                        1.7976931348623157e308, 0.1, 123.0]])
    assert _float_texts(values) == list(map(repr, values.tolist()))
    assert _float_texts(np.zeros(0)) == []


def test_int_text_is_str():
    unsigned = np.array([0, 1, 9, 10, 99, 10 ** 19, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)
    signed = np.array([0, -1, -10, 2 ** 63 - 1, -2 ** 63, -(10 ** 18)], dtype=np.int64)
    for values in (unsigned, signed):
        assert _texts(numtext.int_text(values), numtext.INT_WIDTH) == \
            list(map(str, values.tolist()))


@given(st.one_of(hnp.arrays(np.uint64, st.integers(0, 32)),
                 hnp.arrays(np.int64, st.integers(0, 32))))
def test_int_text_is_str_for_any_integers(values):
    assert _texts(numtext.int_text(values), numtext.INT_WIDTH) == list(map(str, values.tolist()))


# numtext.read_numbers against float() and int(): each text right-aligned in
# its row after arbitrary bytes, which the reader must ignore

def _read(texts, fill=b"7", form=None):
    """read_numbers of the texts, each after `fill` bytes in its row; with
    `form`, every text must be read as that form."""
    width = numtext.NUMBER_WIDTH
    rows = np.frombuffer(b"".join(t.encode().rjust(width, fill)[-width:] for t in texts),
                         dtype=np.uint8).reshape(len(texts), width)
    floats, integers, forms = numtext.read_numbers(rows, [len(t) for t in texts])
    if form is not None:
        assert forms.tolist() == [form] * len(texts), texts
    return floats, integers, forms


def _reads_as_float(texts, fill=b"7"):
    floats, _, _ = _read(texts, fill, numtext.FLOAT)
    _same_bits(floats, np.array([float(t) for t in texts]))


@given(hnp.arrays(np.uint64, st.integers(1, 64), elements=st.integers(0, 2 ** 64 - 1)),
       st.binary(min_size=1, max_size=1))
def test_read_numbers_is_float_of_repr_for_any_bit_pattern(bits, fill):
    values = _finite(bits)
    if len(values):
        _reads_as_float(list(map(repr, values.tolist())), fill)


def test_read_numbers_is_float_of_repr_for_a_million_bit_patterns():
    bits = np.random.default_rng(20261).integers(0, 2 ** 64, 1_000_000, dtype=np.uint64)
    values = _finite(bits)
    floats, _, forms = _read(list(map(repr, values.tolist())))
    assert (forms == numtext.FLOAT).all()
    _same_bits(floats, values)


# significands of up to 19 digits, which `repr` never writes past 17, in each
# form JSON allows: "d.ddde-x", "dddde+x", "ddd.ddd" and "0.000ddd"
SIGNIFICANDS = st.integers(1, 10 ** 19 - 1)


@st.composite
def decimal_texts(draw):
    digits = str(draw(SIGNIFICANDS))
    sign = draw(st.sampled_from(["", "-"]))
    exponent = draw(st.integers(-345, 310))
    form = draw(st.integers(0, 3))
    if form == 0:
        text = f"{digits[0]}.{digits[1:] or '0'}e{exponent:+d}"
    elif form == 1:
        text = f"{digits}e{exponent}"
    elif form == 2:
        point = draw(st.integers(1, max(1, len(digits) - 1)))
        text = f"{digits[:point]}.{digits[point:] or '0'}"
    else:
        text = "0." + "0" * draw(st.integers(0, 21 - len(digits))) + digits
    return sign + text


@given(st.lists(decimal_texts(), min_size=1, max_size=32), st.binary(min_size=1, max_size=1))
def test_read_numbers_is_float_of_decimal_text(texts, fill):
    texts = [t for t in texts if len(t) <= numtext.NUMBER_WIDTH]
    if texts:
        _reads_as_float(texts, fill)


@st.composite
def halfway_texts(draw):
    """An integer exactly halfway between two floats of the same binade,
    with at most 19 digits, as a float's text."""
    shift = draw(st.integers(1, 10))
    odd = 2 * draw(st.integers(2 ** 52, 2 ** 53 - 1)) + 1
    digits = str(odd << (shift - 1))
    forms = [f"{digits}e0", f"{digits[:-1]}.{digits[-1]}e1"]
    return draw(st.sampled_from(forms + [f"{digits}.0"] * (len(digits) < 19)))


@given(st.lists(halfway_texts(), min_size=1, max_size=32))
def test_read_numbers_rounds_halfway_to_even(texts):
    _reads_as_float(texts)


def test_read_numbers_at_the_edges():
    texts = ["5e-324", "4.9e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
             "2.225073858507201e-308", "2.2250738585072011e-308", "2.2250738585072014e-308",
             "1.7976931348623157e+308", "1.7976931348623158e+308", "1.7976931348623159e+308",
             "1e-400", "-1e-400", "1e400", "-1e400", "0.0", "-0.0", "0e5", "0.00e-99999",
             "9007199254740993.0", "9007199254740995.0", "1e23", "8.98846567431158e307",
             "0.00012345678901234567", "-0.0001234567890123456", "1.0e-5", "123456789012345678.9",
             "9999999999999999999e-20", "1e+00005", "7.3177701707893310e+15"]
    _reads_as_float(texts)
    _reads_as_float(texts, b"-")
    floats, _, _ = _read(["-0.0", "0.0", "1e-400", "-1e-400"])
    assert np.signbit(floats).tolist() == [True, False, False, True]


def test_read_numbers_reads_integers_as_int():
    texts = ["0", "7", "10", "1234567890123456789", "9999999999999999999", "18446744073709"]
    _, integers, _ = _read(texts, form=numtext.INTEGER)
    assert integers.tolist() == [int(t) for t in texts]


@given(st.lists(st.integers(0, 10 ** 19 - 1), min_size=1, max_size=32),
       st.binary(min_size=1, max_size=1))
def test_read_numbers_is_int_of_any_integer_text(values, fill):
    _, integers, _ = _read(list(map(str, values)), fill, numtext.INTEGER)
    assert integers.tolist() == values


def test_read_numbers_leaves_other_text():
    # integers that are negative or too long, more than 19 digits, an
    # uppercase mark, a long exponent, and text that is not a JSON number
    others = ["-0", "-1", "10000000000000000000", "1234567890123456789.0",
              "0.12345678901234567890", "1E5", "1e0000001", "01", "00.5", "-01.5", "1.", ".5",
              "-.5", "1e", "1e+", "1.5e5.5", "1e5.5", "--1", "+1", "1+1", "1e+-5", "1ee5",
              "1.2.3", "-", "e5", "1x", "0x1", "1 ", " 1", "", "1" * 25]
    _, _, forms = _read(others)
    assert forms.tolist() == [0] * len(others)


# msr.special against scipy.special, bit for bit. A RuntimeWarning from either
# side fails the test (pyproject.toml turns them into errors).
EXPM2 = 0.13533528323661269189
CLOSED_UNIFORMS = st.integers(0, 2 ** 53 - 1).map(lambda k: k * 2.0 ** -53)
OPEN_UNIFORMS = st.integers(0, 2 ** 52 - 1).map(lambda k: (k + 0.5) * 2.0 ** -52)
# (0, exp(-2)], subnormals included
TAILS = st.floats(min_value=0.0, max_value=EXPM2, exclude_min=True)
EDGES = st.sampled_from([0.0, -0.0, 1.0, -5e-324, -1.0, 1.0 + 2.0 ** -52, 2.0, math.nan,
                         math.inf, -math.inf])


def _same_bits(got, want):
    """Equal float64 arrays bit for bit; any nan equals any nan."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == np.float64 and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def _neighbours(center, steps):
    """The floats `steps` ulps away from center."""
    return (np.float64(center).view(np.int64) + np.asarray(steps, dtype=np.int64)).view(np.float64)


def _libm_exp(v):
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


class TestNdtri:
    @given(hnp.arrays(np.float64, st.integers(0, 64), elements=CLOSED_UNIFORMS))
    def test_closed_uniforms(self, y):
        _same_bits(special.ndtri(y), scipy_special.ndtri(y))

    @given(hnp.arrays(np.float64, st.integers(0, 64), elements=OPEN_UNIFORMS))
    def test_open_uniforms(self, y):
        _same_bits(special.ndtri(y), scipy_special.ndtri(y))

    @given(hnp.arrays(np.float64, st.integers(1, 64), elements=TAILS))
    def test_tails_down_to_subnormals(self, w):
        _same_bits(special.ndtri(w), scipy_special.ndtri(w))
        _same_bits(special.ndtri(1.0 - w), scipy_special.ndtri(1.0 - w))

    @given(st.sampled_from([math.exp(-2), 1.0 - math.exp(-2), EXPM2, 1.0 - EXPM2]),
           st.lists(st.integers(-4096, 4096), min_size=1, max_size=32))
    def test_branch_neighbours(self, center, steps):
        y = _neighbours(center, steps)
        _same_bits(special.ndtri(y), scipy_special.ndtri(y))

    @given(hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(0, 6)),
                      elements=st.one_of(CLOSED_UNIFORMS, TAILS, EDGES, st.floats())))
    def test_mixed_and_out_of_range(self, y):
        _same_bits(special.ndtri(y), scipy_special.ndtri(y))

    def test_edges(self):
        y = np.array([0.0, -0.0, 1.0, -1e-300, 1.0 + 2.0 ** -52, math.nan, math.inf,
                      -math.inf])
        _same_bits(special.ndtri(y), [-math.inf, -math.inf, math.inf] + [math.nan] * 5)

    def test_many_tails(self):
        # uniform on (0, exp(-2)), where numpy's own log in place of libm's
        # changes about 50 of these, and log-uniform down to subnormals
        rng = np.random.default_rng(5)
        w = np.concatenate([rng.random(200_000) * EXPM2,
                            10.0 ** -rng.uniform(0.87, 323.5, 50_000)])
        _same_bits(special.ndtri(w), scipy_special.ndtri(w))

    def test_several_blocks_in_place_and_strided(self):
        # more values than one block of the central rational holds
        u = np.random.default_rng(3).random((3 * special._BLOCK + 7, 2))
        want = scipy_special.ndtri(u)
        _same_bits(special.ndtri(u), want)
        _same_bits(special.ndtri(u[:, 1]), want[:, 1])
        central = 0.2 + 0.6 * u
        want = scipy_special.ndtri(central)
        assert special.ndtri(central, out=central) is central
        _same_bits(central, want)


@given(st.floats())
def test_ndtr_on_every_float(a):
    _same_bits(special.ndtr(a), scipy_special.ndtr(a))


def _floats_around(v, n=3):
    """v and the n floats on each side of it."""
    out, lo, hi = [v], v, v
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return sorted(out)


# ndtr's branch points in a, where x = a * sqrt(1/2): erf or erfc at
# |x| = sqrt(1/2), 1 - erf or erfc's rational for x < 8 at x = 1, that
# rational or the one for x >= 8 at x = 8, and 0 where exp(-x * x)
# underflows, at x = sqrt(MAXLOG); st.floats() seldom lands near them
_NDTR_BRANCHES = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * special._MAXLOG)]
_NDTR_POINTS = [s * a for c in _NDTR_BRANCHES for a in _floats_around(c) for s in (1.0, -1.0)]


@pytest.mark.parametrize("a", _NDTR_POINTS + [-12.0, 20.0, -30.0, 0.0, -0.0, math.inf,
                                              -math.inf, math.nan])
def test_ndtr_at_its_branch_points(a):
    _same_bits(special.ndtr(a), scipy_special.ndtr(a))


@given(hnp.arrays(np.float64, st.integers(0, 64), elements=st.one_of(
    st.floats(min_value=700.0), st.floats(max_value=-700.0),
    st.sampled_from([math.inf, -math.inf, math.nan]), st.floats(-40.0, 40.0))))
def test_expit_large_infinite_and_nan(x):
    _same_bits(special.expit(x), scipy_special.expit(x))


@given(hnp.arrays(np.float64, st.integers(0, 64), elements=st.one_of(
    st.floats(), st.floats(-750.0, 750.0), st.floats(708.0, 710.0))))
def test_exp_equals_math_exp(x):
    _same_bits(special.exp(x), [_libm_exp(v) for v in x.tolist()])
