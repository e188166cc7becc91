"""Bit-for-bit oracles for the array fast paths of phase 1, alignment, the
memory store, the trace writer and the dataset writer, and for msr.special
against scipy.special and libm. Each fast path claims exact equality with a slower reference, so
each test compares bytes, not tolerances. CI reruns this file with
`--hypothesis-profile=ci` (tests/conftest.py) for a longer search."""

from dataclasses import replace
import decimal
import json
import math
import os
import tempfile

from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
import numpy as np
import pytest
from scipy import special as scipy_special

from msr import pipeline, seeding, special
from msr.config import GridSpec, RunConfig
from msr.dataset import MODALITIES, Columns, Dataset, GeneratorConfig, generate, save
from msr.decision import feedback_means
from msr.errors import DegenerateModalityError, MsrError
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
    """Row `row` of a batched rollout as `Trajectory.steps`; its taken steps
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
    sim_tables, real_tables = sim.tables(), real.tables()
    delta = reward_discrepancy(real_tables[1], sim_tables[1])
    horizon, width = sim.horizon, sim.width
    sim_solved = SolvedBatch(sim, *sim_tables,
                             solve_batch(*sim_tables, sim.slip_prob, horizon, gamma)[0])
    real_solved = SolvedBatch(real, *real_tables, solve_batch(
        real_tables[0], real_tables[1] + alpha * delta, real.slip_prob, horizon, gamma)[0])
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
        single = [rollout(sim_env, policy, uniforms[row]).steps,
                  rollout(real_env, refined, uniforms[row]).steps]
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


def _dict_lines(cfg, res, records):
    """Trace lines as json.dumps of one dict per record, as the writer made
    them before it formatted lines from the outcome columns."""
    out = res.outcomes
    kept = dict(zip(out.record_id.tolist(), range(len(out.record_id))))
    action = np.asarray([r.action for r in records if r.id in kept])
    matched = out.policy_action == action
    feedback = feedback_means(out.decision_id, matched.astype(float))
    columns = {
        "semantic": out.semantic, "relevance_mass": out.relevance_mass,
        "own_in_topk": out.own_in_topk, "retrieved_label": out.retrieved_label,
        "decision": out.decision_id,
        "subtask": np.asarray([f"move-{a}" for a in ACTIONS])[out.decision_id],
        "sim_first_action": out.sim_first_action, "action": out.policy_action,
        "confidence": out.confidence, "matched": matched, "outcome": matched.astype(float),
        "feedback_mean": feedback,
        "adjusted_utility": out.predicted_outcome + cfg.lambda_feedback * feedback,
    }
    values = {name: column.tolist() for name, column in columns.items()}
    lines = {}
    for r in records:
        line = {"id": r.id, "modality": res.modality, "trust": r.trust, "kept": r.id in kept}
        if r.id in kept:
            i = kept[r.id]
            line.update({name: column[i] for name, column in values.items()})
            line["steps"] = {"s2": bool(out.pred_step2[i]), "s3": bool(out.pred_step3[i]),
                             "s4": line["retrieved_label"], "s5": line["decision"],
                             "s6": line["action"], "s7": line["action"]}
        lines[r.id] = json.dumps(line, separators=(",", ":"), allow_nan=False)
    return lines


@pytest.mark.parametrize("modality", MODALITIES)
def test_trace_lines_equal_json_dumps_of_a_dict(tmp_path, modality):
    cfg = _trace_config(tmp_path)
    data = generate(SMALL)
    res = pipeline.run_modality(cfg, SMALL, modality, data.by_modality(modality), 1)
    records = [r for r in data.records if r.modality == modality]
    ids = data.by_modality(modality).ids.tolist()
    assert ids == [r.id for r in records] and len(res.trace_lines) == len(ids)
    assert dict(zip(ids, res.trace_lines)) == _dict_lines(cfg, res, records)


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


@given(hnp.arrays(np.float64, st.integers(0, 64), elements=st.one_of(
    st.floats(min_value=700.0), st.floats(max_value=-700.0),
    st.sampled_from([math.inf, -math.inf, math.nan]), st.floats(-40.0, 40.0))))
def test_expit_large_infinite_and_nan(x):
    _same_bits(special.expit(x), scipy_special.expit(x))


@given(hnp.arrays(np.float64, st.integers(0, 64), elements=st.one_of(
    st.floats(), st.floats(-750.0, 750.0), st.floats(708.0, 710.0))))
def test_exp_equals_math_exp(x):
    _same_bits(special.exp(x), [_libm_exp(v) for v in x.tolist()])
