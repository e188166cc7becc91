"""Bit-for-bit oracles for the array fast paths of phase 1, alignment, the
trace writer and the dataset writer, and for msr.special against scipy.special
and libm. Each fast path claims exact equality with a slower reference, so
each test compares bytes, not tolerances. CI reruns this file with
`--hypothesis-profile=ci` (tests/conftest.py) for a longer search."""

from dataclasses import replace
import json
import math
import os
import tempfile

from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
import numpy as np
import pytest
from scipy import special as scipy_special

from msr import pipeline, seeding, special
from msr.config import GridSpec, RunConfig
from msr.dataset import MODALITIES, Columns, Dataset, GeneratorConfig, generate, save
from msr.decision import feedback_means
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
    rollout_row,
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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, 1e30])
    def test_unroundable_raises_the_same_error(self, bad):
        expected = _result(_rounded, [0.5, bad])
        assert isinstance(expected, type) and _result(semantic_features, [0.5, bad]) == expected


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


def _stepwise_rollout(env, policy, rng):
    """The per-step greedy walk over one GridEnv's tables that alignment ran
    before it rolled out rows of a solved batch."""
    nxt, rewards = next_state_table(env), reward_table(env)
    goal, s = env.state_index(env.goal), env.state_index(env.start)
    steps = []
    for h in range(env.horizon, 0, -1):
        x, y = s % env.width, s // env.width
        a = policy.action((x, y), h)
        move = a
        if env.slip_prob > 0.0 and rng.random() < env.slip_prob:
            move = int(rng.choice([b for b in range(4) if b != a]))
        steps.append(((x, y), a, float(rewards[s, move])))
        s = int(nxt[s, move])
        if s == goal:
            break
    return tuple(steps)


LAYOUTS = {
    "5x5": GridSpec(slip_prob=0.2),
    "7x6": GridSpec(width=7, height=6, start=(3, 3), horizon=6, slip_prob=0.3),
}
SWAPPED = RandomizationConfig(
    continuous={"slip_prob": (0.1, 0.05), "goal_reward": (0.0, 1.0), "step_reward": (0.0, 0.05)},
    variants={"keep": 0.5, "swap_start_goal": 0.5})


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(sorted(LAYOUTS)))
@settings(deadline=None)
def test_table_rollout_matches_stepwise_rollout(seed, layout):
    gamma, alpha, n = 0.9, 0.5, 8
    pairs = LAYOUTS[layout].envs()
    directions = np.random.default_rng(seed).integers(0, 4, size=n)
    draws = seeding.keyed_uniforms(seed, seeding.ENV_RANDOMIZATION, 0, np.arange(n),
                                   len(SWAPPED.continuous) + 1, open_interval=True)
    sim = randomize_batch(EnvBatch.of([s for s, _ in pairs]).take(directions), SWAPPED, draws)
    real = EnvBatch.of([r for _, r in pairs]).take(directions)
    sim_tables, real_tables = sim.tables(), real.tables()
    delta = reward_discrepancy(real_tables[1], sim_tables[1])
    horizon = sim.horizon
    sim_solved = SolvedBatch(sim, *sim_tables,
                             solve_batch(*sim_tables, sim.slip_prob, horizon, gamma)[0])
    real_solved = SolvedBatch(real, *real_tables, solve_batch(
        real_tables[0], real_tables[1] + alpha * delta, real.slip_prob, horizon, gamma)[0])
    for row, direction in enumerate(directions.tolist()):
        sim_base, real_env = pairs[direction]
        sim_env = randomize_env(sim_base, SWAPPED, draws[row])
        policy = optimize_policy(sim_env, gamma)
        refined = refine_policy(
            real_env, reward_discrepancy(reward_table(real_env), reward_table(sim_env)),
            alpha, gamma)
        # both rollouts of a record share one stream, sim first
        rngs = [np.random.default_rng([seed, row]) for _ in range(3)]
        expected = [_stepwise_rollout(sim_env, policy, rngs[0]),
                    _stepwise_rollout(real_env, refined, rngs[0])]
        batched = [rollout_row(sim_solved, row, rngs[1]).steps,
                   rollout_row(real_solved, row, rngs[1]).steps]
        single = [rollout(sim_env, policy, rngs[2]).steps,
                  rollout(real_env, refined, rngs[2]).steps]
        assert repr(batched) == repr(expected) == repr(single)


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
    assert dict(res.trace_lines) == _dict_lines(cfg, res, records)


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
