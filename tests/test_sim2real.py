import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msr.errors import ConfigError, ShapeError, StateLookupError
from msr.sim2real import (
    AlignmentModel,
    EnvBatch,
    GridEnv,
    RandomizationConfig,
    _disc_grads,
    _encoder_grad,
    _task_grad,
    align_features,
    next_state_table,
    optimize_policy,
    randomize_batch,
    randomize_env,
    refine_policy,
    reward_discrepancy,
    reward_table,
    rollout,
)


def best_return_recursive(env, gamma, s=None, h=None):
    """Independent oracle: plain top-down recursion over intended actions and
    slip outcomes, no memoization, no shared code with the solver."""
    nxt = next_state_table(env)
    rew = reward_table(env)

    def go(state, horizon):
        if horizon == 0:
            return 0.0
        best = -float("inf")
        for a in range(4):
            value = 0.0
            for move in range(4):
                p = 1.0 - env.slip_prob if move == a else env.slip_prob / 3.0
                if p == 0.0:
                    continue
                value += p * (rew[state, move] + gamma * go(int(nxt[state, move]), horizon - 1))
            best = max(best, value)
        return best

    start = env.state_index(env.start) if s is None else s
    return go(start, env.horizon if h is None else h)


def enumerate_action_sequences(env, gamma):
    """Second oracle for deterministic envs: try every action sequence."""
    assert env.slip_prob == 0.0
    nxt = next_state_table(env)
    rew = reward_table(env)
    goal = env.state_index(env.goal)
    best = -float("inf")
    for seq in itertools.product(range(4), repeat=env.horizon):
        s = env.state_index(env.start)
        total, disc = 0.0, 1.0
        for a in seq:
            total += disc * rew[s, a]
            disc *= gamma
            s = int(nxt[s, a])
            if s == goal:
                break
        best = max(best, total)
    return best


class TestGridEnv:
    def test_start_equals_goal_rejected(self):
        with pytest.raises(ConfigError):
            GridEnv(width=2, height=2, start=(0, 0), goal=(0, 0))

    def test_out_of_bounds_goal(self):
        with pytest.raises(ConfigError):
            GridEnv(width=2, height=2, start=(0, 0), goal=(5, 0))

    def test_state_lookup(self):
        env = GridEnv(width=3, height=2, start=(0, 0), goal=(2, 1))
        with pytest.raises(StateLookupError):
            env.state_index((3, 0))


class TestOptimizePolicy:
    def test_adjacent_goal_single_step(self):
        env = GridEnv(width=2, height=1, start=(0, 0), goal=(1, 0), horizon=1)
        pol = optimize_policy(env, 0.9)
        assert pol.action((0, 0)) == 3  # right, straight into the goal

    def test_three_by_three_return_is_six(self):
        env = GridEnv(width=3, height=3, start=(0, 0), goal=(2, 2),
                      step_reward=-1.0, goal_reward=10.0, horizon=4)
        pol = optimize_policy(env, 1.0)
        assert pol.value(env.start) == pytest.approx(6.0, abs=1e-12)
        assert pol.value(env.start) == pytest.approx(
            enumerate_action_sequences(env, 1.0), abs=1e-12)

    def test_gamma_zero_matches_one_step_lookahead(self):
        env = GridEnv(width=3, height=3, start=(1, 1), goal=(2, 1),
                      step_reward=-0.5, goal_reward=4.0, horizon=3)
        pol = optimize_policy(env, 0.0)
        rew = reward_table(env)
        for y in range(3):
            for x in range(3):
                s = env.state_index((x, y))
                # with gamma 0 only the immediate reward matters
                assert pol.action((x, y), 1) == int(np.argmax(rew[s]))

    def test_policy_bounds(self):
        env = GridEnv(width=2, height=2, start=(0, 0), goal=(1, 1), horizon=2)
        pol = optimize_policy(env, 0.9)
        with pytest.raises(StateLookupError):
            pol.action((2, 0))
        with pytest.raises(StateLookupError):
            pol.action((0, 0), steps_remaining=3)

    @pytest.mark.parametrize("state,steps", [((3, 0), None), ((-1, 0), None),
                                             ((0, 0), -1), ((0, 0), 5)])
    def test_value_bounds_match_action_bounds(self, state, steps):
        env = GridEnv(width=3, height=3, start=(0, 0), goal=(2, 2), horizon=4)
        pol = optimize_policy(env, 0.9)
        with pytest.raises(StateLookupError):
            pol.action(state, steps)
        with pytest.raises(StateLookupError):
            pol.value(state, steps)
        # no steps left is a value, 0, but no action
        assert pol.value((0, 0), 0) == 0.0
        with pytest.raises(StateLookupError):
            pol.action((0, 0), 0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6), st.floats(0, 1))
    def test_matches_recursive_oracle_deterministic(self, seed, horizon, gamma):
        rng = np.random.default_rng(seed)
        cells = [(x, y) for x in range(3) for y in range(3)]
        start, goal = [cells[i] for i in rng.choice(9, size=2, replace=False)]
        env = GridEnv(width=3, height=3, start=start, goal=goal,
                      step_reward=float(rng.uniform(-2, 0.5)),
                      goal_reward=float(rng.uniform(1, 10)),
                      horizon=horizon)
        pol = optimize_policy(env, gamma)
        assert pol.value(env.start) == pytest.approx(
            best_return_recursive(env, gamma), abs=1e-9)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.05, 0.6))
    def test_matches_recursive_oracle_with_slip(self, seed, slip):
        rng = np.random.default_rng(seed)
        env = GridEnv(width=2, height=2, start=(0, 0), goal=(1, 1),
                      step_reward=float(rng.uniform(-1.5, 0.0)),
                      goal_reward=float(rng.uniform(1, 8)),
                      slip_prob=slip, horizon=3)
        pol = optimize_policy(env, 0.9)
        assert pol.value(env.start) == pytest.approx(
            best_return_recursive(env, 0.9), abs=1e-9)

    def test_exhaustive_horizon_eight(self):
        env = GridEnv(width=3, height=3, start=(0, 0), goal=(2, 1),
                      step_reward=-1.0, goal_reward=7.5, horizon=8)
        pol = optimize_policy(env, 0.97)
        assert pol.value(env.start) == pytest.approx(
            enumerate_action_sequences(env, 0.97), abs=1e-9)


class TestRandomizeEnv:
    BASE = GridEnv(width=4, height=4, start=(0, 0), goal=(3, 3),
                   step_reward=-1.0, goal_reward=10.0, slip_prob=0.1, horizon=5)

    def test_degenerate_spec_is_identity(self):
        spec = RandomizationConfig(continuous={"step_reward": (0.0, 0.0)},
                                   variants={"keep": 1.0})
        assert randomize_env(self.BASE, spec, [0.3, 0.6]) == self.BASE

    def test_slip_clamped(self):
        spec = RandomizationConfig(continuous={"slip_prob": (0.0, 100.0)},
                                   variants={"keep": 1.0})
        seen = {randomize_env(self.BASE, spec, [u, 0.5]).slip_prob
                for u in np.linspace(0.01, 0.99, 30)}
        assert all(0.0 <= v <= 0.95 for v in seen)
        assert 0.95 in seen  # huge sigma forces the upper clamp

    def test_deterministic_under_seed(self):
        spec = RandomizationConfig(continuous={"step_reward": (0.0, 0.5)},
                                   variants={"keep": 0.5, "swap_start_goal": 0.5})
        draws = [0.77, 0.4]
        assert randomize_env(self.BASE, spec, draws) == randomize_env(self.BASE, spec, draws)

    def test_swap_variant(self):
        spec = RandomizationConfig(continuous={}, variants={"swap_start_goal": 1.0})
        env = randomize_env(self.BASE, spec, [0.5])
        assert env.start == self.BASE.goal and env.goal == self.BASE.start

    def test_variant_zero_probability_never_drawn(self):
        spec = RandomizationConfig(continuous={},
                                   variants={"keep": 0.0, "swap_start_goal": 1.0})
        for u in (1e-300, 0.5, 1.0 - 2.0 ** -53):
            assert randomize_env(self.BASE, spec, [u]).start == self.BASE.goal

    def test_draw_row_length_checked(self):
        spec = RandomizationConfig(continuous={"step_reward": (0.0, 0.5)},
                                   variants={"keep": 1.0})
        with pytest.raises(ShapeError, match="randomization draws"):
            randomize_env(self.BASE, spec, [0.5])

    @settings(max_examples=40, deadline=None)
    @given(draws=st.lists(st.tuples(*[st.floats(1e-9, 1.0 - 1e-9)] * 4),
                          min_size=1, max_size=12),
           goal_dirs=st.data())
    def test_batch_rows_equal_one_record_form(self, draws, goal_dirs):
        spec = RandomizationConfig(
            continuous={"slip_prob": (0.1, 0.3), "goal_reward": (0.0, 1.0),
                        "step_reward": (0.0, 0.05)},
            variants={"keep": 0.5, "swap_start_goal": 0.5})
        goals = ((3, 3), (0, 3), (3, 0))
        bases = [dataclasses.replace(self.BASE, goal=goals[goal_dirs.draw(st.integers(0, 2))])
                 for _ in draws]
        batch = randomize_batch(EnvBatch.of(bases), spec, draws)
        envs = [randomize_env(b, spec, row) for b, row in zip(bases, draws)]
        assert [batch.env(i) for i in range(len(draws))] == envs
        nxt, rewards = batch.tables()
        want_nxt, want_rewards = EnvBatch.of(envs).tables()
        assert np.array_equal(nxt, want_nxt) and np.array_equal(rewards, want_rewards)

    def test_batch_keeps_the_per_env_checks(self):
        spec = RandomizationConfig(continuous={}, variants={"keep": 1.0})
        bases = EnvBatch.of([self.BASE, self.BASE])
        for changed, message in (({"slip_prob": np.array([0.1, 1.0])}, "slip_prob"),
                                 ({"goal": bases.start}, "start and goal must differ"),
                                 ({"goal": np.array([15, 16])}, "goal outside the 4x4")):
            with pytest.raises(ConfigError, match=message):
                randomize_batch(dataclasses.replace(bases, **changed), spec, [[0.5], [0.5]])

    # a spec is checked once, when it is built, never per draw

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError, match=r"^randomization\.continuous: unknown "
                                              r"parameter 'gravity'"):
            RandomizationConfig(continuous={"gravity": (0.0, 1.0)}, variants={"keep": 1.0})

    def test_bad_variant_mass(self):
        with pytest.raises(ConfigError, match=r"^randomization\.variants: probabilities "
                                              r"sum to 0\.7"):
            RandomizationConfig(continuous={}, variants={"keep": 0.7})

    @pytest.mark.parametrize("continuous,variants,message", [
        ({"step_reward": (0.0, -1.0)}, {"keep": 1.0},
         r"^randomization\.continuous\.step_reward: sigma must be >= 0"),
        ({}, {}, r"^randomization\.variants needs at least one variant"),
        ({}, {"teleport": 1.0}, r"^randomization\.variants: unknown variant 'teleport'"),
        ({}, {"keep": 1.5, "swap_start_goal": -0.5},
         r"^randomization\.variants\.swap_start_goal: probability must be >= 0"),
    ], ids=["negative-sigma", "no-variants", "unknown-variant", "negative-probability"])
    def test_rejected_when_built(self, continuous, variants, message):
        with pytest.raises(ConfigError, match=message):
            RandomizationConfig(continuous=continuous, variants=variants)


class TestRewardDiscrepancy:
    def test_equal_rewards(self):
        assert reward_discrepancy(1.0, 1.0) == 0.0

    def test_scalar(self):
        assert reward_discrepancy(1.0, 0.8) == pytest.approx(0.2)

    def test_table_single_cell(self):
        a = np.zeros((3, 4))
        b = np.zeros((3, 4))
        a[1, 2] = 0.5
        delta = reward_discrepancy(a, b)
        assert delta[1, 2] == pytest.approx(0.5)
        assert np.count_nonzero(delta) == 1

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            reward_discrepancy(np.zeros((2, 4)), np.zeros((3, 4)))


class TestRefinePolicy:
    ENV = GridEnv(width=3, height=3, start=(0, 1), goal=(2, 1),
                  step_reward=-1.0, goal_reward=10.0, horizon=4)

    def test_zero_delta_bit_identical(self):
        base = optimize_policy(self.ENV, 0.9)
        refined = refine_policy(self.ENV, 0.0, 0.5, 0.9)
        assert np.array_equal(base.actions, refined.actions)
        assert np.array_equal(base.values, refined.values)

    def test_constant_delta_same_actions(self):
        base = optimize_policy(self.ENV, 1.0)
        refined = refine_policy(self.ENV, 0.75, 1.0, 1.0)
        assert np.array_equal(base.actions, refined.actions)

    def test_detour_bonus_reroutes(self):
        # bonus on entering (1, 0); direct path along y=1 ignores it until
        # alpha * bonus beats the extra step cost
        env = self.ENV
        nxt = next_state_table(env)
        detour_idx = env.state_index((1, 0))
        delta = np.where(nxt == detour_idx, 5.0, 0.0)

        def first_action(alpha):
            return refine_policy(env, delta, alpha, 1.0).action(env.start)

        assert first_action(0.0) == 3       # straight toward the goal
        assert first_action(1.0) == 0       # reroute up toward the bonus cell

        # oracle: enumeration over action sequences with the adjusted rewards
        adjusted = dataclasses.replace(env)
        rew = reward_table(env) + 1.0 * delta
        goal = env.state_index(env.goal)
        best, best_seq = -float("inf"), None
        for seq in itertools.product(range(4), repeat=env.horizon):
            s = env.state_index(env.start)
            total = 0.0
            for a in seq:
                total += rew[s, a]
                s = int(nxt[s, a])
                if s == goal:
                    break
            if total > best:
                best, best_seq = total, seq
        assert best_seq[0] == 0
        assert refine_policy(env, delta, 1.0, 1.0).value(env.start) == pytest.approx(
            best, abs=1e-9)

    def test_delta_shape_checked(self):
        with pytest.raises(ShapeError):
            refine_policy(self.ENV, np.zeros((2, 2)), 1.0, 0.9)


class TestRollout:
    def test_deterministic_path(self):
        env = GridEnv(width=3, height=1, start=(0, 0), goal=(2, 0), horizon=4)
        pol = optimize_policy(env, 1.0)
        traj = rollout(env, pol)
        assert [s for s, _, _ in traj.steps] == [(0, 0), (1, 0)]
        assert sum(r for _, _, r in traj.steps) == pytest.approx(pol.value(env.start))

    def test_stochastic_requires_draws(self):
        env = GridEnv(width=2, height=2, start=(0, 0), goal=(1, 1),
                      slip_prob=0.2, horizon=3)
        pol = optimize_policy(env, 0.9)
        with pytest.raises(ConfigError):
            rollout(env, pol)
        for draws in (np.zeros(5), [0.5] * 5 + [1.0], [-0.0] * 5 + [math.nan]):
            with pytest.raises(ShapeError, match=r"rollout needs \(1, 6\) draws on \[0, 1\)"):
                rollout(env, pol, draws=draws)
        assert len(rollout(env, pol, draws=[0.5] * 6).steps) == 2
        # step 0 slips (0.0 < 0.2) from down to the lowest other move, up,
        # which runs off the grid and stays put; no later step slips
        slipped = rollout(env, pol, draws=[0.0, 0.0] + [0.5] * 4)
        assert pol.action((0, 0)) == 1
        assert [s for s, _, _ in slipped.steps[:2]] == [(0, 0), (0, 0)]
        assert len(slipped.steps) == 3


def numeric_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = f()
        flat[i] = old - eps
        lo = f()
        flat[i] = old
        gf[i] = (hi - lo) / (2 * eps)
    return g


class TestAlignment:
    def _loss(self, x, y, w_enc, v, b):
        from scipy.special import expit
        p = expit((x @ w_enc.T) @ v + b)
        return float(np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))

    def test_adv_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 3))
        y = (rng.random(12) > 0.5).astype(float)
        w_enc = rng.normal(size=(3, 3)) * 0.3
        v = rng.normal(size=3) * 0.3
        b = 0.1
        z = x @ w_enc.T
        (gv, gb), gw = _disc_grads(z, y, v, b), _encoder_grad(x, z, y, v, b)
        num_v = numeric_grad(lambda: self._loss(x, y, w_enc, v, b), v)
        num_w = numeric_grad(lambda: self._loss(x, y, w_enc, v, b), w_enc)
        assert gv == pytest.approx(num_v, abs=1e-6)
        assert gw == pytest.approx(num_w, abs=1e-6)
        eps = 1e-6
        assert gb == pytest.approx(
            (self._loss(x, y, w_enc, v, b + eps) - self._loss(x, y, w_enc, v, b - eps))
            / (2 * eps), abs=1e-6)

    def test_task_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(9, 3))
        w_enc = rng.normal(size=(3, 3)) * 0.4

        def loss():
            r = (x @ w_enc.T) @ w_enc - x
            return float(np.mean(np.sum(r * r, axis=1)))

        assert _task_grad(x, x @ w_enc.T, w_enc) == pytest.approx(numeric_grad(loss, w_enc),
                                                                abs=1e-5)

    def test_identical_distributions_chance_level(self):
        rng = np.random.default_rng(0)
        sim = rng.normal(size=(1000, 4))
        real = rng.normal(size=(1000, 4))
        _, acc = align_features(sim, real, AlignmentModel.init(4), steps=200, rng=0)
        assert 0.4 <= acc <= 0.6

    def test_separable_frozen_encoder(self):
        rng = np.random.default_rng(1)
        sim = rng.normal(size=(600, 4))
        real = rng.normal(size=(600, 4))
        real[:, 0] += 4.0
        model = AlignmentModel.init(4, lambda_task=0.0)
        _, acc = align_features(sim, real, model, steps=300, rng=1, freeze_encoder=True)
        assert acc > 0.9

    def test_adversarial_training_reduces_accuracy(self):
        rng = np.random.default_rng(2)
        sim = rng.normal(size=(600, 4))
        real = rng.normal(size=(600, 4))
        real[:, 0] += 4.0
        model = AlignmentModel.init(4, lambda_task=0.0)
        _, frozen = align_features(sim, real, model, steps=300, rng=2, freeze_encoder=True)
        _, trained = align_features(sim, real, model, steps=300, rng=2)
        assert trained < frozen

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            align_features(np.zeros((4, 3)), np.zeros((4, 2)), AlignmentModel.init(3))
