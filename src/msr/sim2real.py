"""Gridworld environments, exact finite-horizon policy optimization, domain
randomization, reward-discrepancy correction, and adversarial feature
alignment.

Environments are small rectangular grids with an absorbing goal. A step costs
`step_reward` (also on the step that enters the goal) and entering the goal
adds `goal_reward`; with `slip_prob` the executed move is replaced by one of
the other three, uniformly. Policies are solved exactly by backward induction
over the remaining horizon, so oracle tests can compare against brute-force
enumeration. Greedy ties break in the fixed action order up, down, left,
right. Randomization's normals and the discriminator's sigmoid are `ndtri`
and `expit` of `msr.special`, equal to scipy.special's bit for bit.
"""

from dataclasses import dataclass, field, replace
import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EmptyInputError, ShapeError, StateLookupError
from .seeding import HOLDOUT_SPLIT, keyed_uniforms
from .special import expit, ndtri

ACTIONS = ("up", "down", "left", "right")
MOVES = ((0, -1), (0, 1), (-1, 0), (1, 0))  # (dx, dy) per action
_SLIP_MAX = 0.95
_RANDOMIZABLE = ("goal_reward", "slip_prob", "step_reward")
_VARIANTS = ("keep", "swap_start_goal")


@dataclass(frozen=True)
class GridEnv:
    width: int
    height: int
    start: tuple
    goal: tuple
    step_reward: float = -1.0
    goal_reward: float = 10.0
    slip_prob: float = 0.0
    horizon: int = 4

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ConfigError(f"grid {self.width}x{self.height} is empty")
        for name, cell in (("start", self.start), ("goal", self.goal)):
            x, y = cell
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise ConfigError(f"{name} {tuple(cell)} outside the "
                                  f"{self.width}x{self.height} grid")
        if tuple(self.start) == tuple(self.goal):
            raise ConfigError("start and goal must differ")
        if not 0.0 <= self.slip_prob < 1.0:
            raise ConfigError(f"slip_prob must be in [0, 1), got {self.slip_prob}")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")

    def state_index(self, state) -> int:
        x, y = state
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise StateLookupError(f"state {tuple(state)} out of bounds")
        return y * self.width + x


def next_state_table(env: GridEnv) -> np.ndarray:
    """(n_states, 4) index table of executed moves; off-grid moves stay in
    place and the goal is absorbing. The one-row form of `EnvBatch.tables`."""
    return EnvBatch.of([env]).tables()[0][0]


@dataclass(frozen=True)
class EnvBatch:
    """N environments of one grid size and horizon as columns: start and goal
    cells as state indices, rewards and slip as (N,) floats."""

    width: int
    height: int
    horizon: int
    start: np.ndarray
    goal: np.ndarray
    step_reward: np.ndarray
    goal_reward: np.ndarray
    slip_prob: np.ndarray

    @classmethod
    def of(cls, envs) -> "EnvBatch":
        """Columns of GridEnvs that share one grid size and horizon."""
        def column(name):
            return np.asarray([getattr(e, name) for e in envs], dtype=float)

        first = envs[0]
        return cls(width=first.width, height=first.height, horizon=first.horizon,
                   start=np.asarray([e.state_index(e.start) for e in envs], dtype=np.int64),
                   goal=np.asarray([e.state_index(e.goal) for e in envs], dtype=np.int64),
                   step_reward=column("step_reward"), goal_reward=column("goal_reward"),
                   slip_prob=column("slip_prob"))

    def take(self, rows) -> "EnvBatch":
        """The environments at the given row indices, in that order."""
        return replace(self, **{name: getattr(self, name)[rows] for name in
                                ("start", "goal", "step_reward", "goal_reward", "slip_prob")})

    def env(self, row: int) -> GridEnv:
        def cell(index):
            return (int(index) % self.width, int(index) // self.width)

        return GridEnv(width=self.width, height=self.height, start=cell(self.start[row]),
                       goal=cell(self.goal[row]),
                       step_reward=float(self.step_reward[row]),
                       goal_reward=float(self.goal_reward[row]),
                       slip_prob=float(self.slip_prob[row]), horizon=self.horizon)

    def check(self) -> None:
        """`GridEnv`'s per-environment checks, over all rows at once."""
        n_states = self.width * self.height
        for name, cells in (("start", self.start), ("goal", self.goal)):
            if not np.all((cells >= 0) & (cells < n_states)):
                raise ConfigError(f"{name} outside the {self.width}x{self.height} grid")
        if np.any(self.start == self.goal):
            raise ConfigError("start and goal must differ")
        if not np.all((self.slip_prob >= 0.0) & (self.slip_prob < 1.0)):
            raise ConfigError(f"slip_prob must be in [0, 1), got {self.slip_prob.min()!r}"
                              f"..{self.slip_prob.max()!r}")

    def tables(self):
        """(N, n_states, 4) next-state and reward tables. A move clamps x and
        y to the grid, so an off-grid move stays in place, and each row's
        goal is absorbing; the rewards are as `reward_table` describes."""
        cells = np.arange(self.width * self.height)
        dx, dy = np.asarray(MOVES).T
        moved = (np.clip(cells[:, None] // self.width + dy, 0, self.height - 1) * self.width
                 + np.clip(cells[:, None] % self.width + dx, 0, self.width - 1))
        rows = np.arange(len(self.goal))
        nxt = np.repeat(moved[None], len(rows), axis=0)
        nxt[rows, self.goal] = self.goal[:, None]
        goal = self.goal[:, None, None]
        rewards = self.step_reward[:, None, None] + np.where(
            nxt == goal, self.goal_reward[:, None, None], 0.0)
        rewards[rows, self.goal] = 0.0
        return nxt, rewards


def reward_table(env: GridEnv) -> np.ndarray:
    """(n_states, 4) reward per executed move: step_reward everywhere outside
    the goal, plus goal_reward on moves that enter the goal."""
    return EnvBatch.of([env]).tables()[1][0]


@dataclass
class PolicyTable:
    """Greedy action per (state, remaining-horizon) plus the value tables,
    solved over `env`'s grid and horizon."""

    env: GridEnv
    actions: np.ndarray  # (horizon, n_states) int; row h-1 = h steps remaining
    values: np.ndarray   # (horizon + 1, n_states); row h = value with h steps left

    def _lookup(self, state, steps_remaining: int | None, lowest: int) -> tuple:
        """(steps left, state index); steps left must lie in [lowest, horizon]."""
        s = self.env.state_index(state)
        h = self.env.horizon if steps_remaining is None else steps_remaining
        if not lowest <= h <= self.env.horizon:
            raise StateLookupError(f"steps_remaining {h} outside [{lowest}, {self.env.horizon}]")
        return h, s

    def action(self, state, steps_remaining: int | None = None) -> int:
        h, s = self._lookup(state, steps_remaining, 1)
        return int(self.actions[h - 1, s])

    def value(self, state, steps_remaining: int | None = None) -> float:
        h, s = self._lookup(state, steps_remaining, 0)
        return float(self.values[h, s])


def _slip_mix(slip_probs) -> np.ndarray:
    """(N, 4, 4) probability that intending action a executes move b."""
    p = np.asarray(slip_probs, dtype=float)
    mix = np.empty((p.size, 4, 4))
    mix[:] = (p / 3.0)[:, None, None]
    mix[:, np.arange(4), np.arange(4)] = (1.0 - p)[:, None]
    return mix


def solve_batch(nxt, rewards, slip_probs, horizon: int, gamma: float):
    """Backward induction for N environments of one grid size and horizon at
    once: nxt and rewards are (N, n_states, 4) tables (`EnvBatch.tables`),
    slip_probs is (N,). Returns actions (N, horizon, n_states), where row h-1
    is the greedy action with h steps left, and values (N, horizon + 1,
    n_states). Successor values and the chosen q are gathers at flat indices
    built once per call; each environment's tables equal its own solve bit
    for bit."""
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError(f"gamma must be in [0, 1], got {gamma}")
    n_env, n = rewards.shape[:2]
    mix_t = np.ascontiguousarray(np.swapaxes(_slip_mix(slip_probs), 1, 2))
    successor = nxt + (np.arange(n_env) * n)[:, None, None]
    cell = 4 * np.arange(n_env * n).reshape(n_env, n)
    actions = np.empty((n_env, horizon, n), dtype=np.int64)
    values = np.zeros((n_env, horizon + 1, n), dtype=float)
    v = values[:, 0]
    for h in range(1, horizon + 1):
        per_move = rewards + gamma * v.ravel()[successor]  # (N, n, 4) per executed move
        q = per_move @ mix_t                 # (N, n, 4) per intended action
        best = np.argmax(q, axis=2)          # first max = fixed action order
        actions[:, h - 1] = best
        v = q.ravel()[cell + best]           # not np.maximum: it can flip a zero's sign
        values[:, h] = v
    return actions, values


def _solve(env: GridEnv, rewards: np.ndarray, gamma: float) -> PolicyTable:
    actions, values = solve_batch(next_state_table(env)[None], rewards[None],
                                  [env.slip_prob], env.horizon, gamma)
    return PolicyTable(env=env, actions=actions[0], values=values[0])


def optimize_policy(env: GridEnv, gamma: float) -> PolicyTable:
    """Exact backward induction over the remaining horizon."""
    return _solve(env, reward_table(env), gamma)


@dataclass(frozen=True)
class RandomizationConfig:
    """Gaussian variation (mu, sigma) per continuous parameter plus a
    categorical layout distribution, checked once when it is built."""

    continuous: dict[str, tuple[float, float]] = field(
        default_factory=lambda: {"step_reward": (0.0, 0.05)})
    variants: dict[str, float] = field(default_factory=lambda: {"keep": 1.0})

    def __post_init__(self):
        for name, (_, sigma) in self.continuous.items():
            if name not in _RANDOMIZABLE:
                raise ConfigError(f"randomization.continuous: unknown parameter {name!r}, "
                                  f"expected one of {_RANDOMIZABLE}")
            if not sigma >= 0.0:
                raise ConfigError(f"randomization.continuous.{name}: sigma must be >= 0, "
                                  f"got {sigma!r}")
        if not self.variants:
            raise ConfigError("randomization.variants needs at least one variant")
        for name, p in self.variants.items():
            if name not in _VARIANTS:
                raise ConfigError(f"randomization.variants: unknown variant {name!r}, "
                                  f"expected one of {_VARIANTS}")
            if not p >= 0.0:
                raise ConfigError(f"randomization.variants.{name}: probability must be "
                                  f">= 0, got {p!r}")
        total = math.fsum(self.variants.values())
        if not abs(total - 1.0) <= 1e-9:
            raise ConfigError(f"randomization.variants: probabilities sum to {total!r}, "
                              "expected 1")


def randomize_batch(bases: EnvBatch, spec: RandomizationConfig, draws) -> EnvBatch:
    """Randomized copies of N base environments, made from each row of the
    (N, len(spec.continuous) + 1) open uniforms on (0, 1) in `draws`.

    Continuous parameters move by a Gaussian draw, ndtri of the row's
    uniforms in sorted parameter order; slip_prob is clamped to [0, 0.95].
    The last uniform picks the variant over the cumulative probabilities of
    the sorted variant names: keep the layout or swap start and goal.
    """
    u = np.asarray(draws, dtype=float)
    if u.shape != (len(bases.goal), len(spec.continuous) + 1):
        raise ShapeError(f"randomization draws {u.shape} for {len(bases.goal)} environments "
                         f"and {len(spec.continuous)} parameters")
    changes = {}
    for j, name in enumerate(sorted(spec.continuous)):
        mu, sigma = spec.continuous[name]
        value = getattr(bases, name) + mu + sigma * ndtri(u[:, j])
        if name == "slip_prob":
            value = np.clip(value, 0.0, _SLIP_MAX)
        changes[name] = value
    names = sorted(spec.variants)
    cumulative = np.cumsum([spec.variants[n] for n in names], dtype=float)
    variant = np.searchsorted(cumulative / cumulative[-1], u[:, -1], side="right")
    if "swap_start_goal" in names:
        swap = variant == names.index("swap_start_goal")
        changes["start"] = np.where(swap, bases.goal, bases.start)
        changes["goal"] = np.where(swap, bases.start, bases.goal)
    randomized = replace(bases, **changes)
    randomized.check()
    return randomized


def randomize_env(base: GridEnv, spec: RandomizationConfig, draws) -> GridEnv:
    """Randomized copy of one base environment from its row of
    len(spec.continuous) + 1 open uniforms; see `randomize_batch`."""
    return randomize_batch(EnvBatch.of([base]), spec, np.asarray(draws, dtype=float)[None]).env(0)


@dataclass(frozen=True)
class Trajectory:
    steps: tuple  # ((state, action, reward), ...)


class SolvedBatch(NamedTuple):
    """N environments with their (N, n_states, 4) `EnvBatch.tables` and the
    (N, horizon, n_states) greedy actions of one `solve_batch` call."""

    envs: EnvBatch
    nxt: np.ndarray
    rewards: np.ndarray
    actions: np.ndarray


def rollout_batch(solved: SolvedBatch, draws):
    """Greedy rollouts of all N environments of a solved batch from their
    starts, one array step per horizon step. Row i reads row i of the
    (N, 2 * horizon) uniforms on [0, 1) in `draws`: step t slips when column
    2t is below the row's slip_prob, to the move at index floor(3u) of column
    2t+1 among the other three in ascending order. Returns (N, horizon) state
    indices, intended actions and rewards per step, and whether the row took
    the step: the goal is absorbing, so a row stops once it is there."""
    envs, horizon = solved.envs, solved.envs.horizon
    u = np.asarray(draws, dtype=float)
    if u.shape != (len(envs.start), 2 * horizon) or not np.all((u >= 0.0) & (u < 1.0)):
        raise ShapeError(f"rollout needs ({len(envs.start)}, {2 * horizon}) draws on [0, 1), "
                         f"got shape {u.shape}")
    rows, s = np.arange(len(u)), envs.start
    steps = []
    for t in range(horizon):
        a = solved.actions[rows, horizon - 1 - t, s]
        j = np.floor(3.0 * u[:, 2 * t + 1]).astype(np.int64)
        move = np.where(u[:, 2 * t] < envs.slip_prob, j + (j >= a), a)
        steps.append((s, a, solved.rewards[rows, s, move]))
        s = solved.nxt[rows, s, move]
    states, actions, rewards = (np.stack(column, axis=1) for column in zip(*steps))
    return states, actions, rewards, states != envs.goal[:, None]


def rollout(env: GridEnv, policy: PolicyTable, draws=None) -> Trajectory:
    """Greedy rollout of one environment under its policy, reading the row
    of 2 * horizon uniforms in `draws`, which only a slippery environment
    needs; see `rollout_batch`."""
    if draws is None and env.slip_prob > 0.0:
        raise ConfigError("stochastic environment needs draws for rollout")
    batch = EnvBatch.of([env])
    u = np.zeros((1, 2 * env.horizon)) if draws is None else np.asarray(draws, dtype=float)[None]
    *columns, taken = rollout_batch(SolvedBatch(batch, *batch.tables(), policy.actions[None]), u)
    states, actions, rewards = (column[0, :int(taken.sum())].tolist() for column in columns)
    return Trajectory(steps=tuple(((s % env.width, s // env.width), a, r)
                                  for s, a, r in zip(states, actions, rewards)))


def reward_discrepancy(r_real, r_sim):
    """Elementwise R_real - R_sim; scalar in, scalar out."""
    if np.isscalar(r_real) and np.isscalar(r_sim):
        return float(r_real) - float(r_sim)
    a = np.asarray(r_real, dtype=float)
    b = np.asarray(r_sim, dtype=float)
    if a.shape != b.shape:
        raise ShapeError(f"reward shapes {a.shape} vs {b.shape}")
    return a - b


def refine_policy(env_real: GridEnv, delta, alpha: float, gamma: float) -> PolicyTable:
    """Re-plan on the real environment with rewards R_real + alpha * delta."""
    rewards = reward_table(env_real)
    if not np.isscalar(delta):
        d = np.asarray(delta, dtype=float)
        if d.shape != rewards.shape:
            raise ShapeError(f"delta shape {d.shape} vs reward table {rewards.shape}")
        delta = d
    return _solve(env_real, rewards + alpha * delta, gamma)


@dataclass
class AlignmentModel:
    """Linear feature encoder plus a logistic discriminator over its output."""

    encoder: np.ndarray   # (enc_dim, in_dim)
    disc_w: np.ndarray    # (enc_dim,)
    disc_b: float
    lambda_task: float = 0.1

    @classmethod
    def init(cls, in_dim: int, lambda_task: float = 0.1):
        return cls(encoder=np.eye(in_dim), disc_w=np.zeros(in_dim), disc_b=0.0,
                   lambda_task=lambda_task)


def _disc_grads(z, y, v, b):
    """Gradients in v and b of the mean discriminator log-likelihood at
    encoded samples z = x @ W.T."""
    resid = y - expit(z @ v + b)
    return resid @ z / len(y), float(resid.mean())


def _encoder_grad(x, z, y, v, b):
    """Its gradient in the encoder W."""
    return np.outer(v, (y - expit(z @ v + b)) @ x / len(y))


def _task_grad(x, z, w_enc):
    """Gradient of the mean squared reconstruction error |x - W^T W x|^2, at
    encoded samples z = x @ W.T."""
    r = z @ w_enc - x
    n = x.shape[0]
    return 2.0 / n * w_enc @ (x.T @ r + r.T @ x)


def align_features(sim_features, real_features, model: AlignmentModel,
                   steps: int = 500, lr: float = 0.05, rng=0,
                   freeze_encoder: bool = False):
    """Alternating adversarial updates between discriminator and encoder.

    The discriminator ascends the logistic log-likelihood of separating
    encoded sim (label 1) from real (label 0) samples; the encoder descends
    the same objective plus lambda_task times a reconstruction loss. Half of
    each sample set is held out, picked by keyed uniforms of the int seed
    `rng`; returns (updated model, held-out discriminator accuracy).
    """
    sim = np.atleast_2d(np.asarray(sim_features, dtype=float))
    real = np.atleast_2d(np.asarray(real_features, dtype=float))
    if sim.size == 0 or real.size == 0:
        raise EmptyInputError("alignment needs nonempty sim and real samples")
    if sim.shape[1] != real.shape[1]:
        raise ShapeError(f"feature dims differ: sim {sim.shape[1]} vs real {real.shape[1]}")
    if model.encoder.shape[1] != sim.shape[1]:
        raise ShapeError(
            f"encoder expects dim {model.encoder.shape[1]}, samples have {sim.shape[1]}"
        )

    halves = []
    for index, block in enumerate((sim, real)):
        split = keyed_uniforms(rng, HOLDOUT_SPLIT, index, np.arange(block.shape[0]), 1)
        perm = np.argsort(split[:, 0], kind="stable")
        cut = block.shape[0] // 2 if block.shape[0] > 1 else 1
        halves.append((block[perm[:cut]], block[perm[cut:]] if block.shape[0] > 1 else block))
    (sim_tr, sim_ho), (real_tr, real_ho) = halves
    x_tr = np.concatenate([sim_tr, real_tr])
    y_tr = np.concatenate([np.ones(len(sim_tr)), np.zeros(len(real_tr))])
    x_ho = np.concatenate([sim_ho, real_ho])
    y_ho = np.concatenate([np.ones(len(sim_ho)), np.zeros(len(real_ho))])

    w_enc = model.encoder.copy()
    v = model.disc_w.copy()
    b = model.disc_b
    for _ in range(steps):
        z = x_tr @ w_enc.T  # the discriminator step leaves the encoder as it is
        gv, gb = _disc_grads(z, y_tr, v, b)
        v = v + lr * gv
        b = b + lr * gb
        if not freeze_encoder:
            gw = _encoder_grad(x_tr, z, y_tr, v, b)
            w_enc = w_enc - lr * (gw + model.lambda_task * _task_grad(x_tr, z, w_enc))

    p_ho = expit((x_ho @ w_enc.T) @ v + b)
    accuracy = float(np.mean((p_ho > 0.5) == (y_ho > 0.5)))
    updated = AlignmentModel(encoder=w_enc, disc_w=v, disc_b=b,
                             lambda_task=model.lambda_task)
    return updated, accuracy
