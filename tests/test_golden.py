"""Golden output digests: fixed runs must reproduce every output file, every
phase-1 outcome and every policy table byte for byte. The digests were taken
with the one-record-at-a-time scorer that chunked phase 1 replaced, so they
tie the batched code to it. A change that moves a digest on purpose updates
it here and says why in CHANGES.md."""

from dataclasses import astuple, replace
import hashlib
import numbers
import os

import numpy as np
import pytest

from msr.config import RunConfig
from msr.dataset import MODALITIES, GeneratorConfig, generate
from msr.pipeline import execute_run, run_modality
from msr.sim2real import (
    GridEnv,
    RandomizationConfig,
    randomize_env,
    reward_discrepancy,
    solve_batch,
    transition_tables,
)

# run_summary.json echoes the config, so its digests here were retaken when
# config keys that change no other output were removed; every other digest
# is the original.
GOLDEN = {
    "report.md": "084158b93912feeca4ad22c0dc3880d5928ad1b216d98f77388810f10f9c35b0",
    "report_auditory.csv": "7408b7cf75e75634c2f754e1975e7fc38927984c721572d239be9bbf692bb7d6",
    "report_tactile.csv": "4e5c98ed166f5b06c14b5893b6e4815fb94b49f41c7efe7e3c12b2bf54898866",
    "report_visual.csv": "32852cac2117c3087c0cdd77bfa7d0394191cc4ed942412ca71a65bbdf0f1745",
    "run_summary.json": "37472053d8e5f0c5c79c487c459ab85e4e71bd75507f1b0edf8d9a659177c49b",
    "trace.jsonl": "46257a5845842a5599814ece4cffba0cc56847ea59b364ad4cb991fec7000c04",
}

# Configs that reach the stochastic, swapped, wide top-k, sparse-readout and
# larger-grid branches of phase 1.
CONFIGS = {
    "default": {},
    "slip": {"grid": {"slip_prob": 0.2}},
    "swap-randomized": {"randomization": {
        "continuous": {"slip_prob": [0.1, 0.05], "goal_reward": [0.0, 1.0],
                       "step_reward": [0.0, 0.05]},
        "variants": {"keep": 0.5, "swap_start_goal": 0.5}}},
    "swap-always": {"randomization": {"variants": {"swap_start_goal": 1.0}}},
    "k-beyond-pool": {"k": 16, "m_count": 8},
    "sparse-readout": {"sparse_readout_threshold": 2, "sparse_readout_top_n": 3},
    "grid-7x6": {"grid": {"width": 7, "height": 6, "start": [3, 3], "horizon": 6}},
}

# sha256 over every survivor's RecordOutcome, all modalities, n=300 per
# modality at seed 7. Slip and grid size change the value tables but not the
# first greedy action, so "slip" and "grid-7x6" agree with "default";
# SOLVER_TABLES pins the tables themselves.
OUTCOMES = {
    "default": "75ed0ba4c734ab867f68aef610e68cef70f2df1f5f51deeea0937a670c92d7ca",
    "slip": "75ed0ba4c734ab867f68aef610e68cef70f2df1f5f51deeea0937a670c92d7ca",
    "swap-randomized": "71a9ada7f6e881d9ebcdfaa8dbbea3060ff49bc3986c8c05eb47adc097ef508f",
    "swap-always": "78075accd4772f3fc88373ef585e7a93b7db88a83d71459ec3967c98eb5e1be0",
    "k-beyond-pool": "c069db0096dc629b54362aa7d9a90c4a0d66e26fc93b304aee429c9791cbf08b",
    "sparse-readout": "a39e7ab5de5ea3d305a0b55a936ca9da5d578d8f427b17a13c6b2c4d2684a73f",
    "grid-7x6": "75ed0ba4c734ab867f68aef610e68cef70f2df1f5f51deeea0937a670c92d7ca",
}

# Output files of the same runs, for the configs whose alignment rollouts
# are deterministic (a slippery rollout used to end the run in an error).
CONFIG_FILES = {
    "swap-always": {
        "report.md": "95c0dcb6ead741414a92f0d547d56899122cbb3e8ad3723e61c6317c6dbcd621",
        "report_auditory.csv": "d3dbacda37a1fdba745a52079852d67273de266f5618ccbeade8a4a69ac37195",
        "report_tactile.csv": "21decc2b9e0c5aa35aa9714b1b72b7ec795daa70fbd6601962b9446424312de1",
        "report_visual.csv": "ead01e8e2747e05c0e330ad250b7083258e36abb79bbf992b66937b768a94c32",
        "run_summary.json": "696f1aeda321b64ffdb996fb261781aeada907fa27a75bd13b85ca9b8d1a4f8f",
        "trace.jsonl": "9e31cb989c0a41694f4fef68326e94b18f2359adc5a739b520d65114576bac3d",
    },
    "k-beyond-pool": {
        "report.md": "eea85873e6242cc210ed7e583632f93307f8a45c4d32b1efd9ee81b31e065386",
        "report_auditory.csv": "f0de6b3692bd8c92ebef41b6c4b95d6a618ee06815109504588bf7f42548b7a7",
        "report_tactile.csv": "f571dd40513e8c2f9d29c046d2dcf3b74e91756efdc81563f746562b26fa21af",
        "report_visual.csv": "58c83f1356429ee5a647d7eb9e60fe5f676fbf985dde0bc46c713f215d0ef3b5",
        "run_summary.json": "a236c28d86902248a23622a4b2b2dbf528745f89f16d187703e0e0f72a0a203c",
        "trace.jsonl": "a1752062476eed89380bf4c33e500c963df2c86862e13671cd75662f730a9931",
    },
    "sparse-readout": {
        "report.md": "95c0dcb6ead741414a92f0d547d56899122cbb3e8ad3723e61c6317c6dbcd621",
        "report_auditory.csv": "d3dbacda37a1fdba745a52079852d67273de266f5618ccbeade8a4a69ac37195",
        "report_tactile.csv": "21decc2b9e0c5aa35aa9714b1b72b7ec795daa70fbd6601962b9446424312de1",
        "report_visual.csv": "ead01e8e2747e05c0e330ad250b7083258e36abb79bbf992b66937b768a94c32",
        "run_summary.json": "354ca205e434b8bfb5d0a5cc77e436ffcd406506bd4a5babace7859b3a1919f5",
        "trace.jsonl": "4e188d714a88c1f530816e1ef21f48306141a619054339b0bcab77f691273c7e",
    },
    "grid-7x6": {
        "report.md": "95c0dcb6ead741414a92f0d547d56899122cbb3e8ad3723e61c6317c6dbcd621",
        "report_auditory.csv": "d3dbacda37a1fdba745a52079852d67273de266f5618ccbeade8a4a69ac37195",
        "report_tactile.csv": "21decc2b9e0c5aa35aa9714b1b72b7ec795daa70fbd6601962b9446424312de1",
        "report_visual.csv": "ead01e8e2747e05c0e330ad250b7083258e36abb79bbf992b66937b768a94c32",
        "run_summary.json": "ead59415714e12e10654acbec46d08379fa6442af7cd58205b5106ff48e8cbab",
        "trace.jsonl": "3056c32551e3dd54b3275ad0a6fe9463d2a7e99495bda5fbec4bb992aa0eafa9",
    },
}

# Actions and values of the simulated and the refined real policy for 64
# randomized environments (slip, goal and step reward drawn, start and goal
# swapped in half of them) on a 5x5 and a 7x6 grid.
SOLVER_TABLES = "96922396d010d8fbbe94e402453bda09e4183228e29fa4a7b885bc4cb0ea87c2"


def _digests(directory):
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(directory))
    }


def _config(name, out_dir):
    return RunConfig.from_mapping({"generator": {"n_per_modality": 300, "seed": 7},
                                   "seed": 7, "out_dir": str(out_dir), **CONFIGS[name]})


def _plain(value):
    """Outcome field values as Python numbers, so the digest does not depend
    on whether a field holds a numpy scalar or a float of the same value."""
    if isinstance(value, (tuple, list)):
        return tuple(_plain(v) for v in value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, numbers.Integral):
        return int(value)
    return float(value)


@pytest.mark.parametrize("workers", [1, 2])
def test_output_digests(tmp_path, workers):
    cfg = RunConfig(generator=GeneratorConfig(n_per_modality=500, seed=42),
                    seed=42, workers=workers, out_dir=str(tmp_path))
    execute_run(cfg)
    assert _digests(tmp_path) == GOLDEN


@pytest.mark.parametrize("name", sorted(CONFIG_FILES))
def test_config_output_digests(tmp_path, name):
    execute_run(_config(name, tmp_path))
    assert _digests(tmp_path) == CONFIG_FILES[name]


@pytest.mark.parametrize("name", sorted(OUTCOMES))
def test_outcome_digests(tmp_path, name):
    cfg = _config(name, tmp_path)
    data = generate(cfg.generator)
    digest = hashlib.sha256()
    for modality in MODALITIES:
        res = run_modality(cfg, cfg.generator, modality, data.by_modality(modality), 1)
        for rid in res.survivor_ids:
            digest.update(repr(_plain(astuple(res.outcomes[rid]))).encode())
            digest.update(b"\n")
    assert digest.hexdigest() == OUTCOMES[name]


def test_batched_solver_tables():
    spec = RandomizationConfig(
        continuous={"slip_prob": (0.1, 0.1), "goal_reward": (0.0, 1.0),
                    "step_reward": (0.0, 0.05)},
        variants={"keep": 0.5, "swap_start_goal": 0.5})
    digest = hashlib.sha256()
    for width, height, start, horizon in ((5, 5, (2, 2), 4), (7, 6, (3, 3), 6)):
        sims, reals = [], []
        for dx, dy in ((0, -1), (0, 1), (-1, 0), (1, 0)):
            base = GridEnv(width=width, height=height, start=start,
                           goal=(start[0] + 2 * dx, start[1] + 2 * dy), horizon=horizon)
            for seed in range(8):
                sims.append(randomize_env(base, spec, seed))
                reals.append(replace(base, step_reward=-1.2))
        sim_nxt, sim_rewards = transition_tables(sims)
        real_nxt, real_rewards = transition_tables(reals)
        delta = reward_discrepancy(real_rewards, sim_rewards)
        sim = solve_batch(sim_nxt, sim_rewards, [e.slip_prob for e in sims], horizon, 0.9)
        real = solve_batch(real_nxt, real_rewards + 0.5 * delta,
                           [e.slip_prob for e in reals], horizon, 0.9)
        for i in range(len(sims)):
            for actions, values in ((sim[0][i], sim[1][i]), (real[0][i], real[1][i])):
                digest.update(np.asarray(actions, dtype=np.int64).tobytes())
                digest.update(np.asarray(values, dtype=float).tobytes())
    assert digest.hexdigest() == SOLVER_TABLES
