"""Golden output digests: fixed runs must reproduce every output file, every
phase-1 outcome and every policy table byte for byte. The output and outcome
digests were taken once with the counter-based keyed streams
(`seeding.keyed_uniforms`) that replaced the per-record numpy SeedSequence
streams, at the same configs as before; the phase-1 code around the streams
was already tied bit for bit to the one-record-at-a-time scorer. The policy
tables do not depend on the streams and keep their original digest. A change
that moves a digest on purpose updates it here and says why in CHANGES.md."""

from dataclasses import replace
import hashlib
import json
import numbers
import os

import numpy as np
import pytest

from msr.config import RunConfig
from msr.dataset import MODALITIES, GeneratorConfig, generate, load, save
from msr.pipeline import execute_run, run_modality
from msr.sim2real import EnvBatch, GridEnv, reward_discrepancy, solve_batch

GOLDEN = {
    "report.md": "418feb5b30573a0f31d88ca6c38f3f706a143f9af9635c1d278fa85542fb697f",
    "report_auditory.csv": "833df5da752992fcadc065a3c0bd5b0466ca7713ca19dd924823fee2dae1ff99",
    "report_tactile.csv": "183520044bb1e963327480811263682fb033afa5f66b139b1df948f1543ead8e",
    "report_visual.csv": "3ada34f3614be944e4ee0b46eba0276326bfb2483a4410e5475655b96ef69cbe",
    "run_summary.json": "a7cfb653b51737a23529ed940cdf8b8a443acb10f573818e2c1bd577600cac02",
    "trace.jsonl": "8615a63a4d71ad7a0761e538b5f4d2d249ecc17ef1576be18b61e8226431cec1",
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

# sha256 over every survivor's phase-1 outcome row, all modalities, n=300 per
# modality at seed 7. A row is read in OUTCOME_FIELDS order, the field order
# of the per-record outcome object these digests were first taken from; its
# command slot holds the refined policy's start action, as the command did.
# Slip and grid size change the value tables but not the first greedy
# action, so "slip" and "grid-7x6" agree with "default"; SOLVER_TABLES pins
# the tables themselves.
OUTCOMES = {
    "default": "4089018ada64c43a99d8a61eefef82bab497fd9a766cf2619545b525bd05fdb9",
    "slip": "4089018ada64c43a99d8a61eefef82bab497fd9a766cf2619545b525bd05fdb9",
    "swap-randomized": "514baa55fcc82543effec91a9f830084a3f71607032816e96989599b2c2917ab",
    "swap-always": "82ff2b353e3d2a187f9e8e1cd2db4762b5b5ba587c0f756cc3109f0e7ea4aba7",
    "k-beyond-pool": "f11d26d8d286a204030d56adc38cba6a7e10f36988c2d71844c35122b03d335b",
    "sparse-readout": "533ee3f7c9dd1268354dac78ff780f6168f68ab1a346a2e5ebe17d9dc39a0ec1",
    "grid-7x6": "4089018ada64c43a99d8a61eefef82bab497fd9a766cf2619545b525bd05fdb9",
}

OUTCOME_FIELDS = (
    "record_id", "semantic", "own_in_topk", "relevance_mass", "pred_step2",
    "pred_step3", "retrieved_label", "readout_cosine", "refined_attributes",
    "refined_utility", "decision_id", "predicted_outcome", "sim_first_action",
    "policy_action", "policy_action", "confidence",
)

# Output files of the same runs for every config but "default", which GOLDEN
# pins on a larger corpus. "slip" and "swap-randomized" roll out slippery
# environments in alignment, so their slips reach run_summary.json.
CONFIG_FILES = {
    "slip": {
        "report.md": "94e91e541a7ed4cbfc04d2049a6cbf3e4d625b9e756b24c3724692338b0e0bcf",
        "report_auditory.csv": "7d025b4ff2d8e10f8c61b16b4342b5de4e62888566c9f44ba9ff81289fc4296b",
        "report_tactile.csv": "730125e18b5968671290aa94f8bbfbe2a67356709d15915d3539be304f951134",
        "report_visual.csv": "b26c99af8381680062eff390be9b68e793ab0e02d0bc29892a5715fce5e2876a",
        "run_summary.json": "dfdaabadae14b0da66819be1b33fca704f92c7f134474f777fdb4fffc43f3350",
        "trace.jsonl": "12eafc6ac81e94472eeb07a04c554026aa75b84de7ae629e03a73a55b3374e0c",
    },
    "swap-randomized": {
        "report.md": "94e91e541a7ed4cbfc04d2049a6cbf3e4d625b9e756b24c3724692338b0e0bcf",
        "report_auditory.csv": "7d025b4ff2d8e10f8c61b16b4342b5de4e62888566c9f44ba9ff81289fc4296b",
        "report_tactile.csv": "730125e18b5968671290aa94f8bbfbe2a67356709d15915d3539be304f951134",
        "report_visual.csv": "b26c99af8381680062eff390be9b68e793ab0e02d0bc29892a5715fce5e2876a",
        "run_summary.json": "162ee6e5d4fde8e94f17c9df0c3f4e69f03d0392c16f6389ee8f6a8170b49066",
        "trace.jsonl": "77829d70f38b583a23bf7f0c19c2088b7bf1db3b22818752772426266d1d2f58",
    },
    "swap-always": {
        "report.md": "94e91e541a7ed4cbfc04d2049a6cbf3e4d625b9e756b24c3724692338b0e0bcf",
        "report_auditory.csv": "7d025b4ff2d8e10f8c61b16b4342b5de4e62888566c9f44ba9ff81289fc4296b",
        "report_tactile.csv": "730125e18b5968671290aa94f8bbfbe2a67356709d15915d3539be304f951134",
        "report_visual.csv": "b26c99af8381680062eff390be9b68e793ab0e02d0bc29892a5715fce5e2876a",
        "run_summary.json": "281e7c0f8ed55a6b35fe1165178a7cdd6ec78a94f090b78b04ee7908c2c4c3af",
        "trace.jsonl": "9afbc8f814de3d3fdc40054cec7c5c39a884192c622164d1c143d839ca1d0408",
    },
    "k-beyond-pool": {
        "report.md": "e60de389d8dc4da03cccfaa04aaf14304d00df5d00613a5f8d09a88fca48adf1",
        "report_auditory.csv": "f59d90e4a8f63a28c5cbdd1123563befdb66b4584adafffefee8b189ae833334",
        "report_tactile.csv": "8958d5d2b5660574cf60c5ef097f42a11be1ec12262cc3b5eb7647ac3f34c48c",
        "report_visual.csv": "a151ba02e92c224e90bba69d19be797e3a9c12878a01ffb9e0b62a61dc0384ab",
        "run_summary.json": "52a41ffda69a315cfe62fa0a08037bce28bce9dd3eb272eadaaa3f2022c05ae1",
        "trace.jsonl": "968d3674a43af9921e871a4f691af242b98aaf035d5a0d415114593380a98b54",
    },
    "sparse-readout": {
        "report.md": "94e91e541a7ed4cbfc04d2049a6cbf3e4d625b9e756b24c3724692338b0e0bcf",
        "report_auditory.csv": "7d025b4ff2d8e10f8c61b16b4342b5de4e62888566c9f44ba9ff81289fc4296b",
        "report_tactile.csv": "730125e18b5968671290aa94f8bbfbe2a67356709d15915d3539be304f951134",
        "report_visual.csv": "b26c99af8381680062eff390be9b68e793ab0e02d0bc29892a5715fce5e2876a",
        "run_summary.json": "486721cfb034e64b5d2c66da6d530ae993cf3cf06e68c2fe5a63c028e5e9b28b",
        "trace.jsonl": "a233fb83a05c17f4f3c83a2c107d552f6aab13aa6514e1b189c2204580888a2c",
    },
    "grid-7x6": {
        "report.md": "94e91e541a7ed4cbfc04d2049a6cbf3e4d625b9e756b24c3724692338b0e0bcf",
        "report_auditory.csv": "7d025b4ff2d8e10f8c61b16b4342b5de4e62888566c9f44ba9ff81289fc4296b",
        "report_tactile.csv": "730125e18b5968671290aa94f8bbfbe2a67356709d15915d3539be304f951134",
        "report_visual.csv": "b26c99af8381680062eff390be9b68e793ab0e02d0bc29892a5715fce5e2876a",
        "run_summary.json": "5f9627b4d3e76ca271fb706d75772c06ff129c9d1c9d794b84cb7dd8cb0d2305",
        "trace.jsonl": "12eafc6ac81e94472eeb07a04c554026aa75b84de7ae629e03a73a55b3374e0c",
    },
}

# Actions and values of the simulated and the refined real policy for 64
# randomized environments (slip, goal and step reward drawn, start and goal
# swapped in half of them) on a 5x5 and a 7x6 grid. The environments come
# from the test's own numpy streams (`_randomized`), so this digest did not
# move with the keyed streams.
SOLVER_TABLES = "96922396d010d8fbbe94e402453bda09e4183228e29fa4a7b885bc4cb0ea87c2"


# sha256 of the file `save(generate(cfg))` writes, per generator config, and
# of a `load` -> `save` round trip of a hand-edited file (`_hand_written`).
DATASET_FILES = {
    "n300-seed7": "d925c7f578e6e2caaed35f2d5b24986b612042996748f419ebe5138d55e622dd",
    "default": "bb7b43d48aef429b451147a7b9c8ff9fbb1c60977cd36297f7c43664b1708a3d",
    "wide-layout": "ff99b40b4a1dbec1d7904cdcc4bffce5dfac8aac9c8dc796fa83d375c643e5e5",
}
DATASET_ROUND_TRIP = "4fd28d0ed97a678905413adda205055222a88ead6ab3ba756995ce01ff3ed71c"

DATASET_CONFIGS = {
    "n300-seed7": GeneratorConfig(n_per_modality=300, seed=7),
    "default": GeneratorConfig(),
    "wide-layout": GeneratorConfig(n_per_modality=200, seed=3, feature_dim=11, n_actions=3,
                                   n_memory_classes=5),
}


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
        columns = [getattr(res.outcomes, name).tolist() for name in OUTCOME_FIELDS]
        for row in zip(*columns):
            digest.update(repr(_plain(row)).encode())
            digest.update(b"\n")
    assert digest.hexdigest() == OUTCOMES[name]


def _randomized(base, seed):
    """The environment the pre-keyed-stream randomize_env drew for this seed:
    a normal per sorted continuous parameter (slip clamped to [0, 0.95]),
    then the start/goal swap with probability 1/2."""
    rng = np.random.default_rng(seed)
    changes = {}
    for name, (mu, sigma) in (("goal_reward", (0.0, 1.0)), ("slip_prob", (0.1, 0.1)),
                              ("step_reward", (0.0, 0.05))):
        value = getattr(base, name) + mu + sigma * rng.standard_normal()
        changes[name] = min(max(value, 0.0), 0.95) if name == "slip_prob" else value
    if rng.choice(2, p=np.array([0.5, 0.5])) == 1:
        changes["start"], changes["goal"] = base.goal, base.start
    return replace(base, **changes)


def test_batched_solver_tables():
    digest = hashlib.sha256()
    for width, height, start, horizon in ((5, 5, (2, 2), 4), (7, 6, (3, 3), 6)):
        sims, reals = [], []
        for dx, dy in ((0, -1), (0, 1), (-1, 0), (1, 0)):
            base = GridEnv(width=width, height=height, start=start,
                           goal=(start[0] + 2 * dx, start[1] + 2 * dy), horizon=horizon)
            for seed in range(8):
                sims.append(_randomized(base, seed))
                reals.append(replace(base, step_reward=-1.2))
        sim_nxt, sim_rewards = EnvBatch.of(sims).tables()
        real_nxt, real_rewards = EnvBatch.of(reals).tables()
        delta = reward_discrepancy(real_rewards, sim_rewards)
        sim = solve_batch(sim_nxt, sim_rewards, [e.slip_prob for e in sims], horizon, 0.9)
        real = solve_batch(real_nxt, real_rewards + 0.5 * delta,
                           [e.slip_prob for e in reals], horizon, 0.9)
        for i in range(len(sims)):
            for actions, values in ((sim[0][i], sim[1][i]), (real[0][i], real[1][i])):
                digest.update(np.asarray(actions, dtype=np.int64).tobytes())
                digest.update(np.asarray(values, dtype=float).tobytes())
    assert digest.hexdigest() == SOLVER_TABLES


@pytest.mark.parametrize("name", sorted(DATASET_FILES))
def test_dataset_file_digests(tmp_path, name):
    path = tmp_path / "dataset.json"
    save(generate(DATASET_CONFIGS[name]), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DATASET_FILES[name]


def _hand_written(path):
    """A valid dataset file in json.dumps' default spacing whose numbers the
    generator never writes: integer features and trust, a negative zero, small
    and large exponents and a subnormal."""
    save(generate(GeneratorConfig(n_per_modality=2, seed=3)), path)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    records = payload["records"]
    records[0]["features"][:6] = [1, -0.0, 1e-07, 1e16, 5e-324, -3]
    records[1]["features"][2:5] = [2.5e-310, -1e-300, 123456789012345678]
    records[2]["trust"] = 1
    records[3]["trust"] = 0
    records[4]["features"][7] = 0
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def test_dataset_round_trip_digest(tmp_path):
    source, again = tmp_path / "hand.json", tmp_path / "again.json"
    _hand_written(str(source))
    save(load(str(source)), str(again))
    assert hashlib.sha256(again.read_bytes()).hexdigest() == DATASET_ROUND_TRIP
