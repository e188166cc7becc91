import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from msr.cli import main
from msr.config import RunConfig
from msr.dataset import (
    MODALITIES,
    FeatureGeometry,
    GeneratorConfig,
    ModalRecord,
    generate,
    load,
    save,
)
from msr.errors import ConfigError, EmptyInputError
from msr.evaluation import metrics
from msr.ingest import filter_by_trust
from msr.pipeline import build_context, execute_run, process_record
from msr.sim2real import RandomizationConfig

from test_chunk_oracle import assert_same_columns
from test_dataset import oracle_action, oracle_memory

GEN = GeneratorConfig(n_per_modality=200, seed=13)


@pytest.fixture(scope="module")
def run_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = RunConfig(generator=GEN, seed=13, out_dir=str(out))
    return execute_run(cfg), cfg


class TestGoalWiring:
    def test_goal_cells_per_direction(self):
        envs = RunConfig().grid.envs()
        # up, down, left, right: goal_distance 2 from the start (2, 2)
        assert [sim.goal for sim, _ in envs] == [(2, 0), (2, 4), (0, 2), (4, 2)]
        for sim, real in envs:
            assert sim.start == real.start == (2, 2) and real.goal == sim.goal
            assert (sim.step_reward, real.step_reward) == (-1.0, -1.2)

    def test_goal_off_the_grid_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"grid": {"goal_distance": 3}}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid: goal (2, -1) outside the 5x5 grid"), err

    def test_swapped_sim_starts_at_the_base_goal(self):
        # the swapped simulated env starts where the goal would be and heads
        # back, so its first move is opposite the decision's direction
        from msr.pipeline import run_modality
        from msr.sim2real import MOVES

        cfg = RunConfig(generator=GEN, seed=13, randomization=RandomizationConfig(
            variants={"swap_start_goal": 1.0}))
        for modality in MODALITIES:
            out = run_modality(cfg, GEN, modality, generate(GEN).by_modality(modality),
                               1).outcomes
            sim_moves = np.asarray(MOVES)[out.sim_first_action]
            assert (sim_moves == -np.asarray(MOVES)[out.decision_id]).all(), modality
            assert (out.policy_action == out.decision_id).all()


def _survivors(cfg, modality):
    records = generate(GEN).by_modality(modality)
    return records[filter_by_trust(records.trust, cfg.tau)]


class TestProcessRecord:
    def test_pure_and_deterministic(self):
        cfg = RunConfig(generator=GEN, seed=13)
        survivors = _survivors(cfg, "visual")
        ctx = build_context(cfg, GEN, "visual", survivors)
        assert_same_columns(process_record(ctx, survivors, 0),
                            process_record(ctx, survivors, 0))

    def test_decision_and_policy_agree_with_oracle(self):
        cfg = RunConfig(generator=GEN, seed=13)
        survivors = _survivors(cfg, "auditory")
        ctx = build_context(cfg, GEN, "auditory", survivors)
        geom = FeatureGeometry.from_config(GEN)
        for row in range(40):
            out = process_record(ctx, survivors, row)
            latent = oracle_action(geom, survivors.features[row])
            assert out.decision_id.tolist() == [latent]
            assert out.policy_action.tolist() == [latent]

    def test_retrieval_matches_memory_oracle(self):
        cfg = RunConfig(generator=GEN, seed=13)
        survivors = _survivors(cfg, "tactile")
        ctx = build_context(cfg, GEN, "tactile", survivors)
        geom = FeatureGeometry.from_config(GEN)
        for row in range(40):
            out = process_record(ctx, survivors, row)
            assert out.retrieved_label.tolist() == [oracle_memory(geom, survivors.features[row])]

    def test_confidence_is_a_probability(self):
        cfg = RunConfig(generator=GEN, seed=13)
        survivors = _survivors(cfg, "visual")
        ctx = build_context(cfg, GEN, "visual", survivors)
        for row in range(10):
            out = process_record(ctx, survivors, row)
            assert 0.0 < out.confidence[0] < 1.0
            assert 0.0 < out.relevance_mass[0] < 1.0


def test_generate_scenarios_gives_the_records_own_scenarios(monkeypatch):
    from msr import pipeline, seeding
    from msr.scenario import generate_scenarios, perturb, scenario_utilities

    cfg = RunConfig(generator=GEN, seed=13)
    survivors = _survivors(cfg, "auditory")[:24]
    ctx = build_context(cfg, GEN, "auditory", survivors)
    calls = []

    def spy(map_rows, m_count, noise_width, u):
        calls.append((np.array(map_rows), perturb(map_rows, m_count, noise_width, u)))
        return calls[-1][1]

    monkeypatch.setattr(pipeline, "perturb", spy)
    pipeline.score_chunk(ctx, survivors)
    maps, own = calls[0]  # the records' own scenarios come first; the reference pool next
    for row, record_id in enumerate(survivors.ids.tolist()):
        draws = seeding.keyed_uniforms(cfg.seed, seeding.SCENARIO_NOISE, ctx.modality_index,
                                       [record_id], cfg.m_count * maps.shape[1])[0]
        scenarios = generate_scenarios(maps[row], cfg.m_count, cfg.noise_width, draws)
        assert np.stack([s.attributes for s in scenarios]).tobytes() == own[row].tobytes()
        assert [s.utility for s in scenarios] == scenario_utilities(own[row]).tolist()


def test_scoring_and_merge_build_no_per_record_objects(monkeypatch, tmp_path):
    from msr import decision, evaluation, executor, pipeline, sim2real

    def refuse(*args, **kwargs):
        raise AssertionError("per-record object or call in phase 1 or the merge")

    for owner, name in ((sim2real, "optimize_policy"), (sim2real, "refine_policy"),
                        (sim2real, "rollout"), (sim2real.EnvBatch, "env"),
                        (decision.DecisionCandidate, "__init__"),
                        (decision.FeedbackHistory, "__init__"),
                        (pipeline, "select_optimal_action"), (executor, "select_optimal_action"),
                        (pipeline, "record_outcome"), (evaluation, "record_outcome")):
        monkeypatch.setattr(owner, name, refuse)
    res = execute_run(RunConfig(generator=GEN, seed=13, out_dir=str(tmp_path)))
    with open(res.trace_path, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 3 * GEN.n_per_modality


def test_alignment_plans_in_batch(monkeypatch):
    from msr import pipeline, seeding, sim2real
    from msr.config import GridSpec
    from msr.dataset import MODALITIES

    cfg = RunConfig(generator=GEN, seed=13, grid=GridSpec(slip_prob=0.2))
    data = generate(GEN)
    results = [pipeline.run_modality(cfg, GEN, m, data.by_modality(m), 1) for m in MODALITIES]

    def refuse(*args, **kwargs):
        raise AssertionError("single-environment plan or rollout, or a numpy generator, "
                             "in alignment")

    # every draw of alignment is a keyed uniform: no numpy generator or seed
    # sequence is built, and no substream asked for
    for owner, name in ((sim2real, "optimize_policy"), (sim2real, "refine_policy"),
                        (sim2real, "rollout"), (sim2real.EnvBatch, "env"),
                        (pipeline, "build_envs"), (pipeline, "optimize_policy"),
                        (pipeline, "refine_policy"), (pipeline, "rollout"),
                        (np.random, "default_rng"), (np.random, "Generator"),
                        (np.random, "SeedSequence"), (np.random, "RandomState"),
                        (seeding, "substream")):
        monkeypatch.setattr(owner, name, refuse)
    assert 0.0 <= pipeline.run_alignment(cfg, results) <= 1.0


@pytest.mark.parametrize("workers", [1, 2])
def test_no_record_objects_from_generate_to_outputs(tmp_path, monkeypatch, workers):
    from msr import pipeline

    # forked pool workers add to the same shared counter
    built = multiprocessing.Value("i", 0)
    init = ModalRecord.__init__

    def counted(self, *args, **kwargs):
        with built.get_lock():
            built.value += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ModalRecord, "__init__", counted)
    # several chunks, so the pool runs
    monkeypatch.setattr(pipeline, "chunk_records", lambda grid: 16)
    path = str(tmp_path / "data.json")
    save(generate(GEN), path)
    data = load(path)
    execute_run(RunConfig(generator=GEN, seed=13, workers=workers,
                          out_dir=str(tmp_path / "out")), data)
    assert built.value == 0
    # the records view builds them while it is iterated, one per record, and
    # keeps none, so a second iteration builds them again
    n = 3 * GEN.n_per_modality
    records = data.records
    assert len(records) == n and built.value == 0
    assert sum(1 for _ in records) == built.value == n
    assert sum(1 for _ in records) == n and built.value == 2 * n


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_python(cwd, args, **env):
    """Run python with `args` in a fresh process that imports msr from this
    checkout, with `env` as its only BLAS thread variables (this process
    imported msr, so its own environment already holds one)."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=120,
                          env={**base, **env, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_gen_save_load_run_import_no_scipy(tmp_path):
    # scipy is a test dependency only; a fresh process stands for `msr gen`
    # then `msr run --data`
    script = textwrap.dedent(f"""
        import sys
        import msr.cli
        from msr.config import RunConfig
        from msr.dataset import GeneratorConfig, generate, load, save
        from msr.pipeline import execute_run
        gen = GeneratorConfig(n_per_modality=20, seed=4)
        save(generate(gen), {str(tmp_path / "data.json")!r})
        execute_run(RunConfig(generator=gen, seed=4, out_dir={str(tmp_path / "out")!r}),
                    load({str(tmp_path / "data.json")!r}))
        assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
    """)
    _fresh_python(tmp_path, ["-c", script])
    assert (tmp_path / "out" / "trace.jsonl").exists()


def _import_leaves_unloaded(tmp_path, package):
    """Import msr.pipeline and msr.cli in a fresh interpreter and fail if
    `package` or any of its submodules was loaded."""
    script = ("import sys, msr.pipeline, msr.cli\n"
              f"loaded = sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r}))\n"
              "assert not loaded, loaded")
    _fresh_python(tmp_path, ["-c", script])


def test_import_does_not_load_numpy_random(tmp_path):
    # no stream of a run is a numpy Generator, so importing msr leaves
    # numpy.random unloaded (about 15 ms of import time)
    _import_leaves_unloaded(tmp_path, "numpy.random")


def test_import_does_not_load_multiprocessing(tmp_path):
    # only score_records' pool branch needs multiprocessing, so it imports
    # it there (about 12 ms of import time that a one-worker run skips)
    _import_leaves_unloaded(tmp_path, "multiprocessing")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
@pytest.mark.parametrize("first, env, threads, value", [
    # msr's products never split, so OpenBLAS's worker thread would only spin
    ("", {}, 1, "1"),
    # a count the user chose wins
    ("", {"OPENBLAS_NUM_THREADS": "2"}, 2, "2"),
    ("", {"OMP_NUM_THREADS": "2"}, None, None),
    # numpy's BLAS already chose its threads; setting the variable now would only mislead
    ("import numpy\n", {}, None, None),
], ids=["unset", "openblas-2", "omp-2", "numpy-first"])
def test_import_leaves_one_blas_thread_unless_chosen(tmp_path, first, env, threads, value):
    script = (first + "import os, msr.pipeline\n"
              "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")
    count, seen = _fresh_python(tmp_path, ["-c", script], **env).split()
    assert seen == str(value)
    if threads is not None:
        # OpenBLAS caps the count at the CPUs this process may use
        assert int(count) == min(threads, len(os.sched_getaffinity(0)))


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # with slip 0 the solver's per_move @ mix_t multiplies by the identity,
    # so the slip config is the one that could show a kernel difference
    (tmp_path / "slip.json").write_text(json.dumps({"grid": {"slip_prob": 0.2}}))
    digests = {}
    for threads in ("1", "2"):
        run = tmp_path / threads
        run.mkdir()
        _fresh_python(run, ["-m", "msr.cli", "gen", "--n", "200", "--out", "data.json"],
                      OPENBLAS_NUM_THREADS=threads)
        for config in ("default", "slip"):
            extra = [] if config == "default" else ["--config", str(tmp_path / "slip.json")]
            _fresh_python(run, ["-m", "msr.cli", "run", "--data", "data.json", "--out", config,
                                *extra], OPENBLAS_NUM_THREADS=threads)
        digests[threads] = {str(p.relative_to(run)): hashlib.sha256(p.read_bytes()).hexdigest()
                            for p in sorted(run.rglob("*")) if p.is_file()}
    assert len(digests["1"]) == 13  # the dataset and each config's six outputs
    assert digests["1"] == digests["2"]


def test_run_does_not_load_numpy_ma(tmp_path):
    # np.unique without return_counts imports numpy.ma (numpy 2.4), 8-20 ms
    # and about 0.5 MB of a fresh `msr run`
    script = textwrap.dedent(f"""
        import sys
        import msr.cli
        from msr.config import RunConfig
        from msr.dataset import GeneratorConfig
        from msr.pipeline import execute_run
        gen = GeneratorConfig(n_per_modality=20, seed=4)
        execute_run(RunConfig(generator=gen, seed=4, out_dir={str(tmp_path / "out")!r}))
        loaded = sorted(m for m in sys.modules if (m + ".").startswith("numpy.ma."))
        assert not loaded, loaded
    """)
    _fresh_python(tmp_path, ["-c", script])
    assert (tmp_path / "out" / "trace.jsonl").exists()


def test_failed_trace_write_keeps_the_previous_trace(tmp_path, monkeypatch):
    from msr import pipeline

    def outputs(out):
        return {name: (out / name).read_bytes() for name in os.listdir(out)}

    out = tmp_path / "run"
    execute_run(RunConfig(generator=GEN, seed=13, out_dir=str(out)))
    before = outputs(out)
    assert sorted(before) == sorted(
        ["report.md", "run_summary.json", "trace.jsonl"]
        + [f"report_{m}.csv" for m in ("auditory", "tactile", "visual")])
    # a second config, whose every output differs from the first's
    second = RunConfig(generator=GEN, seed=13, tau=0.4, out_dir=str(out))
    execute_run(second, out_dir=str(tmp_path / "second"))
    differs = outputs(tmp_path / "second")
    assert all(before[name] != differs[name] for name in before)
    # blocks of 150 rows: the first holds visual records only, and the write
    # fails in the second, after the first is in the temporary file; each
    # modality's share of a block is noted with its first row in id order
    monkeypatch.setattr(pipeline, "SAVE_BLOCK", 150)
    trace_blocks, formatted = pipeline.trace_blocks, []

    def unwritable(dataset, results):
        rows = dict.fromkeys(MODALITIES, 0)
        for block, text in enumerate(trace_blocks(dataset, results)):
            owners = [json.loads(line)["modality"] for line in bytes(text).splitlines()]
            for modality in dict.fromkeys(owners):
                formatted.append((modality, rows[modality]))
                rows[modality] += owners.count(modality)
            yield None if block == 1 else text

    monkeypatch.setattr(pipeline, "trace_blocks", unwritable)
    with pytest.raises(TypeError):
        execute_run(second)
    assert formatted == [("visual", 0), ("visual", 150), ("auditory", 0)]
    assert outputs(out) == before


def test_run_memory_grows_slower_than_its_trace(tmp_path):
    # the trace is formatted from the outcome columns one block of rows at a
    # time, so the run's peak grows with its columns, not with its lines: from
    # 10,000 to 20,000 visual records the peak grew 2.1 MB against 2.5 MB of
    # trace, where holding every line until the write grew it 7.2 MB
    grown = []
    for n in (10_000, 20_000):
        gen = GeneratorConfig(n_per_modality=n, seed=42)
        data = generate(gen)
        cfg = RunConfig(generator=gen, seed=42, modalities=("visual",))
        tracemalloc.start()
        try:
            res = execute_run(cfg, data, str(tmp_path / str(n)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grown.append((peak, os.path.getsize(res.trace_path)))
    (peak_a, trace_a), (peak_b, trace_b) = grown
    assert peak_b - peak_a < trace_b - trace_a


def test_trace_writer_holds_one_step_of_text():
    # the writer formats about _TRACE_CELLS floats a step and keeps nothing
    # from one step to the next, so its peak does not grow with the records
    from msr import pipeline

    peaks = []
    for n in (10_000, 20_000):
        gen = GeneratorConfig(n_per_modality=n, seed=42)
        data = generate(gen)
        cfg = RunConfig(generator=gen, seed=42)
        results = [pipeline.run_modality(cfg, gen, m, data.by_modality(m), 1)
                   for m in MODALITIES]
        tracemalloc.start()
        try:
            for _ in pipeline.trace_blocks(data, results):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 64 << 10


class TestExecuteRun:
    def test_outputs_written(self, run_result):
        res, cfg = run_result
        for m in ("visual", "auditory", "tactile"):
            assert os.path.exists(res.report_paths[m])
        assert os.path.exists(res.trace_path)
        assert os.path.exists(res.summary_path)
        assert os.path.exists(os.path.join(res.out_dir, "report.md"))

    def test_one_command_per_survivor(self, run_result):
        res, cfg = run_result
        ds = generate(GEN)
        with open(res.trace_path) as fh:
            lines = [json.loads(line) for line in fh]
        assert len(lines) == len(ds.records)
        assert [l["id"] for l in lines] == list(range(len(ds.records)))
        for line, record in zip(lines, ds.records):
            kept = record.trust > cfg.tau
            assert line["kept"] == kept
            assert ("action" in line) == kept

    def test_step1_counts_match_filter(self, run_result):
        res, cfg = run_result
        ds = generate(GEN)
        for m in ("visual", "auditory", "tactile"):
            conf = res.confusions[m][1]
            records = ds.by_modality(m)
            assert conf.total == len(records)
            kept = int(np.count_nonzero(records.trust > cfg.tau))
            assert conf.tp + conf.fp == kept

    def test_survivor_steps_scored(self, run_result):
        res, cfg = run_result
        ds = generate(GEN)
        for m in ("visual", "auditory", "tactile"):
            survivors = int(np.count_nonzero(ds.by_modality(m).trust > cfg.tau))
            for step in range(2, 8):
                assert res.confusions[m][step].total == survivors

    def test_metrics_reasonable_on_small_run(self, run_result):
        res, _ = run_result
        for m, confs in res.confusions.items():
            for step in range(1, 8):
                acc = metrics(confs[step]).accuracy
                assert 0.75 <= acc <= 1.0, (m, step, acc)

    def test_feedback_means_accumulate_in_id_order(self, run_result):
        res, _ = run_result
        with open(res.trace_path) as fh:
            lines = [json.loads(line) for line in fh if '"kept":true' in line]
        seen = {}
        for line in lines:
            if line["modality"] != "visual":
                continue
            key = line["decision"]
            history = seen.setdefault(key, [])
            expected = sum(history) / len(history) if history else 0.0
            assert line["feedback_mean"] == pytest.approx(expected, abs=1e-12)
            history.append(line["outcome"])


class TestRunModes:
    def test_modality_filter(self, tmp_path):
        cfg = RunConfig(generator=GEN, seed=13, modalities=("visual",),
                        out_dir=str(tmp_path / "vis"))
        res = execute_run(cfg)
        assert list(res.report_paths) == ["visual"]
        assert not os.path.exists(os.path.join(res.out_dir, "report_tactile.csv"))

    def test_dataset_path_round_trip(self, tmp_path):
        from msr.dataset import save
        ds = generate(GEN)
        data_path = tmp_path / "ds.json"
        save(ds, str(data_path))
        cfg = RunConfig(generator=GEN, dataset_path=str(data_path), seed=13,
                        out_dir=str(tmp_path / "out"))
        res = execute_run(cfg)
        assert res.confusions["visual"][1].total == GEN.n_per_modality
        # input dataset untouched
        assert save is not None and data_path.read_bytes() == data_path.read_bytes()

    def test_everything_filtered_is_an_error(self, tmp_path):
        cfg = RunConfig(generator=GEN, seed=13, tau=1.0, out_dir=str(tmp_path / "x"))
        with pytest.raises(EmptyInputError):
            execute_run(cfg)

    def test_workers_do_not_change_results(self, tmp_path):
        outs = {}
        for workers in (1, 4):
            cfg = RunConfig(generator=GEN, seed=13, workers=workers,
                            out_dir=str(tmp_path / f"w{workers}"))
            res = execute_run(cfg)
            outs[workers] = {
                os.path.basename(p): open(p, "rb").read()
                for p in [*res.report_paths.values(), res.trace_path, res.summary_path]
            }
        assert outs[1] == outs[4]

    @pytest.mark.parametrize("extra", [
        {"grid": {"slip_prob": 0.2}},
        {"randomization": {"continuous": {"slip_prob": [0.1, 0.05]}}},
    ])
    def test_slippery_runs_finish_and_repeat(self, tmp_path, extra):
        outs = []
        for rerun in range(2):
            cfg = RunConfig.from_mapping({
                "generator": GEN.to_mapping(), "seed": 13,
                "out_dir": str(tmp_path / f"r{rerun}"), **extra})
            res = execute_run(cfg)
            outs.append({
                os.path.basename(p): open(p, "rb").read()
                for p in [*res.report_paths.values(), res.trace_path, res.summary_path]
            })
        assert outs[0] == outs[1]

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(tau=2.0)
        with pytest.raises(ConfigError):
            RunConfig(generator=GeneratorConfig(n_actions=6))
