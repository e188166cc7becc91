"""The benchmark under perfbench/ looks up msr names from outside the
package: its tracer wraps pipeline layer functions, MemoryStore and
FeedbackHistory methods and seeding streams by name, and rep.py builds the
configs, generates, saves, loads and runs. Both steps run here on a tiny
spec, each in a fresh process, so removing a name they use fails this test
with that name. A third test pins which wrapped names no run calls."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _python(cwd, *args):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join([os.path.join(ROOT, "src"), PERFBENCH])}
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_tracer_installs(tmp_path):
    _python(tmp_path, "-c", "import tracer; tracer.install(tracer.Tracer('names'))")


def test_rep_gen_then_traced(tmp_path):
    spec = json.dumps({"n": 20, "seed": 5, "tau": 0.5, "k": 4, "m_count": 16, "workers": 1,
                       "out": str(tmp_path / "out"), "path": str(tmp_path / "data.json"),
                       "run_id": "names", "spans": str(tmp_path / "spans.csv")})
    rep = os.path.join(PERFBENCH, "rep.py")
    gen = json.loads(_python(tmp_path, rep, "gen", spec).splitlines()[-1])
    assert gen["records"] == 60
    traced = json.loads(_python(tmp_path, rep, "traced", spec).splitlines()[-1])
    assert traced["spans"] > 0
    assert (tmp_path / "out" / "trace.jsonl").exists()


# tracer-wrapped names that no run calls: every pipeline layer name from
# extract_features to process_record that the run does not reach, the
# MemoryStore and FeedbackHistory methods, and the seeding streams
UNCALLED_PIPELINE = (
    "extract_features", "fuse", "generate_scenarios", "scenario_utility",
    "top_k_by_relevance", "cosine_score", "decompose", "subtask_priority",
    "select_decision", "decision_utility", "build_envs", "randomize_env",
    "optimize_policy", "reward_table", "refine_policy", "rollout",
    "select_optimal_action", "route_feedback", "record_outcome", "process_record")
UNCALLED_METHODS = (
    ("MemoryStore", ("ltm_retrieve", "attention_readout", "stm_append", "promote_to_ltm")),
    ("FeedbackHistory", ("add", "count", "mean")))


@pytest.mark.parametrize("workers", [1, 2])
def test_run_calls_no_uncalled_traced_name(tmp_path, monkeypatch, workers):
    from msr import decision, memory, pipeline, seeding
    from msr.config import RunConfig
    from msr.dataset import GeneratorConfig

    def refuse(*args, **kwargs):
        raise AssertionError("a run called a traced name listed as uncalled")

    owners = {"MemoryStore": memory.MemoryStore, "FeedbackHistory": decision.FeedbackHistory}
    for name in UNCALLED_PIPELINE:
        monkeypatch.setattr(pipeline, name, refuse)
    for owner, names in UNCALLED_METHODS:
        for name in names:
            monkeypatch.setattr(owners[owner], name, refuse)
    for name in ("substream", "derived_seed"):
        monkeypatch.setattr(seeding, name, refuse)
    # forked pool workers inherit the patches; 16-record chunks give the pool
    # several chunks
    monkeypatch.setattr(pipeline, "chunk_records", lambda grid: 16)
    gen = GeneratorConfig(n_per_modality=120, seed=8)
    cfg = RunConfig.from_mapping({"generator": gen.to_mapping(), "seed": 8, "workers": workers,
                                  "out_dir": str(tmp_path / "out"),
                                  "grid": {"slip_prob": 0.2}, "sparse_readout_threshold": 2,
                                  "sparse_readout_top_n": 3})
    result = pipeline.execute_run(cfg)
    assert sum(len(res) for res in result.confusions.values()) == 21
