"""Benchmark of the msr harness, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It does what a user's `msr gen` followed
by `msr run --data` does, as steps in fresh processes (perfbench/rep.py):
`gen` times `dataset.generate` and `dataset.save`, `setup` times
`import msr.pipeline` plus `dataset.load`, and `run` times the same set-up
and then `pipeline.execute_run`. It is a closed loop: one step at a time,
cycling gen, setup, run for as long as --seconds allows, each kind at least
once. Every step's files are checked. With --trace 1 the steps get half of
--seconds and one more repetition runs under perfbench/tracer.py; the
per-layer numbers come from it.

The last stdout line is one JSON object: correct, attempted, failed and the
metrics (end-to-end trimmed means with --trace 0, per-layer with --trace 1).
"""

import argparse
import contextlib
import csv
from importlib import metadata
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REP = os.path.join(HERE, "rep.py")

from tracer import layer_times, read_spans, run_partition  # noqa: E402  (script dir)

# Why each workload exists is in BENCHMARK.json; n is records per modality.
WORKLOADS = {
    # the ROADMAP default experiment: per-record phase 1 dominates
    "reference": {"n": 10_000, "tau": 0.5, "k": 4, "m_count": 16, "workers": 1},
    # ~2% survive: dataset I/O and all-record work dominate
    "sparse-survivors": {"n": 15_000, "tau": 0.85, "k": 4, "m_count": 16, "workers": 1},
}
# the steps of one repetition, in the order the loop cycles through them
CYCLE = ("gen", "setup", "run")
END_TO_END = (("setup_s", "s"), ("gen_s", "s"), ("save_s", "s"), ("run_s", "s"),
              ("peak_rss_mb", "MB"))
N_STEPS = 7
MODALITIES = ("visual", "auditory", "tactile")
OUTPUT_FILES = tuple(sorted([f"report_{m}.csv" for m in MODALITIES]
                            + ["report.md", "trace.jsonl", "run_summary.json"]))
# a whole invocation must end within 180 s
DEADLINE_S = 170.0


class RepFailed(Exception):
    """A step raised, timed out or produced wrong output."""


# what a failed step can raise here: bad or missing output files
REP_ERRORS = (RepFailed, OSError, ValueError, KeyError)


def machine_facts() -> str:
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={metadata.version('numpy')} scipy={metadata.version('scipy')} "
            f"start_method={multiprocessing.get_start_method()} loadavg_at_start={load}")


def child_env() -> dict:
    """Children import msr from the checkout and may cache its bytecode
    there, so setup_s is the cached import a user's `msr run` pays whether
    or not the caller set PYTHONDONTWRITEBYTECODE."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def child(mode: str, spec: dict, deadline: float) -> dict:
    """Run one rep.py step in its own process group and return its JSON."""
    proc = subprocess.Popen([sys.executable, REP, mode, json.dumps(spec)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=child_env(), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RepFailed(f"{mode}: timed out") from None
    finally:
        # the whole group: strays such as pool workers, or everything on a
        # timeout or SIGTERM
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        tail = err.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        raise RepFailed(f"{mode}: {tail[0]}")
    return json.loads(out.strip().splitlines()[-1])


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_reports(out_dir: str) -> None:
    for modality in MODALITIES:
        with open(os.path.join(out_dir, f"report_{modality}.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) != N_STEPS + 1 or [r[0] for r in rows[1:]] != [str(s) for s in range(1, N_STEPS + 1)]:
            raise RepFailed(f"report_{modality}.csv: expected steps 1..{N_STEPS}")
        for row in rows[1:]:
            for cell in row[1:]:
                if cell != "n/a" and not 0.0 <= float(cell) <= 1.0:
                    raise RepFailed(f"report_{modality}.csv: value {cell} outside [0, 1]")


def check_outputs(out_dir: str, tau: float, n_records: int, survivors: dict) -> int:
    """Full check of one run's outputs; returns how many survivors' refined
    policy action differs from their sim policy's first action."""
    if tuple(sorted(os.listdir(out_dir))) != OUTPUT_FILES:
        raise RepFailed(f"output files {sorted(os.listdir(out_dir))}")
    with open(os.path.join(out_dir, "run_summary.json")) as fh:
        summary = json.load(fh)
    if summary["survivors"] != survivors:
        raise RepFailed(f"survivors {summary['survivors']} != inputs' trust > tau {survivors}")
    kept = dict.fromkeys(MODALITIES, 0)
    flips = 0
    n_lines = 0
    with open(os.path.join(out_dir, "trace.jsonl")) as fh:
        for expected_id, line in enumerate(fh):
            rec = json.loads(line)
            if rec["id"] != expected_id or rec["kept"] != (rec["trust"] > tau):
                raise RepFailed(f"trace.jsonl line {expected_id + 1}: id {rec['id']}, kept {rec['kept']}")
            if rec["kept"]:
                kept[rec["modality"]] += 1
                flips += rec["steps"]["s6"] != rec["sim_first_action"]
            n_lines += 1
    if n_lines != n_records or kept != survivors:
        raise RepFailed(f"trace.jsonl: {n_lines} lines, kept {kept}")
    check_reports(out_dir)
    return flips


class Checker:
    """Checks every step's files. The dataset and the outputs must be
    byte-identical across steps, so only the first of each is parsed; the
    rest must match its sha256 digests."""

    def __init__(self, tau: float):
        self.tau = tau
        self.digests = None
        self.dataset_digest = None
        self.inputs = None
        self.replan_flips = None

    def dataset(self, dataset_path: str, gen: dict) -> None:
        data = sha256(dataset_path)
        inputs = {"records": gen["records"], "survivors": gen["survivors"]}
        if self.dataset_digest is None:
            self.dataset_digest, self.inputs = data, inputs
        elif data != self.dataset_digest or inputs != self.inputs:
            raise RepFailed("dataset differs from the first generated one")

    def outputs(self, out_dir: str) -> None:
        digests = {name: sha256(os.path.join(out_dir, name)) for name in OUTPUT_FILES
                   if os.path.exists(os.path.join(out_dir, name))}
        if self.digests is None:
            self.replan_flips = check_outputs(out_dir, self.tau, self.inputs["records"],
                                              self.inputs["survivors"])
            self.digests = digests
        elif digests != self.digests:
            changed = sorted(k for k in OUTPUT_FILES if digests.get(k) != self.digests[k])
            raise RepFailed(f"outputs differ from the first run's: {changed}")


def step(kind: str, spec: dict, checker: Checker, deadline: float) -> dict:
    """One measured step in a fresh process; returns its samples."""
    if kind != "run":
        result = child(kind, spec, deadline)
        if kind == "gen":
            checker.dataset(spec["path"], result)
        return result
    try:
        result = child("run", spec, deadline)
        checker.outputs(spec["out"])
    finally:
        shutil.rmtree(spec["out"], ignore_errors=True)
    return result


def trimmed_mean(values: list) -> float:
    """Mean without the highest and the lowest value (of all if fewer than five)."""
    values = sorted(values)
    cut = 1 if len(values) >= 5 else 0
    return statistics.mean(values[cut:len(values) - cut])


def traced_repetition(spec: dict, checker: Checker, deadline: float,
                      untraced_run_s: float) -> dict:
    out = os.path.join(WORK, "out-traced")
    spans_path = os.path.join(WORK, f"spans-{spec['run_id']}.csv")
    spec = dict(spec, out=out, spans=spans_path)
    try:
        result = child("traced", spec, deadline)
        checker.dataset(spec["path"], checker.inputs)
        checker.outputs(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    gen = checker.inputs
    times = layer_times(read_spans(spans_path))
    part = run_partition(times)
    calls, total = times["calls"], times["total_s"]
    survivors = sum(gen["survivors"].values())
    readouts = calls.get("memory.MemoryStore.attention_readout", 0)
    sparse = result["counters"].get("memory.sparse_readout", 0)
    flips = checker.replan_flips
    score_s = total.get("pipeline.score_records", 0.0)
    metrics = {
        "seeding.run_self_s": (part["seeding.run_self_s"], "s"),
        "seeding.run_n": (calls.get("seeding.run", 0), "count"),
        "seeding.gen_self_s": (times["self_s"].get("seeding.gen_self_s", 0.0), "s"),
        "scenario.self_s": (part["scenario.self_s"], "s"),
        "scenario.generate_n": (calls.get("scenario.generate_scenarios", 0), "count"),
        "attention.self_s": (part["attention.self_s"], "s"),
        "memory.self_s": (part["memory.self_s"], "s"),
        "memory.readout_n": (readouts, "count"),
        "memory.sparse_readout_n": (sparse, "count"),
        "memory.sparse_readout_ratio": (sparse / readouts if readouts else 0.0, "ratio"),
        "decision.self_s": (part["decision.self_s"], "s"),
        "decision.feedback_mean_s": (total.get("decision.FeedbackHistory.mean", 0.0), "s"),
        "sim2real.self_s": (part["sim2real.self_s"], "s"),
        "sim2real.solve_n": (calls.get("sim2real.optimize_policy", 0)
                             + calls.get("sim2real.refine_policy", 0), "count"),
        "sim2real.replan_flip_n": (flips, "count"),
        "sim2real.replan_flip_ratio": (flips / survivors, "ratio"),
        "sim2real.align_s": (total.get("sim2real.run_alignment", 0.0), "s"),
        "ingest.self_s": (part["ingest.self_s"], "s"),
        "ingest.survivor_n": (survivors, "count"),
        "ingest.survivor_ratio": (survivors / gen["records"], "ratio"),
        "evaluation.self_s": (part["evaluation.self_s"], "s"),
        "executor.self_s": (part["executor.self_s"], "s"),
        "pipeline.glue_s": (part["pipeline.glue_s"], "s"),
        "pipeline.score_s": (score_s, "s"),
        "pipeline.merge_s": (part["pipeline.merge_s"], "s"),
        "pipeline.write_s": (part["pipeline.write_s"], "s"),
        "pipeline.context_s": (part["pipeline.context_s"], "s"),
        "pipeline.dispatch_s": (part["pipeline.dispatch_s"], "s"),
        "pipeline.us_per_survivor": (score_s / survivors * 1e6, "us"),
        "dataset.load_s": (total.get("dataset.load", 0.0), "s"),
        "dataset.file_mb": (os.path.getsize(spec["path"]) / 1e6, "MB"),
        "trace.run_s": (result["run_s"], "s"),
        "trace.overhead_s": (result["run_s"] - untraced_run_s, "s"),
        "trace.unattributed_s": (result["run_s"] - sum(part.values()), "s"),
        "trace.spans": (result["spans"], "count"),
    }
    print(f"traced run: spans written to {os.path.relpath(spans_path, ROOT)}; "
          f"layer self times sum to {sum(part.values()):.4f} s of traced "
          f"run_s {result['run_s']:.4f} s (tracing overhead "
          f"{metrics['trace.overhead_s'][0]:+.4f} s against the untraced estimate)")
    print(f"counts with bases: replan flips {flips}/{survivors} survivors, "
          f"sparse readouts {sparse}/{readouts} readouts, "
          f"survivors {survivors}/{gen['records']} records")
    if spec["workers"] > 1:
        print("note: pool workers fork and are not traced; phase-1 layer fields "
              "(scenario, attention, memory, decision, sim2real, glue) count "
              "parent-side work only, and pipeline.score_s is the parent's pool wall time")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n-per-modality", type=int,
                        help="override the workload's record count (smoke tests)")
    parser.add_argument("--workers", type=int,
                        help="override the workload's worker count (baseline runs)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(SRC, "msr", "pipeline.py")):
        print(f"error: no msr sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    workload = dict(WORKLOADS[args.workload])
    if args.n_per_modality is not None:
        workload["n"] = args.n_per_modality
    if args.workers is not None:
        workload["workers"] = args.workers
    run_id = f"{args.workload}-seed{args.seed}"
    spec = dict(workload, seed=args.seed, run_id=run_id,
                path=os.path.join(WORK, "dataset.json"), out=os.path.join(WORK, "out"))

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"records/modality={workload['n']} tau={workload['tau']} k={workload['k']} "
          f"m_count={workload['m_count']} workers={workload['workers']} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: {machine_facts()}")

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    # compile and cache the package's bytecode so no setup_s sample pays for it
    subprocess.run([sys.executable, "-c", "import msr.pipeline"], check=True,
                   env=child_env(), timeout=60)

    checker = Checker(workload["tau"])
    samples = {name: [] for name, _ in END_TO_END}
    rss = {"gen": [], "run": []}
    durations = {kind: [] for kind in CYCLE}
    failures = []
    attempted = 0
    # with --trace 1 the traced repetition gets the second half
    budget = args.seconds / 2 if args.trace else args.seconds
    loop_start = time.monotonic()
    while True:
        ran = False
        for kind in CYCLE:
            elapsed = time.monotonic() - loop_start
            needed = statistics.median(durations[kind]) if durations[kind] else 0.0
            # every kind runs once; after that a step runs only if it fits
            if durations[kind] and elapsed + needed > budget:
                continue
            t0 = time.monotonic()
            attempted += 1
            ran = True
            try:
                result = step(kind, spec, checker, deadline)
            except REP_ERRORS as exc:
                failures.append(f"{kind}: {exc}")
                print(f"step {attempted} {kind}: FAILED {exc}")
                if kind == "gen" and checker.inputs is None:
                    break  # nothing to run on
            else:
                for name in samples:
                    if name in result:
                        samples[name].append(result[name])
                if kind in rss:
                    rss[kind].append(result["peak_rss_mb"])
                print(f"step {attempted} {kind}: " + " ".join(
                    f"{k}={v:.4f}" for k, v in result.items() if k in samples))
            durations[kind].append(time.monotonic() - t0)
        if not ran or checker.inputs is None:
            break

    if not rss["run"]:
        print(f"error: no run step succeeded: {failures[-1] if failures else ''}",
              file=sys.stderr)
        return 1
    # a user's `msr gen` then `msr run` peaks at the larger of the two
    samples["peak_rss_mb"] = [max(statistics.median(rss["gen"]), r) for r in rss["run"]]
    estimates = {name: trimmed_mean(values) for name, values in samples.items()}
    print(f"end_to_end, trimmed mean over each metric's samples "
          f"(seed {args.seed}, workload {args.workload}):")
    for name, unit in END_TO_END:
        values = ", ".join(f"{v:.4f}" for v in samples[name])
        print(f"  {name} = {estimates[name]:.4f} {unit}  "
              f"(median {statistics.median(samples[name]):.4f}) [{values}]")

    if args.trace:
        attempted += 1
        try:
            per_layer = traced_repetition(spec, checker, deadline, estimates["run_s"])
        except REP_ERRORS as exc:
            failures.append(f"traced: {exc}")
            print(f"traced rep: FAILED {exc}")
            per_layer = None

    failed = len(failures)
    print(f"error_rate = {failed}/{attempted} = {failed / attempted:.4f}")
    print("output sha256: " + json.dumps(checker.digests, sort_keys=True))
    print(f"dataset sha256: {checker.dataset_digest}")

    for name in os.listdir(WORK):
        if not name.startswith("spans-"):
            path = os.path.join(WORK, name)
            shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)

    if args.trace:
        if per_layer is None:
            print("error: traced repetition failed", file=sys.stderr)
            return 1
        metrics = per_layer
        print(f"per_layer (traced repetition, seed {args.seed}, workload {args.workload}):")
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
    else:
        metrics = {name: (estimates[name], unit) for name, unit in END_TO_END}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
