"""One step of a benchmark repetition, in a fresh process.

    python3 perfbench/rep.py gen    SPEC_JSON   # what `msr gen` does
    python3 perfbench/rep.py setup  SPEC_JSON   # what `msr run --data` pays first
    python3 perfbench/rep.py run    SPEC_JSON   # what `msr run --data` does
    python3 perfbench/rep.py traced SPEC_JSON   # gen + run under the tracer

`msr` must be importable (run.py puts the checkout's `src` on PYTHONPATH).
Prints one JSON object of measurements as its last line. Nothing from msr
is imported at module level, so `run` times the package import itself.
Each timed call runs once: run.py spreads many short samples of every
metric over the whole run instead of repeating one call back to back.
"""

import json
import os
import resource
import sys
import time


def _peak_rss_mb() -> float:
    """Peak RSS of this process or of any waited-for child (pool workers)."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _timed(fn, *args):
    """(seconds, result) of one call of fn(*args)."""
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def _configs(spec: dict):
    from msr.config import RunConfig
    from msr.dataset import GeneratorConfig

    generator = GeneratorConfig(n_per_modality=spec["n"], seed=spec["seed"])
    run_cfg = RunConfig(generator=generator, tau=spec["tau"], k=spec["k"],
                        m_count=spec["m_count"], workers=spec["workers"],
                        seed=spec["seed"], out_dir=spec["out"])
    return generator, run_cfg


def gen(spec: dict) -> dict:
    from msr import dataset

    generator, _ = _configs(spec)
    gen_s, data = _timed(dataset.generate, generator)
    save_s, _ = _timed(dataset.save, data, spec["path"])
    survivors = {m: 0 for m in dataset.MODALITIES}
    for r in data.records:
        survivors[r.modality] += r.trust > spec["tau"]
    return {"gen_s": gen_s, "save_s": save_s, "survivors": survivors,
            "records": len(data.records), "peak_rss_mb": _peak_rss_mb()}


def _setup(spec: dict):
    """(seconds, dataset) of `import msr.pipeline` plus `dataset.load`."""
    t0 = time.perf_counter()
    import msr.pipeline  # noqa: F401
    from msr import dataset

    data = dataset.load(spec["path"])
    return time.perf_counter() - t0, data


def setup(spec: dict) -> dict:
    setup_s, _ = _setup(spec)
    return {"setup_s": setup_s}


def run(spec: dict) -> dict:
    setup_s, data = _setup(spec)
    import msr.pipeline  # already imported and timed by _setup

    _, run_cfg = _configs(spec)
    run_s, _ = _timed(msr.pipeline.execute_run, run_cfg, data, spec["out"])
    return {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": _peak_rss_mb()}


def traced(spec: dict) -> dict:
    from msr import dataset, pipeline
    from tracer import Tracer, install

    generator, run_cfg = _configs(spec)
    tracer = Tracer(f"{spec['run_id']}-{os.getpid()}")
    install(tracer)
    with tracer.span("dataset.generate"):
        data = dataset.generate(generator)
    with tracer.span("dataset.save"):
        dataset.save(data, spec["path"])
    del data
    with tracer.span("dataset.load"):
        data = dataset.load(spec["path"])
    t0 = time.perf_counter()
    pipeline.execute_run(run_cfg, data, spec["out"])
    run_s = time.perf_counter() - t0
    tracer.write(spec["spans"])
    return {"run_s": run_s, "counters": tracer.counters,
            "spans": len(tracer.start)}


if __name__ == "__main__":
    mode, spec_json = sys.argv[1:3]
    result = {"gen": gen, "setup": setup, "run": run, "traced": traced}[mode](json.loads(spec_json))
    print(json.dumps(result))
