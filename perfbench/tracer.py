"""In-memory span tracer for one benchmark process, and the per-layer
aggregation of the spans it writes out.

`install` wraps, from outside the package, the module-level names that
`msr.pipeline` calls into each layer, the `MemoryStore` and
`FeedbackHistory` methods, and `msr.seeding`'s stream constructors. Each
call then records a span: name, start, end, parent span and the run id the
whole file shares. Spans stay in flat arrays until `Tracer.write`.

Pool workers are forked from the traced process; the fork hook switches
tracing off in them, so on a multi-worker run only parent-side spans exist.
"""

from array import array
from contextlib import contextmanager
import csv
import os
import time

# layer -> names that msr.pipeline looks up in its own module globals
PIPELINE_CALLS = {
    "ingest": ("filter_by_trust", "fit_norm_stats", "normalize",
               "extract_features", "fuse"),
    "scenario": ("integrate", "semantic_features", "feature_map",
                 "generate_scenarios", "scenario_utility"),
    "attention": ("relevance_scores", "top_k_by_relevance", "refine_scenario"),
    "memory": ("cosine_score",),
    "decision": ("decompose", "subtask_priority", "select_decision",
                 "decision_utility"),
    # build_envs and run_alignment live in msr.pipeline but do nothing except
    # construct environments and run the adversarial alignment
    "sim2real": ("build_envs", "randomize_env", "optimize_policy",
                 "reward_table", "reward_discrepancy", "refine_policy",
                 "rollout", "align_features", "run_alignment"),
    "executor": ("select_optimal_action", "route_feedback"),
    "evaluation": ("record_outcome", "report"),
    "pipeline": ("execute_run", "run_modality", "build_context",
                 "score_records", "process_record"),
}
MEMORY_METHODS = ("ltm_retrieve", "attention_readout", "stm_append", "promote_to_ltm")
FEEDBACK_METHODS = ("add", "count", "mean")
SEEDING_CALLS = ("substream", "derived_seed")

# self time of the pipeline's own functions, by span name
PIPELINE_SELF = {
    "pipeline.execute_run": "pipeline.write_s",
    "pipeline.run_modality": "pipeline.merge_s",
    "pipeline.process_record": "pipeline.glue_s",
    "pipeline.build_context": "pipeline.context_s",
    "pipeline.score_records": "pipeline.dispatch_s",
}
LAYERS = ("ingest", "scenario", "attention", "memory", "decision", "sim2real",
          "executor", "evaluation")
SPAN_HEADER = ("run_id", "span_id", "parent_id", "name", "start_ns", "end_ns")


class Tracer:
    """Span recorder for the current process; parent spans come from a
    call stack, so it is for single-threaded code."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = []
        self._name_ids = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counters = {}
        self.enabled = True
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(self.stack[-1])
        self.name.append(nid)
        self.end.append(0)
        self.stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, fn, name: str):
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def write(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(SPAN_HEADER)
            for sid in range(len(self.start)):
                out.writerow((self.run_id, sid, self.parent[sid],
                              self.names[self.name[sid]], self.start[sid],
                              self.end[sid]))


def install(tracer: Tracer) -> None:
    """Route every traced call of an imported msr through `tracer`."""
    from msr import decision, memory, pipeline, seeding

    for layer, names in PIPELINE_CALLS.items():
        for name in names:
            setattr(pipeline, name, tracer.wrap(getattr(pipeline, name), f"{layer}.{name}"))
    for name in SEEDING_CALLS:
        setattr(seeding, name, tracer.wrap(getattr(seeding, name), f"seeding.{name}"))

    readout = memory.MemoryStore.attention_readout

    def counted_readout(store, query, tiers=(memory.STM, memory.LTM)):
        # the sparse path runs exactly when this many entries are scored
        if len(store._gather(tiers)) > store.sparse_readout_threshold:
            tracer.count("memory.sparse_readout")
        return readout(store, query, tiers)

    memory.MemoryStore.attention_readout = counted_readout
    for cls, layer, methods in ((memory.MemoryStore, "memory", MEMORY_METHODS),
                                (decision.FeedbackHistory, "decision", FEEDBACK_METHODS)):
        for name in methods:
            setattr(cls, name, tracer.wrap(getattr(cls, name),
                                           f"{layer}.{cls.__name__}.{name}"))


def read_spans(path: str) -> list:
    """(span_id, parent_id, name, start_ns, end_ns) rows in span-id order."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        if tuple(next(rows)) != SPAN_HEADER:
            raise ValueError(f"{path}: not a span file")
        return [(int(sid), int(parent), name, int(start), int(end))
                for _, sid, parent, name, start, end in rows]


def layer_times(spans: list) -> dict:
    """Per-layer self times and call counts from one traced process.

    Self time is a span's duration minus its children's. Ids grow with start
    time, so a parent always precedes its children.
    """
    child_ns = [0] * len(spans)
    root = [0] * len(spans)
    for sid, parent, _, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
            root[sid] = root[parent]
        else:
            root[sid] = sid

    self_s, total_s, calls = {}, {}, {}
    for sid, parent, name, start, end in spans:
        top = spans[root[sid]][2]
        if name.startswith("seeding."):
            bucket = "seeding.gen_self_s" if top == "dataset.generate" else "seeding.run_self_s"
            if top == "pipeline.execute_run":
                calls["seeding.run"] = calls.get("seeding.run", 0) + 1
        elif name in PIPELINE_SELF:
            bucket = PIPELINE_SELF[name]
        else:
            bucket = name.split(".", 1)[0] + ".self_s"
        self_ns = end - start - child_ns[sid]
        self_s[bucket] = self_s.get(bucket, 0.0) + self_ns / 1e9
        total_s[name] = total_s.get(name, 0.0) + (end - start) / 1e9
        calls[name] = calls.get(name, 0) + 1
    return {"self_s": self_s, "total_s": total_s, "calls": calls}


def run_partition(times: dict) -> dict:
    """The self-time buckets that together cover the execute_run span."""
    names = [f"{layer}.self_s" for layer in LAYERS]
    names += ["seeding.run_self_s"] + list(PIPELINE_SELF.values())
    return {name: times["self_s"].get(name, 0.0) for name in names}
