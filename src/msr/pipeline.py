"""End-to-end runner: dataset in, seven-step pipeline per record, confusion
tallies, trace and report files out.

Scoring is strictly two-phase so results cannot depend on worker layout:

  phase 1  every record is processed against run-constant state only (norm
           stats, the LTM prototype store, config thresholds); records are
           pure functions of (record, context) and may run in any order or
           process. `score_chunk` runs steps 2-7 on CHUNK_RECORDS survivors
           at a time as (N, ...) arrays; each record's draws are a row of
           keyed uniforms that depends only on its id, so every outcome
           equals the one-record result bit for bit whatever the chunking.
  phase 2  the merge over the concatenated columns in record-id order applies
           feedback: decision history means and feedback-adjusted utilities,
           and formats each record's trace line from the columns.

Alignment plans the first `align.samples` survivors per modality again in
one batch, as phase 1 does, and rolls each out over its rows of the tables.

Step semantics per record (predicted vs actual):
  1  kept by the trust filter            vs the stored valid flag
  2  own scenarios hold a strict majority of the top-k picked from the pool
     of m own + m neutral-reference scenarios
                                         vs the stored relevance flag
  3  summed softmax relevance of own scenarios > rel_threshold
                                         vs the stored relevance flag
  4  lower-half membership of the retrieved LTM label
                                         vs lower-half membership of mem_label
  5  lower-half membership of the selected decision id   vs that of action
  6  same for the refined policy's first action           vs that of action
  7  same for the executor's command (step 6's action)    vs that of action

Steps 4-7 compare through the half-partition view because the generator's
label noise always flips across that partition: the binary disagreement rate
equals the label flip rate exactly, which keeps all four confusion cells
populated.
"""

from dataclasses import dataclass, fields
import json
import multiprocessing
import os

import numpy as np

from . import seeding
from .attention import refine_scenario, relevance_scores, top_k_indices
from .config import RunConfig
from .dataset import (
    Columns,
    Dataset,
    FeatureGeometry,
    GeneratorConfig,
    MODALITIES,
    atomic_open,
    generate,
    half_partition,
    load,
)
from .decision import (
    ContextWeights,
    Subtask,
    decision_utilities,
    feedback_means,
    first_best,
    subtask_priority,
)
from .errors import EmptyInputError
from .evaluation import StepConfusion, report
from .executor import check_confidence
from .ingest import filter_by_trust, fit_norm_stats, normalize
from .memory import LTM, MemoryEntry, MemoryStore, cosine_scores
from .scenario import (
    feature_map,
    integrate,
    perturb,
    scenario_utilities,
    semantic_features,
)
from .sim2real import (
    ACTIONS,
    AlignmentModel,
    EnvBatch,
    SolvedBatch,
    align_features,
    randomize_batch,
    randomize_env,
    reward_discrepancy,
    rollout_row,
    solve_batch,
)

# Single-record layer functions (and `build_envs` below), each a thin form of
# a batched function that phase 1, the merge or alignment calls; route_feedback,
# which the merge no longer needs; and the extraction, fusion and template
# stages, which are the identity for one modality and one template.
# perfbench's tracer looks up every layer function it wraps in this module,
# so they stay importable.
from .sim2real import optimize_policy, refine_policy, reward_table, rollout  # noqa: F401
from .attention import top_k_by_relevance  # noqa: F401
from .decision import decision_utility, decompose, select_decision  # noqa: F401
from .evaluation import record_outcome  # noqa: F401
from .executor import route_feedback, select_optimal_action  # noqa: F401
from .ingest import extract_features, fuse  # noqa: F401
from .memory import cosine_score  # noqa: F401
from .scenario import generate_scenarios, scenario_utility  # noqa: F401

REPORT_MD = "report.md"
TRACE_FILE = "trace.jsonl"
SUMMARY_FILE = "run_summary.json"


@dataclass(frozen=True)
class ModalityContext:
    """Run-constant state shared by every record of one modality."""

    cfg: RunConfig
    modality: str
    modality_index: int
    stats: object                  # ingest.NormStats
    geometry: FeatureGeometry
    store: MemoryStore             # LTM holds one prototype per memory class
    subtasks: tuple                # one per action, weight = action direction
    internal: np.ndarray
    instruction: np.ndarray
    neutral_map: np.ndarray        # feature map of a zero sensor channel
    context_weights: ContextWeights
    sim_bases: EnvBatch            # unrandomized simulated env per goal direction
    real_envs: EnvBatch            # real env per goal direction


@dataclass(frozen=True, eq=False)
class Outcomes:
    """Everything phase 1 learns about surviving records, one row per record
    in input order: (N,) columns, (N, 2) for semantic and refined_attributes.
    policy_action is also the executor's command."""

    record_id: np.ndarray
    semantic: np.ndarray
    own_in_topk: np.ndarray
    relevance_mass: np.ndarray
    pred_step2: np.ndarray
    pred_step3: np.ndarray
    retrieved_label: np.ndarray
    readout_cosine: np.ndarray
    refined_attributes: np.ndarray
    refined_utility: np.ndarray
    decision_id: np.ndarray
    predicted_outcome: np.ndarray
    sim_first_action: np.ndarray
    policy_action: np.ndarray
    confidence: np.ndarray

    @classmethod
    def concat(cls, parts) -> "Outcomes":
        return cls(**{f.name: np.concatenate([getattr(p, f.name) for p in parts])
                      for f in fields(cls)})


def env_draws(cfg: RunConfig, modality_index: int, ids) -> np.ndarray:
    """Each record's row of open uniforms for `randomize_batch`."""
    return seeding.keyed_uniforms(cfg.seed, seeding.ENV_RANDOMIZATION, modality_index, ids,
                                  len(cfg.randomization.continuous) + 1, open_interval=True)


def build_envs(cfg: RunConfig, envs: tuple, direction: int, draws):
    """One record's randomized sim env and real env from `GridSpec.envs`."""
    return randomize_env(envs[direction][0], cfg.randomization, draws), envs[direction][1]


def build_context(cfg: RunConfig, gen_cfg: GeneratorConfig, modality: str,
                  survivors: Columns) -> ModalityContext:
    """Fit normalization stats on the trust filter's survivors and freeze the
    prototype memory, subtask templates, and channel constants."""
    geometry = FeatureGeometry.from_config(gen_cfg)
    if not len(survivors):
        raise EmptyInputError(f"no {modality} records survived the trust filter (tau={cfg.tau})")
    stats = fit_norm_stats(survivors.features.reshape(-1))

    store = MemoryStore(sparse_readout_top_n=cfg.sparse_readout_top_n,
                        sparse_readout_threshold=cfg.sparse_readout_threshold)
    for label in range(geometry.n_memory_classes):
        proto = normalize(geometry.memory_center(label), stats)
        store.promote_to_ltm(MemoryEntry(vector=proto, label=label,
                                         timestamp=label, tier=LTM))

    directions = geometry.action_directions()
    subtasks = tuple(Subtask(id=f"move-{ACTIONS[a]}", weights=tuple(directions[a]))
                     for a in range(geometry.n_actions))

    # both channels span the relevance block, which is 2 wide in every layout
    internal = np.asarray(cfg.internal_state or (0.0, 0.0), dtype=float)
    instruction = np.asarray(cfg.instruction or (0.0, 0.0), dtype=float)
    neutral = feature_map(integrate(np.zeros(2), internal, instruction, cfg.weights))
    envs = cfg.grid.envs()
    return ModalityContext(
        cfg=cfg, modality=modality, modality_index=MODALITIES.index(modality),
        stats=stats, geometry=geometry, store=store, subtasks=subtasks,
        internal=internal, instruction=instruction, neutral_map=neutral,
        context_weights=ContextWeights(cfg.context_weights),
        sim_bases=EnvBatch.of([sim for sim, _ in envs]),
        real_envs=EnvBatch.of([real for _, real in envs]),
    )


def plan_sim2real(ctx: ModalityContext, ids, decision):
    """Step 6 for N records: (sim, real) `SolvedBatch`es of each record's
    randomized sim env, solved as is, and its real env, re-planned on
    R_real + alpha * (R_real - R_sim); the goal direction is the decision."""
    cfg = ctx.cfg
    sim = randomize_batch(ctx.sim_bases.take(decision), cfg.randomization,
                          env_draws(cfg, ctx.modality_index, ids))
    real = ctx.real_envs.take(decision)
    sim_nxt, sim_rewards = sim.tables()
    real_nxt, real_rewards = real.tables()
    delta = reward_discrepancy(real_rewards, sim_rewards)
    horizon = cfg.grid.horizon
    sim_actions = solve_batch(sim_nxt, sim_rewards, sim.slip_prob, horizon, cfg.gamma)[0]
    real_actions = solve_batch(real_nxt, real_rewards + cfg.alpha * delta,
                               real.slip_prob, horizon, cfg.gamma)[0]
    return (SolvedBatch(sim, sim_nxt, sim_rewards, sim_actions),
            SolvedBatch(real, real_nxt, real_rewards, real_actions))


def score_chunk(ctx: ModalityContext, records: Columns) -> Outcomes:
    """Run steps 2-7 for a chunk of one modality's survivors as (N, ...)
    arrays; one Outcomes row per record, in input order.

    Pure given (ctx, records): every record draws only from its own rows of
    keyed uniforms, so any split of the survivors into chunks gives the same
    outcomes. Dot products and norms go through `row_dot` and sums of
    scenario attributes are correctly rounded, as `math.fsum`'s are, so each
    value equals the one-record-at-a-time arithmetic bit for bit.
    """
    cfg = ctx.cfg
    geom = ctx.geometry
    rel = list(geom.relevance_dims)
    m = cfg.m_count
    ids = records.ids
    rows = np.arange(len(records))

    # ingest: normalize; extraction is the identity and one modality is live
    fnorm = normalize(records.features, ctx.stats)

    # scenario: integrate channels over the relevance block, map, perturb;
    # pool column j is scenario index j (m own, then m neutral-reference)
    unified = integrate(fnorm[:, rel], ctx.internal, ctx.instruction, cfg.weights)
    semantic = semantic_features(unified)
    n_noise = m * unified.shape[1]
    own = perturb(feature_map(unified), m, cfg.noise_width,
                  seeding.keyed_uniforms(cfg.seed, seeding.SCENARIO_NOISE,
                                         ctx.modality_index, ids, n_noise))
    reference = perturb(np.broadcast_to(ctx.neutral_map, unified.shape), m,
                        cfg.noise_width,
                        seeding.keyed_uniforms(cfg.seed, seeding.BASELINE_NOISE,
                                               ctx.modality_index, ids, n_noise))
    pool = np.concatenate([own, reference], axis=1)

    # attention: softmax relevance, top-k (ties by ascending index),
    # memory-refined winner
    scores = relevance_scores(scenario_utilities(pool))
    selected = top_k_indices(scores, cfg.k)
    own_in_topk = (selected < m).sum(axis=1)
    own_mass = scores[:, :m].sum(axis=1)
    winner = pool[rows, selected[:, 0]]
    confidence = scores[rows, selected[:, 0]]

    # memory: retrieval for step 4, readout for refinement
    retrieved = ctx.store.ltm_retrieve_rows(fnorm)
    scenario_query = np.zeros((len(records), geom.feature_dim))
    scenario_query[:, rel] = winner
    readout = ctx.store.attention_readout_rows(scenario_query)
    readout_cos = cosine_scores(readout, scenario_query)
    refined = refine_scenario(winner, readout[:, rel], cfg.beta)
    refined_utility = scenario_utilities(refined)

    # decision: context factors = refined utility, readout cosine, priority;
    # the first of equal utilities wins, in subtask order
    context = np.empty((len(records), len(ctx.subtasks), 3))
    context[:, :, 0] = refined_utility[:, None]
    context[:, :, 1] = readout_cos[:, None]
    for a, sub in enumerate(ctx.subtasks):
        context[:, a, 2] = subtask_priority(sub, fnorm)
    utility = decision_utilities(context, ctx.context_weights)
    decision = first_best(utility)
    predicted = utility[rows, decision]

    # sim2real: randomized sim env, exact policies, discrepancy re-plan
    sim, real = plan_sim2real(ctx, ids, decision)

    # executor: the command is the refined policy's action at its env's start
    # cell with the whole horizon left, sent with the relevance confidence
    # carried from scenario selection; a swapped sim env starts at the base goal
    check_confidence(confidence)
    return Outcomes(
        record_id=ids,
        semantic=semantic,
        own_in_topk=own_in_topk,
        relevance_mass=own_mass,
        pred_step2=2 * own_in_topk > min(cfg.k, 2 * m),
        pred_step3=own_mass > cfg.rel_threshold,
        retrieved_label=np.asarray([entry.label for entry in retrieved]),
        readout_cosine=readout_cos,
        refined_attributes=refined,
        refined_utility=refined_utility,
        decision_id=decision,
        predicted_outcome=predicted,
        sim_first_action=sim.actions[rows, -1, sim.envs.start],
        policy_action=real.actions[rows, -1, real.envs.start],
        confidence=confidence,
    )


def process_record(ctx: ModalityContext, survivors: Columns, row: int) -> Outcomes:
    """Run survivor `row` alone through steps 2-7. Pure given (ctx, its row)."""
    return score_chunk(ctx, survivors[row:row + 1])


# Survivors per score_chunk call. Time per record is flat from 64 to 1024;
# peak RSS grows with the chunk (see CHANGES.md), so keep it small.
CHUNK_RECORDS = 128

_WORKER_CTX = None
_WORKER_RECORDS = None


def _worker_init(ctx, records):
    global _WORKER_CTX, _WORKER_RECORDS
    _WORKER_CTX = ctx
    _WORKER_RECORDS = records


def _worker_chunk(bounds):
    lo, hi = bounds
    return score_chunk(_WORKER_CTX, _WORKER_RECORDS[lo:hi])


def score_records(ctx: ModalityContext, survivors: Columns, workers: int):
    """Phase 1 over one modality's survivors in chunks of CHUNK_RECORDS;
    output order follows input."""
    bounds = [(lo, min(lo + CHUNK_RECORDS, len(survivors)))
              for lo in range(0, len(survivors), CHUNK_RECORDS)]
    if workers <= 1 or len(bounds) < 2:
        parts = [score_chunk(ctx, survivors[lo:hi]) for lo, hi in bounds]
    else:
        with multiprocessing.Pool(processes=workers, initializer=_worker_init,
                                  initargs=(ctx, survivors)) as pool:
            parts = pool.map(_worker_chunk, bounds)
    return Outcomes.concat(parts)


# Trace lines in the bytes of json.dumps(line, separators=(",", ":")) with
# keys in this order: floats through %r, which is float.__repr__ as in json,
# ints through %d, strings and booleans encoded beforehand.
_DROPPED_LINE = '{"id":%d,"modality":%s,"trust":%r,"kept":false}'
_KEPT_LINE = ('{"id":%d,"modality":%s,"trust":%r,"kept":true,"semantic":[%r,%r],'
              '"relevance_mass":%r,"own_in_topk":%d,"retrieved_label":%d,"decision":%d,'
              '"subtask":%s,"sim_first_action":%d,"action":%d,"confidence":%r,'
              '"matched":%s,"outcome":%r,"feedback_mean":%r,"adjusted_utility":%r,'
              '"steps":{"s2":%s,"s3":%s,"s4":%d,"s5":%d,"s6":%d,"s7":%d}}')


@dataclass
class ModalityResult:
    modality: str
    confusions: dict          # step -> StepConfusion
    trace_lines: list         # (record id, trace line) per record
    outcomes: Outcomes
    context: ModalityContext


def run_modality(cfg: RunConfig, gen_cfg: GeneratorConfig, modality: str,
                 records: Columns, workers: int) -> ModalityResult:
    kept = filter_by_trust(records.trust, cfg.tau)
    survivors, dropped = records[kept], records[~kept]
    ctx = build_context(cfg, gen_cfg, modality, survivors)
    out = score_records(ctx, survivors, workers)

    n_act, n_mem = ctx.geometry.n_actions, ctx.geometry.n_memory_classes
    relevant, action = survivors.relevant, survivors.action
    actual = half_partition(action, n_act)
    # (predicted, actual) per step; step 7's command is step 6's action
    pairs = [(kept, records.valid),
             (out.pred_step2, relevant), (out.pred_step3, relevant),
             (half_partition(out.retrieved_label, n_mem),
              half_partition(survivors.mem_label, n_mem)),
             (half_partition(out.decision_id, n_act), actual),
             *[(half_partition(out.policy_action, n_act), actual)] * 2]
    confusions = {step: StepConfusion.tally(step, predicted, actual)
                  for step, (predicted, actual) in enumerate(pairs, start=1)}

    # phase 2: feedback merge in record-id order
    matched = out.policy_action == action
    outcome = matched.astype(float)
    feedback = feedback_means(out.decision_id, outcome)
    adjusted = out.predicted_outcome + cfg.lambda_feedback * feedback

    # the trace: json's allow_nan=False, then one formatted line per record
    floats = (records.trust, out.semantic, out.relevance_mass, out.confidence,
              feedback, adjusted)
    if not all(np.isfinite(column).all() for column in floats):
        raise ValueError("Out of range float values are not JSON compliant")
    name = json.dumps(modality)
    subtask = [json.dumps(sub.id) for sub in ctx.subtasks]
    label, decision, act = (column.tolist() for column in
                            (out.retrieved_label, out.decision_id, out.policy_action))
    hit, s2, s3 = (np.where(column, "true", "false").tolist()
                   for column in (matched, out.pred_step2, out.pred_step3))
    rows = zip(survivors.ids.tolist(), [name] * len(survivors), survivors.trust.tolist(),
               *out.semantic.T.tolist(), out.relevance_mass.tolist(),
               out.own_in_topk.tolist(), label, decision, [subtask[d] for d in decision],
               out.sim_first_action.tolist(), act, out.confidence.tolist(), hit,
               outcome.tolist(), feedback.tolist(), adjusted.tolist(), s2, s3, label,
               decision, act, act)
    trace_lines = [(rid, _DROPPED_LINE % (rid, name, trust))
                   for rid, trust in zip(dropped.ids.tolist(), dropped.trust.tolist())]
    trace_lines += [(row[0], _KEPT_LINE % row) for row in rows]
    return ModalityResult(modality=modality, confusions=confusions,
                          trace_lines=trace_lines, outcomes=out, context=ctx)


def _trajectory_features(solved: SolvedBatch, row: int, rng) -> list:
    envs = solved.envs
    return [[x / max(envs.width - 1, 1), y / max(envs.height - 1, 1), t / envs.horizon, reward]
            for t, ((x, y), _, reward) in enumerate(rollout_row(solved, row, rng).steps)]


def run_alignment(cfg: RunConfig, results) -> float:
    """Adversarial alignment over rollout features from the sim and real
    environments of the first `align.samples` survivors per modality, planned
    again as in phase 1 in one batch per modality; slips in both rollouts of
    a record draw from that record's own stream."""
    sim_rows, real_rows = [], []
    for res in results:
        picked = res.outcomes.record_id[: cfg.align.samples]
        sim, real = plan_sim2real(res.context, picked,
                                  res.outcomes.decision_id[: cfg.align.samples])
        for row, rid in enumerate(picked.tolist()):
            slips = seeding.substream(cfg.seed, seeding.ALIGNMENT, res.context.modality_index, rid)
            sim_rows.extend(_trajectory_features(sim, row, slips))
            real_rows.extend(_trajectory_features(real, row, slips))
    model = AlignmentModel.init(in_dim=4, lambda_task=cfg.align.lambda_task)
    _, accuracy = align_features(
        np.asarray(sim_rows), np.asarray(real_rows), model,
        steps=cfg.align.steps, lr=cfg.align.learning_rate,
        rng=seeding.substream(cfg.seed, seeding.ALIGNMENT))
    return accuracy


@dataclass
class RunResult:
    out_dir: str
    confusions: dict        # modality -> {step -> StepConfusion}
    report_paths: dict
    trace_path: str
    summary_path: str
    alignment_accuracy: float


def execute_run(cfg: RunConfig, dataset: Dataset | None = None,
                out_dir: str | None = None) -> RunResult:
    """Generate or load the dataset, run every configured modality, and write
    trace + report files. Byte-identical for identical seeds and any worker
    count."""
    if dataset is None:
        dataset = load(cfg.dataset_path) if cfg.dataset_path else generate(cfg.generator)
    gen_cfg = GeneratorConfig.from_mapping(dataset.meta["generator"])

    results = []
    for modality in MODALITIES:
        if modality not in cfg.modalities:
            continue
        records = dataset.by_modality(modality)
        results.append(run_modality(cfg, gen_cfg, modality, records, cfg.workers))

    accuracy = run_alignment(cfg, results)

    target = out_dir or cfg.out_dir
    os.makedirs(target, exist_ok=True)

    confusions = {res.modality: res.confusions for res in results}
    rep = report(confusions)
    report_paths = {}
    for modality, text in rep.csv.items():
        path = os.path.join(target, f"report_{modality}.csv")
        with atomic_open(path) as fh:
            fh.write(text)
        report_paths[modality] = path
    md_path = os.path.join(target, REPORT_MD)
    with atomic_open(md_path) as fh:
        fh.write(rep.markdown)

    trace_path = os.path.join(target, TRACE_FILE)
    with atomic_open(trace_path) as fh:
        for _, line in sorted(line for res in results for line in res.trace_lines):
            fh.write(line)
            fh.write("\n")

    # workers and out_dir are execution details; dropping them keeps the
    # summary byte-identical across worker counts and target directories
    config_echo = cfg.to_mapping()
    config_echo.pop("workers")
    config_echo.pop("out_dir")
    summary = {
        "config": config_echo,
        "dataset_meta": dataset.meta,
        "survivors": {res.modality: len(res.outcomes.record_id) for res in results},
        "alignment_holdout_accuracy": accuracy,
        "outputs": sorted(
            [os.path.basename(p) for p in report_paths.values()]
            + [REPORT_MD, TRACE_FILE]
        ),
    }
    summary_path = os.path.join(target, SUMMARY_FILE)
    with atomic_open(summary_path) as fh:
        json.dump(summary, fh, indent=2, allow_nan=False)
        fh.write("\n")

    return RunResult(out_dir=target, confusions=confusions,
                     report_paths=report_paths, trace_path=trace_path,
                     summary_path=summary_path, alignment_accuracy=accuracy)
