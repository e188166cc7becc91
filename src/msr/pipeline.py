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
  phase 2  a single-threaded merge in record-id order applies feedback:
           decision history means and feedback-adjusted utilities.

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
  7  same for the emitted ActionCommand's action          vs that of action

Steps 4-7 compare through the half-partition view because the generator's
label noise always flips across that partition: the binary disagreement rate
equals the label flip rate exactly, which keeps all four confusion cells
populated.
"""

from dataclasses import dataclass
import json
import multiprocessing
import os

import numpy as np

from . import seeding
from .attention import refine_scenario, relevance_scores, top_k_indices
from .config import RunConfig
from .dataset import (
    Dataset,
    FeatureGeometry,
    GeneratorConfig,
    MODALITIES,
    generate,
    half_partition,
    load,
)
from .decision import (
    ContextWeights,
    DecisionCandidate,
    FeedbackHistory,
    Subtask,
    TaskTemplate,
    decision_utilities,
    decompose,
    first_best,
    subtask_priority,
)
from .errors import EmptyInputError
from .evaluation import N_STEPS, StepConfusion, record_outcome, report
from .executor import select_optimal_action
from .ingest import extract_features, filter_by_trust, fit_norm_stats, fuse, normalize
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
    GridEnv,
    PolicyTable,
    align_features,
    optimize_policy,
    randomize_batch,
    randomize_env,
    refine_policy,
    reward_discrepancy,
    reward_table,
    rollout,
    solve_batch,
)

# Single-record layer functions, each a thin form of a batched function that
# phase 1 calls, and route_feedback, which the phase-2 merge no longer needs.
# perfbench's tracer looks up every layer function it wraps in this module,
# so the names stay importable from here.
from .attention import top_k_by_relevance  # noqa: F401
from .decision import decision_utility, select_decision  # noqa: F401
from .executor import route_feedback  # noqa: F401
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


@dataclass
class RecordOutcome:
    """Everything phase 1 learns about one surviving record."""

    record_id: int
    semantic: tuple
    own_in_topk: int
    relevance_mass: float
    pred_step2: bool
    pred_step3: bool
    retrieved_label: int
    readout_cosine: float
    refined_attributes: tuple
    refined_utility: float
    decision_id: int
    predicted_outcome: float
    sim_first_action: int
    policy_action: int
    command_action: int
    confidence: float


def env_draws(cfg: RunConfig, modality_index: int, ids) -> np.ndarray:
    """Each record's row of open uniforms for `randomize_batch`."""
    return seeding.keyed_uniforms(cfg.seed, seeding.ENV_RANDOMIZATION, modality_index, ids,
                                  len(cfg.randomization.continuous) + 1, open_interval=True)


def build_envs(cfg: RunConfig, envs: tuple, direction: int, draws):
    """One record's simulated (randomized) and real environments from the
    `GridSpec.envs` pairs and its `env_draws` row."""
    sim_base, real_env = envs[direction]
    return randomize_env(sim_base, cfg.randomization, draws), real_env


def build_context(cfg: RunConfig, gen_cfg: GeneratorConfig, modality: str,
                  records) -> ModalityContext:
    """Fit normalization stats on the filtered stream and freeze the
    prototype memory, subtask templates, and channel constants."""
    geometry = FeatureGeometry.from_config(gen_cfg)
    survivors = filter_by_trust(records, cfg.tau)
    if not survivors:
        raise EmptyInputError(
            f"no {modality} records survived the trust filter (tau={cfg.tau})"
        )
    pooled = np.concatenate([np.asarray(r.features) for r in survivors])
    stats = fit_norm_stats(pooled)

    store = MemoryStore(sparse_readout_top_n=cfg.sparse_readout_top_n,
                        sparse_readout_threshold=cfg.sparse_readout_threshold)
    for label in range(geometry.n_memory_classes):
        proto = normalize(geometry.memory_center(label), stats)
        store.promote_to_ltm(MemoryEntry(vector=proto, label=label,
                                         timestamp=label, tier=LTM))

    directions = geometry.action_directions()
    subtasks = tuple(
        Subtask(id=f"move-{ACTIONS[a]}", weights=tuple(directions[a]))
        for a in range(geometry.n_actions)
    )
    registry = {"act": TaskTemplate(id="act", steps=subtasks)}
    ordered = tuple(decompose(registry, "act"))

    # both channels span the relevance block, which is 2 wide in every layout
    internal = np.asarray(cfg.internal_state or (0.0, 0.0), dtype=float)
    instruction = np.asarray(cfg.instruction or (0.0, 0.0), dtype=float)
    neutral = feature_map(integrate(np.zeros(2), internal, instruction, cfg.weights))
    envs = cfg.grid.envs()
    return ModalityContext(
        cfg=cfg, modality=modality, modality_index=MODALITIES.index(modality),
        stats=stats, geometry=geometry, store=store, subtasks=ordered,
        internal=internal, instruction=instruction, neutral_map=neutral,
        context_weights=ContextWeights(cfg.context_weights),
        sim_bases=EnvBatch.of([sim for sim, _ in envs]),
        real_envs=EnvBatch.of([real for _, real in envs]),
    )


def score_chunk(ctx: ModalityContext, records) -> list:
    """Run steps 2-7 for a chunk of one modality's survivors as (N, ...)
    arrays; one RecordOutcome per record, in input order.

    Pure given (ctx, records): every record draws only from its own rows of
    keyed uniforms, so any split of the survivors into chunks gives the same
    outcomes. Dot products and norms go through `row_dot` and sums of
    scenario attributes through `math.fsum` per row, so each value equals
    the one-record-at-a-time arithmetic bit for bit.
    """
    cfg = ctx.cfg
    geom = ctx.geometry
    rel = list(geom.relevance_dims)
    m = cfg.m_count
    ids = [r.id for r in records]
    rows = np.arange(len(records))

    # ingest: normalize, extract, fuse (single live modality per record)
    fnorm = normalize(np.asarray([r.features for r in records], dtype=float), ctx.stats)
    extracted = extract_features(fnorm)
    sensor_full = fuse([(ctx.modality, extracted)]).entries[0][1]

    # scenario: integrate channels over the relevance block, map, perturb;
    # pool column j is scenario index j (m own, then m neutral-reference)
    unified = integrate(sensor_full[:, rel], ctx.internal, ctx.instruction, cfg.weights)
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
        context[:, a, 2] = subtask_priority(sub, sensor_full)
    utility = decision_utilities(context, ctx.context_weights)
    decision = first_best(utility)
    predicted = utility[rows, decision]

    # sim2real: randomized sim env, exact policies, discrepancy re-plan; the
    # goal direction is the decision
    sim_envs = randomize_batch(ctx.sim_bases.take(decision), cfg.randomization,
                               env_draws(cfg, ctx.modality_index, ids))
    real_envs = ctx.real_envs.take(decision)
    sim_nxt, sim_rewards = sim_envs.tables()
    real_nxt, real_rewards = real_envs.tables()
    delta = reward_discrepancy(real_rewards, sim_rewards)
    horizon = cfg.grid.horizon
    sim_tables = solve_batch(sim_nxt, sim_rewards, sim_envs.slip_prob, horizon, cfg.gamma)
    refined_tables = solve_batch(real_nxt, real_rewards + cfg.alpha * delta,
                                 real_envs.slip_prob, horizon, cfg.gamma)

    start = tuple(cfg.grid.start)
    n_selected = min(cfg.k, 2 * m)
    outcomes = []
    for (j, rid, sem, n_own, mass, entry, cos, attrs, ref_u, dec, pred, conf,
         sim_a, sim_v, ref_a, ref_v) in zip(
            rows.tolist(), ids, semantic.tolist(), own_in_topk.tolist(),
            own_mass.tolist(), retrieved, readout_cos.tolist(), refined.tolist(),
            refined_utility.tolist(), decision.tolist(), predicted.tolist(),
            confidence.tolist(), *sim_tables, *refined_tables):
        sim_policy = PolicyTable(actions=sim_a, values=sim_v, gamma=cfg.gamma,
                                 width=cfg.grid.width, height=cfg.grid.height,
                                 horizon=horizon)
        refined_policy = PolicyTable(actions=ref_a, values=ref_v, gamma=cfg.gamma,
                                     width=cfg.grid.width, height=cfg.grid.height,
                                     horizon=horizon)
        # executor: emit the command with the carried relevance confidence
        chosen = DecisionCandidate(id=dec, context=context[j], predicted_outcome=pred)
        command = select_optimal_action(chosen, refined_policy, start, conf, rid)
        outcomes.append(RecordOutcome(
            record_id=rid,
            semantic=tuple(sem),
            own_in_topk=n_own,
            relevance_mass=mass,
            pred_step2=2 * n_own > n_selected,
            pred_step3=mass > cfg.rel_threshold,
            retrieved_label=entry.label,
            readout_cosine=cos,
            refined_attributes=tuple(attrs),
            refined_utility=ref_u,
            decision_id=dec,
            predicted_outcome=pred,
            sim_first_action=sim_policy.action(start),
            policy_action=refined_policy.action(start),
            command_action=command.action,
            confidence=conf,
        ))
    return outcomes


def process_record(ctx: ModalityContext, record) -> RecordOutcome:
    """Run one surviving record through steps 2-7. Pure given (ctx, record)."""
    return score_chunk(ctx, [record])[0]


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


def score_records(ctx: ModalityContext, survivors, workers: int):
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
    return [out for part in parts for out in part]


@dataclass
class ModalityResult:
    modality: str
    confusions: dict          # step -> StepConfusion
    trace_lines: list         # (record_id, dict)
    survivor_ids: list
    outcomes: dict            # record_id -> RecordOutcome


def run_modality(cfg: RunConfig, gen_cfg: GeneratorConfig, modality: str,
                 records, workers: int) -> ModalityResult:
    ctx = build_context(cfg, gen_cfg, modality, records)
    survivors = filter_by_trust(records, cfg.tau)
    kept_ids = {r.id for r in survivors}

    confusions = {step: StepConfusion(step) for step in range(1, N_STEPS + 1)}
    for r in records:
        record_outcome(confusions[1], r.id in kept_ids, r.valid)

    outcomes = score_records(ctx, survivors, workers)
    by_id = {}
    n_act = ctx.geometry.n_actions
    n_mem = ctx.geometry.n_memory_classes
    for r, out in zip(survivors, outcomes):
        record_outcome(confusions[2], out.pred_step2, r.relevant)
        record_outcome(confusions[3], out.pred_step3, r.relevant)
        record_outcome(confusions[4], half_partition(out.retrieved_label, n_mem),
                       half_partition(r.mem_label, n_mem))
        record_outcome(confusions[5], half_partition(out.decision_id, n_act),
                       half_partition(r.action, n_act))
        record_outcome(confusions[6], half_partition(out.policy_action, n_act),
                       half_partition(r.action, n_act))
        record_outcome(confusions[7], half_partition(out.command_action, n_act),
                       half_partition(r.action, n_act))
        by_id[r.id] = out

    # phase 2: feedback merge in record-id order
    history = FeedbackHistory()
    trace_lines = []
    for r in records:
        if r.id not in by_id:
            trace_lines.append((r.id, {"id": r.id, "modality": modality,
                                       "trust": r.trust, "kept": False}))
            continue
        out = by_id[r.id]
        matched = out.command_action == r.action
        outcome = float(matched)
        feedback_before = history.mean(out.decision_id)
        adjusted = out.predicted_outcome + cfg.lambda_feedback * feedback_before
        history.add(out.decision_id, outcome)
        trace_lines.append((r.id, {
            "id": r.id,
            "modality": modality,
            "trust": r.trust,
            "kept": True,
            "semantic": list(out.semantic),
            "relevance_mass": out.relevance_mass,
            "own_in_topk": out.own_in_topk,
            "retrieved_label": out.retrieved_label,
            "decision": out.decision_id,
            "subtask": ctx.subtasks[out.decision_id].id,
            "sim_first_action": out.sim_first_action,
            "action": out.command_action,
            "confidence": out.confidence,
            "matched": matched,
            "outcome": outcome,
            "feedback_mean": feedback_before,
            "adjusted_utility": adjusted,
            "steps": {
                "s2": out.pred_step2, "s3": out.pred_step3,
                "s4": out.retrieved_label, "s5": out.decision_id,
                "s6": out.policy_action, "s7": out.command_action,
            },
        }))
    return ModalityResult(modality=modality, confusions=confusions,
                          trace_lines=trace_lines,
                          survivor_ids=[r.id for r in survivors],
                          outcomes=by_id)


def _trajectory_features(env: GridEnv, policy, rng) -> list:
    traj = rollout(env, policy, rng)
    t_total = max(env.horizon, 1)
    rows = []
    for t, ((x, y), _, reward) in enumerate(traj.steps):
        rows.append([
            x / max(env.width - 1, 1),
            y / max(env.height - 1, 1),
            t / t_total,
            reward,
        ])
    return rows


def run_alignment(cfg: RunConfig, results) -> float:
    """Adversarial alignment over rollout features from the sim and real
    environments of the first `align.samples` survivors per modality. Each
    record's sim env is rebuilt from its phase-1 randomization draws; slips
    in both rollouts of a record draw from that record's own stream."""
    sim_rows, real_rows = [], []
    envs = cfg.grid.envs()
    for res in results:
        modality_index = MODALITIES.index(res.modality)
        picked = res.survivor_ids[: cfg.align.samples]
        draws = env_draws(cfg, modality_index, picked)
        for rid, row in zip(picked, draws):
            out = res.outcomes[rid]
            slips = seeding.substream(cfg.seed, seeding.ALIGNMENT, modality_index, rid)
            sim_env, real_env = build_envs(cfg, envs, out.decision_id, row)
            sim_rows.extend(_trajectory_features(
                sim_env, optimize_policy(sim_env, cfg.gamma), slips))
            delta = reward_discrepancy(reward_table(real_env), reward_table(sim_env))
            refined = refine_policy(real_env, delta, cfg.alpha, cfg.gamma)
            real_rows.extend(_trajectory_features(real_env, refined, slips))
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
    cfg.validate()
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
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        report_paths[modality] = path
    md_path = os.path.join(target, REPORT_MD)
    with open(md_path, "w", encoding="utf-8") as fh:
        fh.write(rep.markdown)

    trace_path = os.path.join(target, TRACE_FILE)
    lines = []
    for res in results:
        lines.extend(res.trace_lines)
    lines.sort(key=lambda pair: pair[0])
    with open(trace_path, "w", encoding="utf-8") as fh:
        for _, payload in lines:
            fh.write(json.dumps(payload, separators=(",", ":"), allow_nan=False))
            fh.write("\n")

    # workers and out_dir are execution details; dropping them keeps the
    # summary byte-identical across worker counts and target directories
    config_echo = cfg.to_mapping()
    config_echo.pop("workers")
    config_echo.pop("out_dir")
    summary = {
        "config": config_echo,
        "dataset_meta": dataset.meta,
        "survivors": {res.modality: len(res.survivor_ids) for res in results},
        "alignment_holdout_accuracy": accuracy,
        "outputs": sorted(
            [os.path.basename(p) for p in report_paths.values()]
            + [REPORT_MD, TRACE_FILE]
        ),
    }
    summary_path = os.path.join(target, SUMMARY_FILE)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, allow_nan=False)
        fh.write("\n")

    return RunResult(out_dir=target, confusions=confusions,
                     report_paths=report_paths, trace_path=trace_path,
                     summary_path=summary_path, alignment_accuracy=accuracy)
