"""End-to-end runner: dataset in, seven-step pipeline per record, confusion
tallies, trace and report files out.

Scoring is strictly two-phase so results cannot depend on worker layout:

  phase 1  every record is processed against run-constant state only (norm
           stats, the memory prototype table, config thresholds); records are
           pure functions of (record, context) and may run in any order or
           process. `score_chunk` runs steps 2-7 on chunk tables sized by
           `chunk_records`; each record's draws are a row of keyed uniforms
           that depends only on its id, so every outcome equals the
           one-record result bit for bit whatever the chunking.
  phase 2  the merge over the concatenated columns in record-id order applies
           feedback (decision history means, feedback-adjusted utilities) and
           formats each record's trace line, placed at its row of the table.

Alignment plans the first `align.samples` survivors per modality again in
one batch, as phase 1 does, and rolls them out together, one array step per
horizon step. Its slips and its holdout split are keyed uniforms too, so no
numpy Generator reaches the outputs.

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

from dataclasses import dataclass
import functools
import json
import multiprocessing
import os

import numpy as np

from . import seeding
from .attention import refine_scenario, relevance_scores, top_k_indices
from .config import RunConfig, check_actions
from .dataset import (
    Columns,
    Dataset,
    FeatureGeometry,
    GeneratorConfig,
    MODALITIES,
    SAVE_BLOCK,
    Table,
    atomic_open,
    generate,
    half_partition,
    load,
)
from .decision import ContextWeights, decision_utilities, feedback_means, first_best
from .errors import ConfigError, EmptyInputError
from .evaluation import StepConfusion, report
from .executor import check_confidence
from .ingest import filter_by_trust, fit_norm_stats, normalize
from .memory import cosine_scores, readout_rows, retrieve_rows, row_dot
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
    rollout_batch,
    solve_batch,
)

# Single-record layer functions (and `build_envs` below), each a thin form of
# a batched function that phase 1, the merge or alignment calls, with no rule
# of its own; route_feedback, which the merge no longer needs; the extraction,
# fusion and template stages, the identity for one modality and one template;
# and subtask_priority, whose dot products phase 1 takes in one `row_dot`. No
# run calls them (tests/test_benchmark_names.py), but perfbench's tracer looks
# up every layer function it wraps in this module, so they stay importable.
from .sim2real import optimize_policy, refine_policy, reward_table, rollout  # noqa: F401
from .attention import top_k_by_relevance  # noqa: F401
from .decision import decision_utility, decompose, select_decision, subtask_priority  # noqa: F401
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
    modality_index: int
    stats: object                  # ingest.NormStats
    geometry: FeatureGeometry
    prototypes: np.ndarray         # (n_memory_classes, d) normalized memory centers; row = label
    directions: np.ndarray         # (n_actions, d) unit vectors toward the action centers
    internal: np.ndarray
    instruction: np.ndarray
    neutral_map: np.ndarray        # feature map of a zero sensor channel
    context_weights: ContextWeights
    sim_bases: EnvBatch            # unrandomized simulated env per goal direction
    real_envs: EnvBatch            # real env per goal direction


@dataclass(frozen=True, eq=False)
class Outcomes(Table):
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


def build_envs(cfg: RunConfig, envs: tuple, direction: int, draws):
    """One record's randomized sim env and real env from `GridSpec.envs`."""
    return randomize_env(envs[direction][0], cfg.randomization, draws), envs[direction][1]


def build_context(cfg: RunConfig, gen_cfg: GeneratorConfig, modality: str,
                  survivors: Columns) -> ModalityContext:
    """Fit normalization stats on the trust filter's survivors and freeze the
    memory prototypes, action directions, and channel constants."""
    geometry = FeatureGeometry.from_config(gen_cfg)
    if not len(survivors):
        raise EmptyInputError(f"no {modality} records survived the trust filter (tau={cfg.tau})")
    stats = fit_norm_stats(survivors.features.reshape(-1))

    prototypes = normalize(geometry.memory_centers, stats)
    prototypes.setflags(write=False)

    # both channels span the relevance block, which is 2 wide in every layout
    internal = np.asarray(cfg.internal_state or (0.0, 0.0), dtype=float)
    instruction = np.asarray(cfg.instruction or (0.0, 0.0), dtype=float)
    with np.errstate(over="ignore"):  # an infinite map fails score_chunk's check
        neutral = feature_map(integrate(np.zeros(2), internal, instruction, cfg.weights))
    envs = cfg.grid.envs()
    centers = geometry.action_centers
    return ModalityContext(
        cfg=cfg, modality_index=MODALITIES.index(modality), stats=stats,
        geometry=geometry, prototypes=prototypes,
        directions=centers / np.linalg.norm(centers, axis=1, keepdims=True),
        internal=internal, instruction=instruction, neutral_map=neutral,
        context_weights=ContextWeights(cfg.context_weights),
        sim_bases=EnvBatch.of([sim for sim, _ in envs]),
        real_envs=EnvBatch.of([real for _, real in envs]),
    )


def plan_sim2real(ctx: ModalityContext, ids, decision):
    """Step 6 for N records: (sim, real) `SolvedBatch`es of each record's
    randomized sim env, solved as is, and its real env, re-planned on
    R_real + alpha * (R_real - R_sim); the goal direction is the decision."""
    cfg, grid = ctx.cfg, ctx.cfg.grid
    draws = seeding.keyed_uniforms(cfg.seed, seeding.ENV_RANDOMIZATION, ctx.modality_index, ids,
                                   len(cfg.randomization.continuous) + 1, open_interval=True)
    # a reward that is not finite makes a value that is not, which fails below
    with np.errstate(over="ignore", invalid="ignore"):
        sim = randomize_batch(ctx.sim_bases.take(decision), cfg.randomization, draws)
        real = ctx.real_envs.take(decision)
        sim_nxt, sim_rewards = sim.tables()
        real_nxt, real_rewards = real.tables()
        delta = reward_discrepancy(real_rewards, sim_rewards)
        sim_actions, sim_values = solve_batch(sim_nxt, sim_rewards, sim.slip_prob, grid.horizon,
                                              cfg.gamma)
        real_actions, real_values = solve_batch(real_nxt, real_rewards + cfg.alpha * delta,
                                                real.slip_prob, grid.horizon, cfg.gamma)
    if not (np.isfinite(sim_values).all() and np.isfinite(real_values).all()):
        raise ConfigError(f"grid rewards (step_reward {grid.step_reward!r}, goal_reward "
                          f"{grid.goal_reward!r}, real_step_reward {grid.real_step_reward!r}) "
                          "and randomization.continuous give a value table that is not a "
                          "finite number")
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
    rel = list(ctx.geometry.relevance_dims)
    m = cfg.m_count
    ids = records.ids
    rows = np.arange(len(records))

    # ingest: normalize; extraction is the identity and one modality is live
    fnorm = normalize(records.features, ctx.stats)

    # scenario: integrate channels over the relevance block, map, perturb;
    # pool column j is scenario index j (m own, then m neutral-reference);
    # a value or a utility that overflows is an error
    with np.errstate(over="ignore", invalid="ignore"):
        unified = integrate(fnorm[:, rel], ctx.internal, ctx.instruction, cfg.weights)
        n_noise = m * unified.shape[1]
        own = perturb(feature_map(unified), m, cfg.noise_width,
                      seeding.keyed_uniforms(cfg.seed, seeding.SCENARIO_NOISE,
                                             ctx.modality_index, ids, n_noise))
        reference = perturb(np.broadcast_to(ctx.neutral_map, unified.shape), m,
                            cfg.noise_width,
                            seeding.keyed_uniforms(cfg.seed, seeding.BASELINE_NOISE,
                                                   ctx.modality_index, ids, n_noise))
        pool = np.concatenate([own, reference], axis=1)
        finite = np.isfinite(unified).all(axis=1) & np.isfinite(pool.sum(axis=2)).all(axis=1)
    if not finite.all():
        raise ConfigError(f"internal_state {cfg.internal_state}, instruction {cfg.instruction} "
                          f"and noise_width {cfg.noise_width} give record "
                          f"{ids[np.argmin(finite)]} a scenario value that is not a finite number")
    semantic = semantic_features(unified)

    # attention: softmax relevance, top-k (ties by ascending index),
    # memory-refined winner
    scores = relevance_scores(scenario_utilities(pool))
    selected = top_k_indices(scores, cfg.k)
    own_in_topk = (selected < m).sum(axis=1)
    own_mass = scores[:, :m].sum(axis=1)
    winner = pool[rows, selected[:, 0]]
    confidence = scores[rows, selected[:, 0]]

    # memory: retrieval for step 4, readout for refinement; a prototype's
    # label and timestamp are its row, so ties go to the earliest timestamp
    retrieved = retrieve_rows(ctx.prototypes, fnorm)
    scenario_query = np.zeros_like(fnorm)
    scenario_query[:, rel] = winner
    readout = readout_rows(ctx.prototypes, scenario_query, cfg.sparse_readout_top_n,
                           cfg.sparse_readout_threshold)
    readout_cos = cosine_scores(readout, scenario_query)
    refined = refine_scenario(winner, readout[:, rel], cfg.beta)
    refined_utility = scenario_utilities(refined)

    # decision: context factors = refined utility, readout cosine, priority
    # (the record's dot product with each action direction); the first of
    # equal utilities wins, in action order
    context = np.empty((len(records), len(ctx.directions), 3))
    context[:, :, 0] = refined_utility[:, None]
    context[:, :, 1] = readout_cos[:, None]
    context[:, :, 2] = row_dot(fnorm[:, None, :], ctx.directions)
    utility = decision_utilities(context, ctx.context_weights)
    finite = np.isfinite(utility).all(axis=1)
    if not finite.all():
        raise ConfigError(f"context_weights {list(ctx.context_weights.w)} give record "
                          f"{ids[np.argmin(finite)]} a decision utility that is not a "
                          "finite number")
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
        retrieved_label=retrieved,
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


def chunk_records(grid) -> int:
    """Survivors per score_chunk call: about 64,000 solver value cells of
    n_states * (horizon + 1) per record, and at least 128 (see CHANGES.md)."""
    return max(128, 64_000 // (grid.width * grid.height * (grid.horizon + 1)))


def score_records(ctx: ModalityContext, survivors: Columns, workers: int):
    """Phase 1 over one modality's survivors in chunks of `chunk_records`;
    output order follows input."""
    size = chunk_records(ctx.cfg.grid)
    chunks = [survivors[lo:lo + size] for lo in range(0, len(survivors), size)]
    score = functools.partial(score_chunk, ctx)
    if workers <= 1 or len(chunks) < 2:
        return Outcomes.concat(list(map(score, chunks)))
    with multiprocessing.Pool(processes=workers) as pool:
        return Outcomes.concat(pool.map(score, chunks))


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
    trace_lines: np.ndarray   # one trace line per record, in the records' row order
    outcomes: Outcomes
    context: ModalityContext


def run_modality(cfg: RunConfig, gen_cfg: GeneratorConfig, modality: str,
                 records: Columns, workers: int) -> ModalityResult:
    kept = filter_by_trust(records.trust, cfg.tau)
    survivors = records[kept]
    ctx = build_context(cfg, gen_cfg, modality, survivors)
    out = score_records(ctx, survivors, workers)

    n_act, n_mem = len(ctx.directions), len(ctx.prototypes)
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

    # the trace: json's allow_nan=False, then one formatted line per record
    floats = (records.trust, out.semantic, out.relevance_mass, out.confidence,
              out.predicted_outcome, feedback)
    if not all(np.isfinite(column).all() for column in floats):
        raise ValueError("Out of range float values are not JSON compliant")
    with np.errstate(over="ignore"):  # finite terms (checked above): only overflow fails
        adjusted = out.predicted_outcome + cfg.lambda_feedback * feedback
    finite = np.isfinite(adjusted)
    if not finite.all():
        raise ConfigError(f"lambda_feedback {cfg.lambda_feedback} and context_weights "
                          f"{list(ctx.context_weights.w)} give record "
                          f"{survivors.ids[np.argmin(finite)]} a feedback-adjusted utility "
                          "that is not a finite number")
    name = json.dumps(modality)
    subtask = [json.dumps(f"move-{action}") for action in ACTIONS]
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
    trace_lines = np.empty(len(records), dtype=object)
    trace_lines[kept] = [_KEPT_LINE % row for row in rows]
    trace_lines[~kept] = [_DROPPED_LINE % (rid, name, trust) for rid, trust in
                          zip(records.ids[~kept].tolist(), records.trust[~kept].tolist())]
    return ModalityResult(modality=modality, confusions=confusions,
                          trace_lines=trace_lines, outcomes=out, context=ctx)


def run_alignment(cfg: RunConfig, results) -> float:
    """Adversarial alignment over rollout features from the sim and real
    environments of the first `align.samples` survivors per modality, planned
    again as in phase 1 in one batch per modality and rolled out as one batch
    each; both rollouts of a record read its row of keyed uniforms. A feature
    row is (x, y, t) scaled to [0, 1] and the step's reward."""
    horizon = cfg.grid.horizon
    sim_rows, real_rows = [], []
    for res in results:
        picked = res.outcomes.record_id[: cfg.align.samples]
        draws = seeding.keyed_uniforms(cfg.seed, seeding.ALIGNMENT, res.context.modality_index,
                                       picked, 2 * horizon)
        plans = plan_sim2real(res.context, picked, res.outcomes.decision_id[: cfg.align.samples])
        for solved, rows in zip(plans, (sim_rows, real_rows)):
            states, _, rewards, taken = rollout_batch(solved, draws)
            width, height = solved.envs.width, solved.envs.height
            t = np.broadcast_to(np.arange(horizon) / horizon, states.shape)
            rows.append(np.stack([states % width / max(width - 1, 1),
                                  states // width / max(height - 1, 1), t, rewards],
                                 axis=2)[taken])
    model = AlignmentModel.init(in_dim=4, lambda_task=cfg.align.lambda_task)
    sim_rows, real_rows = np.concatenate(sim_rows), np.concatenate(real_rows)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite weights fail below
        model, accuracy = align_features(sim_rows, real_rows, model, steps=cfg.align.steps,
                                         lr=cfg.align.learning_rate, rng=cfg.seed)
    if not all(np.isfinite(w).all() for w in (model.encoder, model.disc_w, model.disc_b)):
        peak = max(np.abs(sim_rows[:, 3]).max(), np.abs(real_rows[:, 3]).max())
        raise ConfigError(f"align.learning_rate {cfg.align.learning_rate!r} is too large for "
                          f"rollout rewards up to {float(peak)!r} in magnitude (set by the "
                          "grid rewards): the alignment weights are not finite numbers")
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
    check_actions(gen_cfg)

    results = [run_modality(cfg, gen_cfg, modality, dataset.by_modality(modality), cfg.workers)
               for modality in MODALITIES if modality in cfg.modalities]
    # each modality's trace lines go to its rows of the id-ordered table;
    # rows of modalities that did not run stay out of the trace
    ran = [res.context.modality_index for res in results]
    trace_lines = np.empty(len(dataset.modality), dtype=object)
    for res in results:
        trace_lines[dataset.modality == res.context.modality_index] = res.trace_lines
    trace_lines = trace_lines[np.isin(dataset.modality, ran)]

    accuracy = run_alignment(cfg, results)

    target = out_dir or cfg.out_dir
    os.makedirs(target, exist_ok=True)

    confusions = {res.modality: res.confusions for res in results}
    rep = report(confusions)
    report_paths = {modality: os.path.join(target, f"report_{modality}.csv")
                    for modality in rep.csv}
    md_path = os.path.join(target, REPORT_MD)
    trace_path = os.path.join(target, TRACE_FILE)
    summary_path = os.path.join(target, SUMMARY_FILE)

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
    # one output set: no file is replaced before every one is written
    with atomic_open(*report_paths.values(), md_path, trace_path,
                     summary_path) as (*csv_files, md_file, trace_file, summary_file):
        for fh, text in zip(csv_files, rep.csv.values()):
            fh.write(text)
        md_file.write(rep.markdown)
        for lo in range(0, len(trace_lines), SAVE_BLOCK):
            trace_file.write("".join([line + "\n" for line in trace_lines[lo:lo + SAVE_BLOCK]]))
        json.dump(summary, summary_file, indent=2, allow_nan=False)
        summary_file.write("\n")

    return RunResult(out_dir=target, confusions=confusions,
                     report_paths=report_paths, trace_path=trace_path,
                     summary_path=summary_path, alignment_accuracy=accuracy)
