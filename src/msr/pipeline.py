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
           feedback (decision history means, feedback-adjusted utilities).
           The trace writer lays these columns out as bytes by `numtext`
           while it writes, in id-ordered steps of about _TRACE_CELLS
           floats, so no line outlives its step.

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
import os

import numpy as np

from . import numtext, seeding
from .attention import refine_scenario, relevance_scores, top_k_indices
from .config import RunConfig, check_actions, chunk_records
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
    align_features,
    randomize_batch,
    randomize_env,
    reward_discrepancy,
    rollout_batch,
    solve,
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

    prototypes = normalize(geometry.memory_centers(), stats)
    prototypes.setflags(write=False)

    # both channels span the relevance block, which is 2 wide in every layout
    internal = np.asarray(cfg.internal_state or (0.0, 0.0), dtype=float)
    instruction = np.asarray(cfg.instruction or (0.0, 0.0), dtype=float)
    with np.errstate(over="ignore"):  # an infinite map fails score_chunk's check
        neutral = feature_map(integrate(np.zeros(2), internal, instruction, cfg.weights))
    envs = cfg.grid.envs()
    centers = geometry.action_centers()
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
        sim = solve(randomize_batch(ctx.sim_bases.take(decision), cfg.randomization, draws),
                    cfg.gamma)
        real = solve(ctx.real_envs.take(decision), cfg.gamma,
                     plan=lambda r: r + cfg.alpha * reward_discrepancy(r, sim.rewards))
    if not (np.isfinite(sim.values).all() and np.isfinite(real.values).all()):
        raise ConfigError(f"grid rewards (step_reward {grid.step_reward!r}, goal_reward "
                          f"{grid.goal_reward!r}, real_step_reward {grid.real_step_reward!r}) "
                          "and randomization.continuous give a value table that is not a "
                          "finite number")
    return sim, real


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


def score_records(ctx: ModalityContext, survivors: Columns, workers: int):
    """Phase 1 over one modality's survivors in chunks of `chunk_records`;
    output order follows input."""
    size = chunk_records(ctx.cfg.grid)
    chunks = [survivors[lo:lo + size] for lo in range(0, len(survivors), size)]
    score = functools.partial(score_chunk, ctx)
    if workers <= 1 or len(chunks) < 2:
        return Outcomes.concat(list(map(score, chunks)))
    import multiprocessing  # only here: a run at one worker does not pay its import

    with multiprocessing.Pool(processes=min(workers, len(chunks))) as pool:
        return Outcomes.concat(pool.map(score, chunks))


# Trace lines in the bytes of json.dumps(line, separators=(",", ":")), keys in
# this order: numbers by `numtext` between these fixed texts, which np.take
# picks for a flag or the decision. A line is its head, to "kept", and a tail.
_ID = numtext.text_table(['{"id":'])
_HEADS = numtext.text_table([f',"modality":{json.dumps(m)},"trust":' for m in MODALITIES])
_KEPT = numtext.text_table([',"kept":false}\n', ',"kept":true,"semantic":['])
_DECISIONS = numtext.text_table([f',"decision":{d},"subtask":{json.dumps(f"move-{action}")},'
                                 '"sim_first_action":' for d, action in enumerate(ACTIONS)])
_S5 = numtext.text_table([f',"s5":{d},"s6":' for d in range(len(ACTIONS))])
_MATCHED = numtext.text_table([',"matched":false,"outcome":0.0,"feedback_mean":',
                               ',"matched":true,"outcome":1.0,"feedback_mean":'])
_STEPS = numtext.text_table([f',"steps":{{"s2":{s2},"s3":{s3},"s4":'
                             for s2 in ("false", "true") for s3 in ("false", "true")])
_MASS, _OWN, _LABEL, _ACTION, _CONFIDENCE, _ADJUSTED, _S7, _END = map(numtext.text_table, (
    ['],"relevance_mass":'], [',"own_in_topk":'], [',"retrieved_label":'], [',"action":'],
    [',"confidence":'], [',"adjusted_utility":'], [',"s7":'], ["}}\n"]))
# floats per step of the writer, in one `float_text` (about 270 bytes of temporaries a float);
# at the default experiment the writer then peaks at 3.7 MB (tracemalloc), 5.4 MB at 8,192
_TRACE_CELLS = 6 << 10


@dataclass
class ModalityResult:
    """One modality's confusions and phase-1 outcomes, with the phase-2
    columns its trace lines are formatted from: `kept` over the modality's
    records in id order, the rest one row per survivor."""

    modality: str
    confusions: dict          # step -> StepConfusion
    outcomes: Outcomes
    context: ModalityContext
    kept: np.ndarray          # the trust filter's mask
    matched: np.ndarray       # the command equals the stored action
    feedback: np.ndarray      # running feedback mean of the record's decision
    adjusted: np.ndarray      # feedback-adjusted utility


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
    feedback = feedback_means(out.decision_id, matched.astype(float))

    # the trace's values: json's allow_nan=False, checked before any file opens
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
    return ModalityResult(modality=modality, confusions=confusions, outcomes=out, context=ctx,
                          kept=kept, matched=matched, feedback=feedback, adjusted=adjusted)


def _step_text(ran: dict, first: list, owner, kept, ids, trust) -> np.ndarray:
    """The trace lines of records `ids`, with these owners, kept flags and
    trust, as uint8 text; a kept line's values are those of the next survivor
    of its modality's result in `ran`, from `first` on, which this advances."""
    rows = np.flatnonzero(kept)
    n, c = len(owner), len(rows)
    # one float_text: each line's trust, then six a kept line; ints: four texts, three table rows
    floats = np.concatenate((trust, np.empty(6 * c)))
    values, ints = floats[n:].reshape(c, 6), np.empty((c, 7), dtype=np.int64)
    for index, res in ran.items():
        mine = owner[rows] == index
        picked = slice(first[index], first[index] + int(np.count_nonzero(mine)))
        if picked.start == picked.stop:  # most steps of a generated set hold one modality
            continue
        first[index], out = picked.stop, res.outcomes[picked]
        values[mine] = np.column_stack((out.semantic, out.relevance_mass, out.confidence,
                                        res.feedback[picked], res.adjusted[picked]))
        ints[mine] = np.column_stack((out.own_in_topk, out.retrieved_label, out.sim_first_action,
                                      out.policy_action, out.decision_id, res.matched[picked],
                                      2 * out.pred_step2 + out.pred_step3))
    text = numtext.float_text(floats)
    head = numtext.joined(n, [_ID, numtext.int_text(ids), np.take(_HEADS, owner, axis=0),
                              text[:n], np.take(_KEPT, kept.view(np.int8), axis=0)])
    if not c:
        return head[head != 0]
    text = text[n:].reshape(c, 6, -1)
    text[:, 1, 0] = ord(",")  # a float's first slots are free for a separator
    own, label, first_action, act = numtext.int_text(ints[:, :4]).reshape(c, 4, -1).swapaxes(0, 1)
    decision, matched, steps, s5 = (np.take(table, ints[:, j], axis=0) for table, j in
                                    ((_DECISIONS, 4), (_MATCHED, 5), (_STEPS, 6), (_S5, 4)))
    parts = [text[:, :2], _MASS, text[:, 2], _OWN, own, _LABEL, label, decision, first_action,
             _ACTION, act, _CONFIDENCE, text[:, 3], matched, text[:, 4], _ADJUSTED, text[:, 5],
             steps, label, s5, act, _S7, act, _END]
    # each tail as whole head-wide rows after its head: dropping 0s keeps the order
    width, tail = head.shape[1], sum(part[0].size for part in parts)
    below = -(-tail // width)
    tails = numtext.joined(c, parts + [np.zeros((1, below * width - tail), dtype=np.uint8)])
    lines = np.insert(head, np.repeat(rows + 1, below), tails.reshape(-1, width), axis=0)
    return lines[lines != 0]


def trace_blocks(dataset: Dataset, results):
    """The bytes of trace.jsonl as uint8 arrays, a line per record of each
    modality that ran, in id order: SAVE_BLOCK dataset rows at a time, in
    steps of about _TRACE_CELLS floats. A running row and survivor offset
    per modality say where its share of a step starts."""
    ran = {res.context.modality_index: res for res in results}
    row, first = [0] * len(MODALITIES), [0] * len(MODALITIES)
    for lo in range(0, len(dataset.modality), SAVE_BLOCK):
        owner = dataset.modality[lo:lo + SAVE_BLOCK]
        written = np.isin(owner, list(ran))
        owner = owner[written]
        kept = np.zeros(len(owner), dtype=bool)
        for index, res in ran.items():
            mine = owner == index
            rows = slice(row[index], row[index] + int(np.count_nonzero(mine)))
            kept[mine] = res.kept[rows]
            row[index] = rows.stop
        ids = dataset.table.ids[lo:lo + SAVE_BLOCK][written]
        trust = dataset.table.trust[lo:lo + SAVE_BLOCK][written]
        # steps of about equal floats, at most _TRACE_CELLS + 6; none for no line
        floats = np.cumsum(1 + 6 * kept)
        step = (floats - 1) * -(-floats[-1:] // _TRACE_CELLS) // floats[-1:]
        cuts = np.flatnonzero(np.diff(step, prepend=-1, append=step[-1:] + 1)).tolist()
        for a, b in zip(cuts, cuts[1:]):
            yield _step_text(ran, first, owner[a:b], kept[a:b], ids[a:b], trust[a:b])


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
        raise ConfigError(f"align.learning_rate {cfg.align.learning_rate!r} and align.lambda_task "
                          f"{cfg.align.lambda_task!r} are too large for rollout rewards up to "
                          f"{float(peak)!r} in magnitude (set by the grid rewards): the "
                          "alignment weights are not finite numbers")
    return accuracy


@dataclass
class RunResult:
    out_dir: str
    confusions: dict        # modality -> {step -> StepConfusion}
    report_paths: dict
    trace_path: str
    summary_path: str
    alignment_accuracy: float


def check_out_dir(path: str) -> None:
    """Fail unless `path` is a directory or its nearest existing ancestor
    is one, so that a run which cannot write its outputs fails before it
    scores anything. Creates nothing."""
    probe = path
    while probe and not os.path.lexists(probe) and os.path.dirname(probe) != probe:
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe or os.curdir):
        raise ConfigError(f"output directory {path}: {probe} exists and is not a directory")


def execute_run(cfg: RunConfig, dataset: Dataset | None = None,
                out_dir: str | None = None) -> RunResult:
    """Generate or load the dataset, run every configured modality, and write
    trace + report files. Byte-identical for identical seeds and any worker
    count."""
    target = out_dir or cfg.out_dir
    check_out_dir(target)
    if dataset is None:
        dataset = load(cfg.dataset_path) if cfg.dataset_path else generate(cfg.generator)
    gen_cfg = GeneratorConfig.from_mapping(dataset.meta["generator"])
    check_actions(gen_cfg)

    results = [run_modality(cfg, gen_cfg, modality, dataset.by_modality(modality), cfg.workers)
               for modality in MODALITIES if modality in cfg.modalities]
    accuracy = run_alignment(cfg, results)

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
        # every byte goes to the binary file under the text one, as in `save`
        trace_file.buffer.writelines(trace_blocks(dataset, results))
        json.dump(summary, summary_file, indent=2, allow_nan=False)
        summary_file.write("\n")

    return RunResult(out_dir=target, confusions=confusions,
                     report_paths=report_paths, trace_path=trace_path,
                     summary_path=summary_path, alignment_accuracy=accuracy)
