"""Config wire format: every malformed value ends in `error: <key> ...` with
exit code 1, and well-formed mappings survive a round trip unchanged."""

import copy
import dataclasses
import json
import math
import re
import warnings

from hypothesis import given, settings, strategies as st
import pytest

from msr.cli import main
from msr.config import AlignConfig, GridSpec, RunConfig
from msr.dataset import MODALITIES, GeneratorConfig, generate, load, save
from msr.errors import ConfigError, ParseError
from msr.scenario import ModalityWeights
from msr.sim2real import GridEnv, RandomizationConfig

from test_golden import CONFIGS

SMALL = {"generator": {"n_per_modality": 20}}

# (key the message must name, config fragment merged over SMALL)
PROBES = [
    ("m_count", {"m_count": "16"}),
    ("k", {"k": 2.5}),
    ("tau", {"tau": "0.5"}),
    ("workers", {"workers": True}),
    ("seed", {"seed": "x"}),
    ("grid.start", {"grid": {"start": [2, 2, 2]}}),
    ("grid.width", {"grid": {"width": 3.5}}),
    ("randomization.continuous.step_reward",
     {"randomization": {"continuous": {"step_reward": [0.0]}}}),
    ("randomization.continuous.step_reward",
     {"randomization": {"continuous": {"step_reward": ["a", 0.05]}}}),
    ("randomization.variants", {"randomization": {"variants": []}}),
    ("context_weights", {"context_weights": 3}),
    ("modalities", {"modalities": "visual"}),
    ("weights.sensor", {"weights": {"sensor": "1", "internal": 0.2, "instruction": 0.2}}),
    ("generator.n_per_modality", {"generator": {"n_per_modality": "20"}}),
    ("generator.trust_distribution",
     {"generator": {"n_per_modality": 20, "trust_distribution": 0.5}}),
    ("generator.label_noise",
     {"generator": {"n_per_modality": 20, "label_noise": [0.1, 0.1, 0.1]}}),
    ("generator.label_noise.visual",
     {"generator": {"n_per_modality": 20,
                    "label_noise": {"visual": "0.1", "auditory": 0.1, "tactile": 0.1}}}),
    # values that used to pass parsing and fail only once the run was under way
    ("randomization.variants", {"randomization": {"variants": {"keep": 0.5}}}),
    ("randomization.variants", {"randomization": {"variants": {"teleport": 1.0}}}),
    ("randomization.continuous", {"randomization": {"continuous": {"gravity": [0, 1]}}}),
    ("randomization.continuous", {"randomization": {"continuous": {"step_reward": [0, -1]}}}),
    ("internal_state", {"internal_state": [0.1, 0.2, 0.3]}),
    ("instruction", {"instruction": [0.1]}),
    ("context_weights", {"context_weights": [0, 0, 0]}),
    ("context_weights", {"context_weights": [1, -1, 1]}),
    ("weights.sensor", {"weights": {"sensor": -0.2, "internal": 0.6, "instruction": 0.6}}),
    ("generator.n_actions",
     {"generator": {"n_per_modality": 20, "n_actions": 6, "feature_dim": 10}}),
    # a negative run seed used to end in a raw traceback from the stream setup
    ("seed", {"seed": -1, "generator": {"seed": 1}}),
    ("seed", {"seed": 2 ** 64}),
    ("generator.seed", {"generator": {"n_per_modality": 20, "seed": -1}}),
    ("generator.n_per_modality", {"generator": {"n_per_modality": 0}}),
    # non-finite numbers used to run the whole pipeline and fail writing JSON
    ("grid.real_step_reward", {"grid": {"real_step_reward": float("nan")}}),
    ("lambda_feedback", {"lambda_feedback": float("inf")}),
    ("randomization.variants.keep", {"randomization": {"variants": {"keep": float("-inf")}}}),
    # used to pass parsing and fail only once the corpus was generated
    ("sparse_readout_top_n", {"sparse_readout_top_n": 0}),
]


@pytest.mark.parametrize("key,fragment", PROBES, ids=[f"{k}-{i}" for i, (k, _) in
                                                       enumerate(PROBES)])
def test_malformed_value_exits_1_naming_the_key(tmp_path, capsys, key, fragment):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**SMALL, **fragment}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}"), err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key,fragment", PROBES, ids=[f"{k}-{i}" for i, (k, _) in
                                                       enumerate(PROBES)])
def test_malformed_value_fails_at_parse_time(key, fragment):
    # from_mapping runs before any corpus is generated
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}"):
        RunConfig.from_mapping({**SMALL, **fragment})


def test_dataset_with_malformed_generator_is_a_parse_error(tmp_path):
    path = tmp_path / "data.json"
    save(generate(GeneratorConfig(n_per_modality=3)), str(path))
    payload = json.loads(path.read_text())
    payload["meta"]["generator"]["n_per_modality"] = "3"
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError, match=r"meta\.generator: .*n_per_modality"):
        load(str(path))


def _contains(given, full):
    if isinstance(given, dict):
        return all(k in full and _contains(v, full[k]) for k, v in given.items())
    return given == full


# (what is given, how a config is built from it): the golden configs' documents,
# and a config built in Python with a list for a tuple field
ROUND_TRIPS = [*((CONFIGS[name], RunConfig.from_mapping) for name in sorted(CONFIGS)),
               ({"context_weights": [1.0, 1.0, 1.0]}, lambda given: RunConfig(**given))]


@pytest.mark.parametrize("given,build", ROUND_TRIPS, ids=[*sorted(CONFIGS), "built-in-python"])
def test_round_trip(given, build):
    cfg = build(given)
    mapping = cfg.to_mapping()
    assert _contains(given, mapping)
    assert RunConfig.from_mapping(mapping) == cfg
    assert RunConfig.from_mapping(mapping).to_mapping() == mapping


def test_label_noise_echoed_in_modality_order():
    noise = {"tactile": 0.12, "visual": 0.09, "auditory": 0.11}
    mapping = RunConfig.from_mapping({"generator": {"label_noise": noise}}).to_mapping()
    assert list(mapping["generator"]["label_noise"]) == list(MODALITIES)
    assert mapping["generator"]["label_noise"] == noise
    assert GeneratorConfig.from_mapping(mapping["generator"]).to_mapping() == mapping["generator"]


def test_int_for_float_kept_as_given():
    mapping = RunConfig.from_mapping({"tau": 0, "grid": {"slip_prob": 0}}).to_mapping()
    assert type(mapping["tau"]) is int and type(mapping["grid"]["slip_prob"]) is int


def test_optional_values_accept_null():
    cfg = RunConfig.from_mapping({"internal_state": None, "instruction": None,
                                  "dataset_path": None})
    assert cfg.internal_state is None and cfg.instruction is None


@pytest.mark.parametrize("fragment,message", [
    ({"tau": True}, "tau must be a number"),
    ({"internal_state": [0.1, "a"]}, r"internal_state\[1\] must be a number"),
    ({"weights": {"sensor": 1.0}}, r"weights needs keys \['internal', 'instruction'\]"),
    ({"grid": [5, 5]}, "grid must be an object"),
    ({"align": {"stpes": 3}}, r"unknown align keys \['stpes'\]"),
    # removed settings that changed no output
    ({"stm_capacity": 32}, r"unknown config keys \['stm_capacity'\]"),
    ({"extraction_mode": "identity", "extraction_window": 3},
     r"unknown config keys \['extraction_mode', 'extraction_window'\]"),
])
def test_config_errors_name_the_key(fragment, message):
    with pytest.raises(ConfigError, match=message):
        RunConfig.from_mapping(fragment)


@pytest.mark.parametrize("fragment,message", [
    ({"internal_state": (1.0, 2.0, 3.0)}, r"^internal_state must hold 2 values, got 3"),
    ({"instruction": (1.0,)}, r"^instruction must hold 2 values, got 1"),
    ({"seed": -1}, r"^seed must be a 64-bit unsigned integer"),
])
def test_config_built_in_python_is_validated(fragment, message):
    # RunConfig(...) skips the mapper, so the type must catch these itself
    with pytest.raises(ConfigError, match=message):
        RunConfig(**fragment)


# (config type, bad fields, the message's start); every config type checks
# itself when built, and dataclasses.replace builds a new one
BUILT_INVALID = [
    (GeneratorConfig, {"n_per_modality": 0}, r"generator\.n_per_modality must be >= 1"),
    (GeneratorConfig, {"feature_dim": 4}, r"generator\.feature_dim 4 too small"),
    (GeneratorConfig, {"label_noise": {"visual": 0.1}}, r"generator\.label_noise must cover"),
    (GeneratorConfig, {"trust_distribution": (0.5, 0.0)},
     r"generator\.trust_distribution spread must be > 0"),
    (GeneratorConfig, {"seed": -1}, r"generator\.seed must be a 64-bit"),
    (GridSpec, {"goal_distance": 0}, r"grid\.goal_distance must be >= 1"),
    (GridSpec, {"horizon": 1}, r"grid\.horizon 1 shorter than grid\.goal_distance 2"),
    (GridSpec, {"start": (0, 0)}, r"grid: goal \(0, -2\) outside the 5x5 grid"),
    (AlignConfig, {"steps": 0}, r"align\.steps must be >= 1"),
    (AlignConfig, {"samples": 0}, r"align\.samples must be >= 1"),
    (AlignConfig, {"learning_rate": 0.0}, r"align\.learning_rate must be > 0"),
    (AlignConfig, {"lambda_task": -0.1}, r"align\.lambda_task must be >= 0"),
    (RunConfig, {"tau": 2.0}, r"tau must be in \[0, 1\]"),
    (RunConfig, {"sparse_readout_top_n": 0}, r"sparse_readout_top_n must be >= 1"),
    (RunConfig, {"workers": 0}, r"workers must be >= 1"),
    (RunConfig, {"generator": GeneratorConfig(n_actions=6, feature_dim=10)},
     r"generator\.n_actions must be <= 4"),
    (GeneratorConfig, {"trust_distribution": (0.5, 1e308)},
     r"generator\.trust_distribution spread 1e\+308 puts the trust bands past the float "
     "range"),
    (GridSpec, {"height": 2 ** 60}, r"grid\.height must be < 2\*\*60, got 1152921504606846976"),
    (RunConfig, {"m_count": 2 ** 60}, r"m_count must be < 2\*\*60"),
    (RunConfig, {"modalities": ("visual", "visual")},
     r"modalities must not repeat, got \['visual', 'visual'\]"),
    (RunConfig, {"sparse_readout_threshold": -5}, r"sparse_readout_threshold must be >= 0, got -5"),
]


@pytest.mark.parametrize("cls,changes,message", BUILT_INVALID,
                         ids=[f"{c.__name__}-{i}" for i, (c, _, _) in enumerate(BUILT_INVALID)])
def test_every_config_type_checks_itself(cls, changes, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        cls(**changes)
    with pytest.raises(ConfigError, match=f"^{message}"):
        dataclasses.replace(cls(), **changes)


def test_no_config_type_has_a_validate_method():
    for cls in (GeneratorConfig, GridSpec, AlignConfig, RunConfig):
        assert not hasattr(cls, "validate"), cls


def test_top_level_must_be_an_object():
    with pytest.raises(ConfigError, match="config must be an object"):
        RunConfig.from_mapping([1, 2])


# every config type: the dotted key of its fields' parent, and the arguments
# it needs besides its defaults
CONFIG_TYPES = {
    RunConfig: ("", {}),
    GeneratorConfig: ("generator", {}),
    GridSpec: ("grid", {}),
    AlignConfig: ("align", {}),
    ModalityWeights: ("weights", {"sensor": 0.6, "internal": 0.2, "instruction": 0.2}),
    RandomizationConfig: ("randomization", {}),
    GridEnv: ("", {"width": 5, "height": 5, "start": (0, 0), "goal": (1, 0)}),
}


def _fields():
    """(config type, field, dotted key, type without its rules) of every field."""
    for cls, (label, _) in CONFIG_TYPES.items():
        for f in dataclasses.fields(cls):
            key = f"{label}.{f.name}" if label else f.name
            yield cls, f, key, getattr(f.type, "__origin__", f.type)


def _refusal(cls, name, value):
    """The ConfigError message of building `cls` with `name` set to `value`,
    directly and through dataclasses.replace (the two must agree), or None."""
    base = CONFIG_TYPES[cls][1]
    messages = []
    for build in (lambda: cls(**{**base, name: value}),
                  lambda: dataclasses.replace(cls(**base), **{name: value})):
        try:
            build()
            messages.append(None)
        except ConfigError as exc:
            messages.append(str(exc))
    assert messages[0] == messages[1], messages
    return messages[0]


NUMERIC = [(cls, f.name, key, tp) for cls, f, key, tp in _fields() if tp in (int, float)]


@pytest.mark.parametrize("cls,name,key,tp", NUMERIC, ids=[f"{c.__name__}-{n}" for c, n, _, _
                                                          in NUMERIC])
def test_every_number_field_refuses_what_a_document_may_not_hold(cls, name, key, tp):
    # a config built in Python used to accept NaN, a bool or a non-integral
    # float in some of these, and end in a raw TypeError on a string in
    # others; a float field took an int past the float range
    for value in [math.nan, math.inf, -math.inf, "1", True, *([2.5] if tp is int else [10 ** 400])]:
        message = _refusal(cls, name, value)
        assert message is not None and message.startswith(f"{key} must be "), (value, message)


# every bounded key and its rules, as the error message prints them
RANGES = {
    "generator.n_per_modality": (">= 1", "< 2**60"),
    "generator.feature_dim": ("< 2**60",),
    "generator.n_actions": (">= 2",),
    "generator.n_memory_classes": (">= 2", "< 2**60"),
    "generator.cluster_separation": ("> 0",),
    "tau": ("[0, 1]",),
    "weights.sensor": (">= 0",),
    "weights.internal": (">= 0",),
    "weights.instruction": (">= 0",),
    "m_count": (">= 1", "< 2**60"),
    "k": (">= 1",),
    "noise_width": (">= 0",),
    "rel_threshold": ("(0, 1)",),
    "beta": ("[0, 1]",),
    "sparse_readout_top_n": (">= 1",),
    "sparse_readout_threshold": (">= 0",),
    "lambda_feedback": (">= 0",),
    "gamma": ("[0, 1]",),
    "alpha": (">= 0",),
    "grid.width": (">= 1", "< 2**60"),
    "grid.height": (">= 1", "< 2**60"),
    "grid.goal_distance": (">= 1", "< 2**60"),
    "grid.horizon": (">= 1", "< 2**60"),
    "align.steps": (">= 1",),
    "align.learning_rate": ("> 0",),
    "align.lambda_task": (">= 0",),
    "align.samples": (">= 1",),
    "workers": (">= 1",),
    # GridEnv, which GridSpec builds and whose messages it prefixes with "grid: "
    "width": (">= 1",),
    "height": (">= 1",),
    "slip_prob": ("[0, 1)",),
    "horizon": (">= 1",),
}
DECLARED = {key: (cls, f.name, tp, getattr(f.type, "__metadata__", ()))
            for cls, f, key, tp in _fields()}


def test_every_declared_range_is_in_the_table_and_no_other():
    declared = {key: rules for key, (_, _, _, rules) in DECLARED.items() if rules}
    assert declared == RANGES


def _ends(rule: str):
    """(end text, closed, side) of each end of a rule; side is -1 for a lower
    end, +1 for an upper one."""
    if rule[0] in "[(":
        low, high = rule[1:-1].split(", ")
        return [(low, rule[0] == "[", -1), (high, rule[-1] == "]", 1)]
    op, end = rule.split(" ")
    return [(end, op.endswith("="), -1 if op[0] == ">" else 1)]


@pytest.mark.parametrize("key", sorted(RANGES))
def test_each_end_of_a_range_is_where_the_table_says(key):
    cls, name, tp, _ = DECLARED[key]
    for rule in RANGES[key]:
        for text, closed, side in _ends(rule):
            base, _, power = text.partition("**")
            end = tp(int(base) ** int(power) if power else float(text))
            past = end + side if tp is int else math.nextafter(end, side * math.inf)
            refused = f"{key} must be "
            # another rule may refuse the end itself (a 1-wide grid has no goal cells)
            at_end = _refusal(cls, name, end) or ""
            assert at_end.startswith(refused) != closed, (rule, end, at_end)
            assert (_refusal(cls, name, past) or "").startswith(refused), (rule, past)


DEFAULT_DOCUMENT = RunConfig().to_mapping()


def _paths(document, parent=()):
    for key, value in document.items():
        yield (*parent, key)
        if isinstance(value, dict):
            yield from _paths(value, (*parent, key))


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 1100, 2 ** 1100) | st.floats(-1e308, 1e308)
    | st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(["visual", "keep", "step_reward"])
                                     | st.text(max_size=8), inner, max_size=4)),
    max_leaves=8)


@settings(deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(_paths(DEFAULT_DOCUMENT))), JSON),
                min_size=1, max_size=3))
def test_any_document_parses_or_is_a_config_error(changes):
    # parsing only: no corpus is generated and no run or worker starts
    document = copy.deepcopy(DEFAULT_DOCUMENT)
    for path, value in changes:
        parent = document
        for key in path[:-1]:
            if not isinstance(parent.get(key), dict):
                parent[key] = {}
            parent = parent[key]
        parent[path[-1]] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = RunConfig.from_mapping(document)
        except ConfigError:
            return
        mapping = cfg.to_mapping()
        assert RunConfig.from_mapping(mapping) == cfg
        assert RunConfig.from_mapping(mapping).to_mapping() == mapping
