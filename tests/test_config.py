"""Config wire format: every malformed value ends in `error: <key> ...` with
exit code 1, and well-formed mappings survive a round trip unchanged."""

import dataclasses
import json
import re

import pytest

from msr.cli import main
from msr.config import AlignConfig, GridSpec, RunConfig
from msr.dataset import MODALITIES, GeneratorConfig, generate, load, save
from msr.errors import ConfigError, ParseError

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


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_round_trip(name):
    cfg = RunConfig.from_mapping(CONFIGS[name])
    mapping = cfg.to_mapping()
    assert _contains(CONFIGS[name], mapping)
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
