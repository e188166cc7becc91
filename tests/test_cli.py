import dataclasses
import json
import os

import pytest

from msr.cli import main
from msr.dataset import GeneratorConfig, generate, load, save


def run_cli(*argv):
    return main(list(argv))


class TestGen:
    def test_generates_and_reports_counts(self, tmp_path, capsys):
        out = tmp_path / "data.json"
        assert run_cli("gen", "--n", "5", "--seed", "42", "--out", str(out)) == 0
        printed = capsys.readouterr().out
        assert "visual: 5 records" in printed
        assert "total: 15 records" in printed
        ds = load(str(out))
        assert len(ds.records) == 15

    def test_zero_records_rejected_nonzero_exit(self, tmp_path, capsys):
        out = tmp_path / "data.json"
        assert run_cli("gen", "--n", "0", "--out", str(out)) == 1
        assert "n_per_modality" in capsys.readouterr().err
        assert not out.exists()

    def test_too_many_records_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "data.json"
        assert run_cli("gen", "--n", str(10 ** 20), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == f"error: generator.n_per_modality must be < 2**60, got {10 ** 20}\n", err
        assert not out.exists()

    def test_same_flags_identical_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("gen", "--n", "8", "--seed", "7", "--out", str(a)) == 0
        assert run_cli("gen", "--n", "8", "--seed", "7", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path(self, tmp_path, capsys):
        target = tmp_path / "missing_dir" / "data.json"
        assert run_cli("gen", "--n", "2", "--out", str(target)) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("case", ["directory", "missing", "file"])
    def test_out_that_cannot_be_a_file_fails_before_generating(self, tmp_path, capsys,
                                                               monkeypatch, case):
        from msr import cli

        def refuse(*args, **kwargs):
            raise AssertionError("records generated for a file that cannot be written")

        monkeypatch.setattr(cli, "generate", refuse)
        (tmp_path / "taken").write_text("a file\n")
        (tmp_path / "d").mkdir()
        out, parent = {"directory": (tmp_path / "d", None),
                       "missing": (tmp_path / "nope" / "data.json", tmp_path / "nope"),
                       "file": (tmp_path / "taken" / "data.json", tmp_path / "taken")}[case]
        assert run_cli("gen", "--n", "100000", "--out", str(out)) == 1
        expected = (f"error: output file {out} is a directory\n" if parent is None
                    else f"error: output file {out}: {parent} is not a directory\n")
        assert capsys.readouterr().err == expected
        assert sorted(os.listdir(tmp_path)) == ["d", "taken"] and not os.listdir(tmp_path / "d")

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("MSR_SEED", "123")
        assert run_cli("gen", "--n", "4", "--out", str(a)) == 0
        monkeypatch.delenv("MSR_SEED")
        assert run_cli("gen", "--n", "4", "--seed", "123", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_flag_overrides_env_seed(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("MSR_SEED", "999")
        assert run_cli("gen", "--n", "4", "--seed", "5", "--out", str(a)) == 0
        monkeypatch.delenv("MSR_SEED")
        assert run_cli("gen", "--n", "4", "--seed", "5", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps({
        "generator": {"n_per_modality": 120, "seed": 21},
        "seed": 21,
    }))
    return str(path)


class TestRun:
    def test_default_run_writes_reports(self, small_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("run", "--config", small_config, "--out", str(out))
        assert code == 0
        for m in ("visual", "auditory", "tactile"):
            assert (out / f"report_{m}.csv").exists()
        assert (out / "report.md").exists()
        assert (out / "trace.jsonl").exists()

    def test_modality_filter(self, small_config, tmp_path):
        out = tmp_path / "only_visual"
        assert run_cli("run", "--config", small_config, "--out", str(out),
                       "--modality", "visual") == 0
        assert (out / "report_visual.csv").exists()
        assert not (out / "report_auditory.csv").exists()

    def test_missing_dataset_nonzero(self, small_config, tmp_path, capsys):
        code = run_cli("run", "--config", small_config,
                       "--data", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "o"))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("under", ["", "sub", "sub/deeper"])
    def test_out_that_cannot_be_a_directory_fails_before_scoring(self, small_config, tmp_path,
                                                                 capsys, monkeypatch, under):
        from msr import pipeline

        def refuse(*args, **kwargs):
            raise AssertionError("records scored for a run that cannot write its outputs")

        monkeypatch.setattr(pipeline, "score_records", refuse)
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        out = os.path.join(taken, under) if under else str(taken)
        assert run_cli("run", "--config", small_config, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == f"error: output directory {out}: {taken} exists and is not a directory\n", err
        assert taken.read_text() == "a file\n" and os.listdir(tmp_path) == ["taken"]

    def test_rerun_byte_identical(self, small_config, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run_cli("run", "--config", small_config, "--out", str(out),
                           "--workers", "1" if name == "r1" else "4") == 0
            outs.append({f: (out / f).read_bytes() for f in sorted(os.listdir(out))})
        assert outs[0] == outs[1]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"generator": {"n_per_modality": 5}, "tua": 0.5}))
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert "tua" in capsys.readouterr().err

    def test_overflowing_context_weights_are_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "weights.json"
        cfg.write_text(json.dumps({"generator": {"n_per_modality": 20},
                                   "context_weights": [1e308, 1e308, 1e308]}))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: context_weights [1e+308, 1e+308, 1e+308] give"), err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_feedback_adjusted_utility_is_an_error(self, tmp_path, capsys):
        # every decision utility is finite; adding the weighted feedback overflows
        cfg = tmp_path / "feedback.json"
        cfg.write_text(json.dumps({"generator": {"n_per_modality": 300},
                                   "context_weights": [5e307, 0.0, 0.0],
                                   "lambda_feedback": 1.5e308}))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: lambda_feedback 1.5e+308 and context_weights "
                              "[5e+307, 0.0, 0.0] give record "), err
        assert err.endswith(" a feedback-adjusted utility that is not a finite number\n"), err
        assert not out.exists()

    # numpy refuses each of these sizes before it allocates anything
    @pytest.mark.parametrize("fragment,key", [
        ({"generator": {"n_per_modality": 10 ** 20}}, "generator.n_per_modality"),
        ({"m_count": 10 ** 20}, "m_count"),
        ({"generator": {"feature_dim": 10 ** 20}}, "generator.feature_dim"),
        ({"generator": {"n_memory_classes": 10 ** 20}}, "generator.n_memory_classes"),
        ({"grid": {"horizon": 10 ** 20, "goal_distance": 1}}, "grid.horizon"),
        ({"grid": {"width": 10 ** 20}}, "grid.width"),
    ], ids=["n_per_modality", "m_count", "feature_dim", "n_memory_classes", "horizon",
            "width"])
    def test_integers_too_large_for_numpy_are_an_error(self, tmp_path, capsys, fragment, key):
        cfg = tmp_path / "sizes.json"
        cfg.write_text(json.dumps({"generator": {"n_per_modality": 20}} | fragment))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {key} must be < 2**60, got {10 ** 20}\n", err
        assert not out.exists()

    # each count is below 2**60, but the largest table their product sizes is
    # not; the config check refuses them before any of these builds a table
    @pytest.mark.parametrize("fragment,keys", [
        ({"m_count": 2 ** 59}, "m_count * 4 * 512 chunk rows"),
        ({"generator": {"n_per_modality": 20, "feature_dim": 2 ** 59}},
         "3 * generator.n_per_modality * (generator.feature_dim + 11)"),
        ({"grid": {"width": 2 ** 59}},
         "grid.width * grid.height * max(4, grid.horizon + 1) * 128 chunk rows"),
        ({"grid": {"horizon": 2 ** 59, "goal_distance": 1}},
         "grid.width * grid.height * max(4, grid.horizon + 1) * 128 chunk rows"),
    ], ids=["m_count", "feature_dim", "width", "horizon"])
    def test_products_too_large_for_numpy_are_an_error(self, tmp_path, capsys, monkeypatch,
                                                       fragment, keys):
        from msr import dataset, seeding, sim2real

        def refuse(*args, **kwargs):
            raise AssertionError("a table was built from a config too large for numpy")

        for owner, name in ((seeding, "keyed_uniforms"), (dataset.FeatureGeometry, "from_config"),
                            (sim2real.EnvBatch, "tables"), (sim2real, "solve_batch")):
            monkeypatch.setattr(owner, name, refuse)
        cfg = tmp_path / "sizes.json"
        cfg.write_text(json.dumps({"generator": {"n_per_modality": 20}} | fragment))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {keys} must be < 2**60, got "), err
        assert not out.exists()

    def test_class_centers_too_large_for_numpy_are_an_error(self, tmp_path, capsys):
        # below the corpus bound, but the (4, feature_dim) action centers are not
        cfg = tmp_path / "centers.json"
        cfg.write_text(json.dumps({"generator": {"n_per_modality": 1, "feature_dim": 2 ** 58}}))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == ("error: max(2, generator.n_actions, generator.n_memory_classes) * "
                       f"generator.feature_dim must be < 2**60, got {2 ** 60}\n"), err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("channels", [
        {"noise_width": 1e308},
        {"internal_state": [-4000, 0]},
        {"instruction": [1e308, -1e308]},
        {"internal_state": [-3544, -3544]},
    ], ids=["noise", "exp-overflow", "neutral-map", "sum-overflow"])
    def test_overflowing_scenario_channels_are_an_error(self, tmp_path, capsys, channels):
        cfg = tmp_path / "channels.json"
        cfg.write_text(json.dumps({"generator": {"n_per_modality": 50}, **channels}))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: internal_state "), err
        assert "instruction" in err and "noise_width" in err and "not a finite number" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("channels", [{"internal_state": [1e308, 1e308]},
                                          {"noise_width": 1e300}],
                             ids=["internal_state", "noise_width"])
    def test_large_finite_scenario_channels_run(self, tmp_path, channels):
        cfg = tmp_path / "channels.json"
        cfg.write_text(json.dumps({"generator": {"n_per_modality": 50}, **channels}))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
        assert (out / "trace.jsonl").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fragment", [
        {"grid": {"real_step_reward": 1e308}}, {"grid": {"step_reward": -1e308}},
        {"randomization": {"continuous": {"step_reward": [0.0, 1e308]}}},
    ], ids=["real_step_reward", "step_reward", "randomized"])
    def test_overflowing_grid_rewards_are_an_error(self, tmp_path, capsys, fragment):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"generator": {"n_per_modality": 50}, **fragment}))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid rewards (step_reward "), err
        assert "real_step_reward" in err and "not a finite number" in err
        assert not out.exists()

    # the plan's tables stay finite here; the alignment on its rollout
    # rewards overflows, whatever the learning rate's or lambda_task's share in it
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fragment,peak", [
        ({"grid": {"goal_reward": 1e308}}, "1e+308"),
        ({"align": {"learning_rate": 1e308}}, "9."),
        ({"align": {"lambda_task": 1e308}}, "9."),
    ], ids=["goal_reward", "learning_rate", "lambda_task"])
    def test_overflowing_alignment_is_an_error(self, tmp_path, capsys, fragment, peak):
        cfg = tmp_path / "align.json"
        cfg.write_text(json.dumps({"generator": {"n_per_modality": 50}, **fragment}))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: align.learning_rate "), err
        assert " and align.lambda_task " in err
        assert f"rollout rewards up to {peak}" in err and "grid rewards" in err
        assert "not finite numbers" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_trust_spread_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "trust.json"
        cfg.write_text(json.dumps({"generator": {"n_per_modality": 50,
                                                 "trust_distribution": [0.5, 1e308]}}))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: generator.trust_distribution spread 1e+308 "), err
        assert not out.exists()

    def test_features_too_large_to_normalize_are_an_error(self, tmp_path, capsys):
        # the file is valid: every value is finite; only their sums overflow
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"generator": {"n_per_modality": 20,
                                                 "cluster_separation": 1e308}}))
        data = tmp_path / "data.json"
        assert run_cli("gen", "--config", str(cfg), "--out", str(data)) == 0
        out = tmp_path / "out"
        assert run_cli("run", "--data", str(data), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: values too large to normalize"), err
        assert not out.exists()


@pytest.fixture(scope="module")
def run_dir(small_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("report_src")
    assert run_cli("run", "--config", small_config, "--out", str(out)) == 0
    return out


class TestReport:
    def test_renders_three_tables(self, run_dir, capsys):
        assert run_cli("report", "--out", str(run_dir)) == 0
        md = capsys.readouterr().out
        assert md.count("performance metrics") == 3
        assert "| Step 7 |" in md

    def test_band_flags_low_cells(self, run_dir, capsys):
        assert run_cli("report", "--out", str(run_dir), "--band", "0.99") == 0
        md = capsys.readouterr().out
        assert "[below 0.99]" in md
        assert run_cli("report", "--out", str(run_dir), "--band", "0.5") == 0
        md = capsys.readouterr().out
        assert "Cells below 0.5: 0" in md

    def test_nan_band_is_rejected(self, run_dir, capsys):
        assert run_cli("report", "--out", str(run_dir), "--band", "nan") == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --band must be a number, got nan\n"
        assert captured.out == ""

    def test_infinite_band_flags_every_cell(self, run_dir, capsys):
        assert run_cli("report", "--out", str(run_dir), "--band", "inf") == 0
        md = capsys.readouterr().out
        flagged = md.count("[below inf]")
        assert flagged > 0 and f"Cells below inf: {flagged}" in md

    # each row replaces the given line of a good report; line 9 comes after step 7
    @pytest.mark.parametrize("line,row", [
        (3, "2,bad,0.9,0.9,0.9,0.9"), (2, "1,nan,inf,1e300,-3,1_0"), (3, "2,0.9,inf,0.9,0.9,0.9"),
        (3, "2,0.9,0.9,1e300,0.9,0.9"), (3, "2,0.9,0.9,0.9,-3,0.9"), (3, "2,0.9,0.9,0.9,0.9,1_0"),
        (3, "0,0.9,0.9,0.9,0.9,0.9"), (9, "8,0.9,0.9,0.9,0.9,0.9"),
    ], ids=["word", "nan", "inf", "1e300", "negative", "underscore", "step0", "step8"])
    def test_corrupt_csv_reports_line(self, run_dir, tmp_path, capsys, line, row):
        src = (run_dir / "report_visual.csv").read_text().splitlines()
        src[line - 1:line] = [row]
        broken_dir = tmp_path / "broken"
        broken_dir.mkdir()
        path = broken_dir / "report_visual.csv"
        path.write_text("\n".join(src))
        assert run_cli("report", "--out", str(broken_dir)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: line {line}: "), captured.err
        assert captured.out == ""

    def test_missing_inputs_nonzero(self, tmp_path, capsys):
        assert run_cli("report", "--out", str(tmp_path / "empty")) == 1
        assert "error:" in capsys.readouterr().err


NOT_UTF8 = b"\xff\xfe\x00"


@pytest.mark.parametrize("flags", [("run", "--data"), ("run", "--config"), ("gen", "--config")])
def test_non_utf8_input_file_is_an_error(tmp_path, capsys, flags):
    path = tmp_path / "input.json"
    path.write_bytes(NOT_UTF8)
    assert run_cli(*flags, str(path), "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "codec can't decode" in err, err


def test_non_utf8_report_csv_is_an_error(tmp_path, capsys):
    (tmp_path / "report_visual.csv").write_bytes(NOT_UTF8)
    assert run_cli("report", "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'report_visual.csv'}: not UTF-8"), err


@pytest.mark.parametrize("text,message", [('{"meta": 1}', "top level must be an object"),
                                          ("{", "invalid JSON")])
def test_dataset_errors_name_the_file(small_config, tmp_path, capsys, text, message):
    # with --config and --data both given, the message says which file failed
    data = tmp_path / "data.json"
    data.write_text(text)
    assert run_cli("run", "--config", small_config, "--data", str(data),
                   "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}: {message}"), err


def test_dataset_with_more_actions_than_moves_is_an_error(tmp_path, capsys):
    # the file's own generator is the one the run uses, so it is checked too
    data = tmp_path / "data.json"
    save(generate(GeneratorConfig(n_per_modality=20, n_actions=6, feature_dim=10)), str(data))
    out = tmp_path / "out"
    assert run_cli("run", "--data", str(data), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n_actions" in err, err
    assert not out.exists()


def test_dataset_claiming_a_huge_layout_is_an_error(tmp_path, capsys):
    # no address space holds a 10**15-wide layout, so building the expected
    # meta from these claims would fail at once; the records are checked first
    dataset = generate(GeneratorConfig(n_per_modality=2, seed=3))
    meta = {**dataset.meta, "generator": {**dataset.meta["generator"],
                                          "feature_dim": 10 ** 15,
                                          "n_memory_classes": 10 ** 15}}
    data = tmp_path / "data.json"
    save(dataclasses.replace(dataset, meta=meta), str(data))
    assert run_cli("run", "--data", str(data), "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err == f"error: {data}: record 0: features must hold {10 ** 15} numbers\n", err


@pytest.mark.parametrize("argv, name", [(("run",), "execute_run"),
                                        (("gen", "--out", "data.json"), "generate")])
def test_out_of_memory_is_an_error(tmp_path, monkeypatch, capsys, argv, name):
    from msr import cli

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 TiB for an array")

    monkeypatch.setattr(cli, name, exhausted)
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 74.5 TiB for an array\n", err
