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

    def test_same_flags_identical_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("gen", "--n", "8", "--seed", "7", "--out", str(a)) == 0
        assert run_cli("gen", "--n", "8", "--seed", "7", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path(self, tmp_path, capsys):
        target = tmp_path / "missing_dir" / "data.json"
        assert run_cli("gen", "--n", "2", "--out", str(target)) == 1
        assert capsys.readouterr().err.startswith("error:")

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

    def test_corrupt_csv_reports_line(self, run_dir, tmp_path, capsys):
        src = (run_dir / "report_visual.csv").read_text().splitlines()
        src[2] = "2,bad,0.9,0.9,0.9,0.9"
        broken_dir = tmp_path / "broken"
        broken_dir.mkdir()
        (broken_dir / "report_visual.csv").write_text("\n".join(src))
        assert run_cli("report", "--out", str(broken_dir)) == 1
        assert "line 3" in capsys.readouterr().err

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
