import json
import os
import re
import shutil
import tracemalloc

import pytest

from msr.cli import main
from msr.config import RunConfig
from msr.dataset import GeneratorConfig
from msr.pipeline import execute_run

GEN = GeneratorConfig(n_per_modality=30, seed=4)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two runs of one config and a third with another tau."""
    root = tmp_path_factory.mktemp("runs")
    for name, tau in (("a", 0.5), ("b", 0.5), ("tau", 0.45)):
        execute_run(RunConfig(generator=GEN, seed=4, tau=tau, out_dir=str(root / name)))
    return root


def diff(capsys, a, b):
    code = main(["diff", str(a), str(b)])
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def copy(runs, tmp_path, name="a"):
    return shutil.copytree(runs / name, tmp_path / "copy")


def test_same_outputs_are_no_difference(runs, capsys):
    assert diff(capsys, runs / "a", runs / "b") == (
        0, [f"no difference between {runs / 'a'} and {runs / 'b'}"], "")


def test_each_file_names_its_first_difference(runs, capsys):
    code, lines, err = diff(capsys, runs / "a", runs / "tau")
    assert code == 1 and err == ""
    # the survivors' norm stats move with tau, and every kept value with them
    traces = ((runs / name / "trace.jsonl").read_text().splitlines() for name in ("a", "tau"))
    first = next(json.loads(a)["id"] for a, b in zip(*traces) if a != b)
    assert re.fullmatch(rf"trace\.jsonl: record {first}: semantic\.0: \S+ != \S+", lines[0])
    assert lines[1] == "run_summary.json: config.tau: 0.5 != 0.45"
    assert all(line.startswith(("report_", "report.md: line ")) for line in lines[2:])
    assert lines[-1].startswith("report.md: line ")


def test_trace_field_is_dotted(runs, tmp_path, capsys):
    other = copy(runs, tmp_path)
    lines = (other / "trace.jsonl").read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if '"kept":true' in line)
    record = json.loads(lines[row])
    moved = (record["steps"]["s6"] + 1) % 4
    record["steps"]["s6"] = moved
    lines[row] = json.dumps(record, separators=(",", ":"))
    (other / "trace.jsonl").write_text("\n".join(lines) + "\n")
    code, out, _ = diff(capsys, runs / "a", other)
    s6 = json.loads((runs / "a" / "trace.jsonl").read_text().splitlines()[row])["steps"]["s6"]
    assert (code, out) == (1, [f"trace.jsonl: record {record['id']}: steps.s6: {s6} != {moved}"])


def test_text_of_equal_values_differs(runs, tmp_path, capsys):
    # 1.0 == 1 in Python, but not in the file's bytes
    other = copy(runs, tmp_path)
    summary = json.loads((other / "run_summary.json").read_text())
    summary["config"]["generator"]["cluster_separation"] = 2
    (other / "run_summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    lines = (other / "trace.jsonl").read_text().splitlines()
    lines[-1] = lines[-1].replace('{"id":', '{ "id":', 1)
    (other / "trace.jsonl").write_text("\n".join(lines) + "\n")
    code, out, _ = diff(capsys, runs / "a", other)
    last = json.loads(lines[-1])["id"]
    assert (code, out) == (1, [f"trace.jsonl: record {last}: same values, other text",
                               "run_summary.json: config.generator.cluster_separation: 2.0 != 2"])


def test_report_csv_names_step_and_column(runs, tmp_path, capsys):
    other = copy(runs, tmp_path)
    path = other / "report_tactile.csv"
    lines = path.read_text().splitlines()
    cells = lines[4].split(",")
    cells[3] = "0.123"
    lines[4] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = diff(capsys, runs / "a", other)
    old = (runs / "a" / "report_tactile.csv").read_text().splitlines()[4].split(",")[3]
    assert (code, out) == (1, [f"report_tactile.csv: step 4: f1: {old} != 0.123"])


def test_a_run_of_fewer_modalities(runs, tmp_path, capsys):
    execute_run(RunConfig(generator=GEN, seed=4, modalities=("visual",), out_dir=str(tmp_path)))
    code, out, _ = diff(capsys, runs / "a", tmp_path)
    assert code == 1
    assert out[0] == f"trace.jsonl: record {GEN.n_per_modality}: only in {runs / 'a' / 'trace.jsonl'}"
    assert out[1] == 'run_summary.json: config.modalities.1: "auditory" != null'
    assert out[2:4] == [f"report_{m}.csv: only in {runs / 'a'}" for m in ("auditory", "tactile")]


@pytest.mark.parametrize("damage", ["missing", "not-utf8", "bad-json", "deep-json",
                                    "no-outputs"])
def test_missing_or_unreadable_file_is_an_error(runs, tmp_path, capsys, damage):
    other = copy(runs, tmp_path)
    if damage == "missing":
        os.remove(other / "report.md")
    elif damage == "not-utf8":
        (other / "trace.jsonl").write_bytes(b'{"id":0,"x":"\xff"}\n')
    elif damage == "bad-json":
        (other / "run_summary.json").write_text("{")
    elif damage == "deep-json":
        (other / "trace.jsonl").write_text("[" * 100_000 + "]" * 100_000 + "\n")
    else:
        (other / "run_summary.json").write_text("{}")
    code, _, err = diff(capsys, runs / "a", other)
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err


def test_traces_are_read_a_line_at_a_time(runs, tmp_path):
    # two 8 MB traces that differ in their last line only
    from msr.diff import differences

    line = (runs / "a" / "trace.jsonl").read_text().splitlines()[0] + "\n"
    assert line.startswith('{"id":0,')
    for last in (7, 8):
        run = shutil.copytree(runs / "a", tmp_path / f"big{last}")
        with open(run / "trace.jsonl", "w", encoding="utf-8") as fh:
            fh.write(line * 80_000 + line.replace('"id":0,', f'"id":{last},'))
    tracemalloc.start()
    try:
        found = differences(str(tmp_path / "big7"), str(tmp_path / "big8"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == ["trace.jsonl: line 80001: record 7 != record 8"] and peak < 1_000_000
