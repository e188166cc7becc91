"""`msr diff RUN_A RUN_B`: where two run output directories first differ.

The files compared are run_summary.json and every output it lists, in either
run. For each file that differs, one line names its first difference: in
trace.jsonl the record id and the dotted field (`steps.s6`), in
run_summary.json the dotted key, in a report CSV the step and the column,
in report.md the line. Values are compared as text, so 0.0 and -0.0 or 1
and 1.0 differ, as their bytes do. The traces are read a line at a time, so
outputs of any size compare in little memory.
"""

import itertools
import json
import os

from .errors import ParseError
from .pipeline import REPORT_MD, SUMMARY_FILE, TRACE_FILE


def _json(text: str, where: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # bad JSON, or an integer too long to read
        raise ParseError(f"{where}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{where}: invalid JSON: nesting too deep") from None


def _lines(path: str):
    """The file's lines without their line ends; an error names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from (line.rstrip("\n") for line in fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


def _text(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def first_difference(a, b, key: str = ""):
    """(dotted key, a's value, b's value) of the first place where two JSON
    values differ, walking objects in a's key order and then b's new keys;
    None when they are the same text. A key one side lacks reads as None on
    that side."""
    if isinstance(a, dict) and isinstance(b, dict):
        for name in [*a, *(name for name in b if name not in a)]:
            found = first_difference(a.get(name), b.get(name), f"{key}.{name}" if key else name)
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, pair in enumerate(itertools.zip_longest(a, b)):
            found = first_difference(*pair, f"{key}.{i}" if key else str(i))
            if found:
                return found
        return None
    return None if _text(a) == _text(b) else (key, a, b)


def _values(found) -> str:
    key, a, b = found
    return f"{key or '(value)'}: {_text(a)} != {_text(b)}"


def _trace(path_a: str, path_b: str) -> str | None:
    for number, (a, b) in enumerate(itertools.zip_longest(_lines(path_a), _lines(path_b)), 1):
        if a == b:
            continue
        rows = [None if line is None else _json(line, f"{path} line {number}")
                for line, path in ((a, path_a), (b, path_b))]
        if not all(isinstance(row, dict) and "id" in row for row in rows if row is not None):
            return f"line {number}: not a trace record"
        if None in rows:
            row = rows[0] or rows[1]
            return f"record {row['id']}: only in {path_a if rows[0] else path_b}"
        if rows[0]["id"] != rows[1]["id"]:
            return f"line {number}: record {rows[0]['id']} != record {rows[1]['id']}"
        found = first_difference(*rows)
        return f"record {rows[0]['id']}: " + (_values(found) if found else "same values, other text")
    return None


def _csv(path_a: str, path_b: str) -> str | None:
    header = None
    for number, (a, b) in enumerate(itertools.zip_longest(_lines(path_a), _lines(path_b)), 1):
        header = header or (a or "").split(",")
        if a == b:
            continue
        if number == 1:
            return f"header: {a!r} != {b!r}"
        if a is None or b is None:
            return f"step {(a or b).split(',')[0]}: only in {path_a if b is None else path_b}"
        cells = list(itertools.zip_longest(a.split(","), b.split(",")))
        column = next(i for i, (x, y) in enumerate(cells) if x != y)
        name = header[column] if column < len(header) else f"column {column + 1}"
        return f"step {cells[0][0]}: {name}: {cells[column][0]} != {cells[column][1]}"
    return None


def _text_lines(path_a: str, path_b: str) -> str | None:
    for number, (a, b) in enumerate(itertools.zip_longest(_lines(path_a), _lines(path_b)), 1):
        if a is None or b is None:
            return f"line {number}: only in {path_a if b is None else path_b}"
        if a != b:
            return f"line {number}: {a!r} != {b!r}"
    return None


def _summary(path: str) -> dict:
    summary = _json("\n".join(_lines(path)), path)
    if not (isinstance(summary, dict) and isinstance(summary.get("outputs"), list)
            and all(isinstance(name, str) for name in summary["outputs"])):
        raise ParseError(f"{path}: no list of outputs")
    return summary


def differences(run_a: str, run_b: str) -> list:
    """One line per file that differs between two run directories, naming
    its first difference, the trace's first; empty when no file differs."""
    summaries = [_summary(os.path.join(run, SUMMARY_FILE)) for run in (run_a, run_b)]
    found = first_difference(*summaries)
    first = {SUMMARY_FILE: _values(found) if found else None}
    listed = [set(summary["outputs"]) for summary in summaries]
    for name in listed[0] | listed[1]:
        if (name in listed[0]) != (name in listed[1]):
            first[name] = f"only in {run_a if name in listed[0] else run_b}"
            continue
        compare = _trace if name == TRACE_FILE else _text_lines if name == REPORT_MD else _csv
        first[name] = compare(os.path.join(run_a, name), os.path.join(run_b, name))
    order = sorted(first, key=lambda name: (name != TRACE_FILE, name != SUMMARY_FILE,
                                            name == REPORT_MD, name))
    return [f"{name}: {first[name]}" for name in order if first[name]]
