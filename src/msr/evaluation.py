"""Per-step confusion tallies, the five derived metrics, and report rendering.

Each of the seven pipeline steps accumulates TP/TN/FP/FN per modality. A
metric whose denominator is zero is reported as undefined (None / "n/a"),
never coerced to 0. Reports come out as one CSV per modality plus a combined
Markdown document, values rounded to 3 decimals.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .errors import EmptyInputError, IncompleteRunError, ParseError
from .ingest import MODALITY_ORDER
from .rounding import round_half_away

N_STEPS = 7
CSV_HEADER = "step,precision,recall,f1,specificity,accuracy"
_COLUMNS = ("Precision", "Recall", "F1-score", "Specificity", "Accuracy")


@dataclass
class StepConfusion:
    step: int
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @classmethod
    def tally(cls, step: int, predicted, actual) -> "StepConfusion":
        """`record_outcome` over each pair of two boolean columns."""
        p, a = np.asarray(predicted, dtype=bool), np.asarray(actual, dtype=bool)
        return cls(step, tp=int(np.sum(p & a)), tn=int(np.sum(~p & ~a)),
                   fp=int(np.sum(p & ~a)), fn=int(np.sum(~p & a)))


def record_outcome(conf: StepConfusion, predicted: bool, actual: bool) -> None:
    """Increment exactly one confusion cell."""
    if predicted and actual:
        conf.tp += 1
    elif predicted and not actual:
        conf.fp += 1
    elif not predicted and actual:
        conf.fn += 1
    else:
        conf.tn += 1


@dataclass(frozen=True)
class Metrics:
    """The five step metrics; None marks an undefined (0/0) value. Field
    names and order are the CSV columns."""

    precision: float | None
    recall: float | None
    f1: float | None
    specificity: float | None
    accuracy: float | None


def _ratio(num: int, den: int) -> float | None:
    return num / den if den > 0 else None


def metrics(conf: StepConfusion) -> Metrics:
    """precision, recall, F1, specificity, accuracy from one confusion tally."""
    if conf.total < 1:
        raise EmptyInputError(f"step {conf.step}: no scored records")
    precision = _ratio(conf.tp, conf.tp + conf.fp)
    recall = _ratio(conf.tp, conf.tp + conf.fn)
    specificity = _ratio(conf.tn, conf.tn + conf.fp)
    accuracy = (conf.tp + conf.tn) / conf.total
    if precision is None or recall is None or precision + recall == 0.0:
        f1 = None
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return Metrics(precision, recall, f1, specificity, accuracy)


def _cell(value: float | None) -> str:
    if value is None:
        return "n/a"
    return f"{round_half_away(value, 3):.3f}"


@dataclass(frozen=True)
class Report:
    """Rendered metric tables: one CSV string per modality plus combined Markdown."""

    csv: dict
    markdown: str


def report(confusions_by_modality: dict) -> Report:
    """Render metric tables for every modality present, Step 1..7 each."""
    values = {}
    for modality in MODALITY_ORDER:
        if modality not in confusions_by_modality:
            continue
        steps = confusions_by_modality[modality]
        for step in range(1, N_STEPS + 1):
            if step not in steps:
                raise IncompleteRunError(f"missing step {step}")
        values[modality] = {step: asdict(metrics(steps[step])) for step in range(1, N_STEPS + 1)}
    markdown = markdown_from_values(values)
    csv_out = {}
    for modality, rows in values.items():
        lines = [CSV_HEADER]
        lines += [",".join([str(step)] + [_cell(v) for v in row.values()])
                  for step, row in rows.items()]
        csv_out[modality] = "\n".join(lines) + "\n"
    return Report(csv=csv_out, markdown=markdown)


def markdown_from_values(values_by_modality: dict, band: float | None = None) -> str:
    """Combined Markdown tables from already-computed metric values.

    `values_by_modality` maps modality -> {step -> {column: value-or-None}}
    with columns named as in CSV_HEADER. Cells below `band` are flagged.
    """
    md = ["# Performance metrics", ""]
    names = CSV_HEADER.split(",")[1:]
    flagged = 0
    for modality in MODALITY_ORDER:
        if modality not in values_by_modality:
            continue
        steps = values_by_modality[modality]
        missing = [s for s in range(1, N_STEPS + 1) if s not in steps]
        if missing:
            raise IncompleteRunError(f"{modality}: missing step(s) {missing}")
        md.append(f"## {modality.capitalize()} performance metrics")
        md.append("")
        md.append("| Step | " + " | ".join(_COLUMNS) + " |")
        md.append("|" + "---|" * (len(_COLUMNS) + 1))
        for step in range(1, N_STEPS + 1):
            cells = []
            for name in names:
                value = steps[step].get(name)
                text = _cell(value)
                if band is not None and value is not None and value < band:
                    text = f"**{text}** [below {band}]"
                    flagged += 1
                cells.append(text)
            md.append(f"| Step {step} | " + " | ".join(cells) + " |")
        md.append("")
    if len(md) == 2:
        raise EmptyInputError("no modalities to report")
    if band is not None:
        md.append(f"Cells below {band}: {flagged}")
        md.append("")
    return "\n".join(md)


def parse_report_csv(text: str) -> dict:
    """Parse a report CSV back into {step: {column: value-or-None}}.

    Raises ParseError with the 1-based line number on malformed input.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        raise ParseError("line 1: expected header " + CSV_HEADER)
    out = {}
    names = CSV_HEADER.split(",")[1:]
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(names) + 1:
            raise ParseError(f"line {lineno}: expected {len(names) + 1} fields, got {len(parts)}")
        try:
            step = int(parts[0])
        except ValueError:
            raise ParseError(f"line {lineno}: bad step id {parts[0]!r}") from None
        row = {}
        for name, cell in zip(names, parts[1:]):
            if cell == "n/a":
                row[name] = None
                continue
            try:
                row[name] = float(cell)
            except ValueError:
                raise ParseError(f"line {lineno}: bad value {cell!r} for {name}") from None
        if step in out:
            raise ParseError(f"line {lineno}: duplicate step {step}")
        out[step] = row
    return out
