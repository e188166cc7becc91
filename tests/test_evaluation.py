import pytest
from hypothesis import given, strategies as st

from msr.errors import EmptyInputError, IncompleteRunError, ParseError
from msr.evaluation import (
    CSV_HEADER,
    StepConfusion,
    markdown_from_values,
    metrics,
    parse_report_csv,
    record_outcome,
    report,
)


class TestRecordOutcome:
    @pytest.mark.parametrize("predicted,actual,cell", [
        (True, True, "tp"),
        (True, False, "fp"),
        (False, True, "fn"),
        (False, False, "tn"),
    ])
    def test_each_cell(self, predicted, actual, cell):
        conf = StepConfusion(1)
        record_outcome(conf, predicted, actual)
        assert getattr(conf, cell) == 1
        assert conf.total == 1

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=200))
    def test_total_conserved(self, pairs):
        conf = StepConfusion(2)
        tally = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
        for predicted, actual in pairs:
            record_outcome(conf, predicted, actual)
            # independent counting oracle
            if predicted and actual:
                tally["tp"] += 1
            elif predicted:
                tally["fp"] += 1
            elif actual:
                tally["fn"] += 1
            else:
                tally["tn"] += 1
        assert conf.total == len(pairs)
        assert (conf.tp, conf.tn, conf.fp, conf.fn) == (
            tally["tp"], tally["tn"], tally["fp"], tally["fn"])

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=200))
    def test_tally_of_columns_equals_record_outcome(self, pairs):
        conf = StepConfusion(4)
        for predicted, actual in pairs:
            record_outcome(conf, predicted, actual)
        columns = [p for p, _ in pairs], [a for _, a in pairs]
        assert StepConfusion.tally(4, *columns) == conf


class TestMetrics:
    def test_balanced_ninety(self):
        m = metrics(StepConfusion(1, tp=90, fp=10, fn=10, tn=90))
        assert m.precision == pytest.approx(0.9, abs=0.0)
        assert m.recall == pytest.approx(0.9, abs=0.0)
        assert m.f1 == pytest.approx(0.9, abs=1e-15)
        assert m.specificity == pytest.approx(0.9, abs=0.0)
        assert m.accuracy == pytest.approx(0.9, abs=0.0)

    def test_perfect_classifier(self):
        m = metrics(StepConfusion(1, tp=5, tn=7))
        assert (m.precision, m.recall, m.f1, m.specificity, m.accuracy) == (
            1.0, 1.0, 1.0, 1.0, 1.0)

    def test_undefined_precision_not_zero(self):
        m = metrics(StepConfusion(1, fn=4, tn=3))
        assert m.precision is None
        assert m.recall == 0.0
        assert m.f1 is None

    def test_undefined_specificity(self):
        m = metrics(StepConfusion(1, tp=3, fn=1))
        assert m.specificity is None

    def test_empty_confusion_rejected(self):
        with pytest.raises(EmptyInputError):
            metrics(StepConfusion(1))

    @given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500),
           st.integers(0, 500))
    def test_identities(self, tp, tn, fp, fn):
        if tp + tn + fp + fn == 0:
            return
        m = metrics(StepConfusion(3, tp=tp, tn=tn, fp=fp, fn=fn))
        # exact rational identity on integer cells
        assert m.accuracy == (tp + tn) / (tp + tn + fp + fn)
        if m.precision is not None and m.recall is not None and m.f1 is not None:
            assert abs(m.f1 * (m.precision + m.recall) - 2 * m.precision * m.recall) <= 1e-12


def _full_confusions(stagger=0):
    return {
        step: StepConfusion(step, tp=90 + stagger, fp=10, fn=10, tn=90)
        for step in range(1, 8)
    }


class TestReport:
    def test_full_run_three_tables(self):
        rep = report({m: _full_confusions() for m in ("visual", "auditory", "tactile")})
        assert set(rep.csv) == {"visual", "auditory", "tactile"}
        for text in rep.csv.values():
            lines = text.strip().splitlines()
            assert lines[0] == CSV_HEADER
            assert len(lines) == 8
        assert rep.markdown.count("performance metrics") == 3
        assert rep.markdown.count("| Step ") == 3 * 8  # header + 7 rows per table

    def test_three_decimal_rounding(self):
        conf = {s: StepConfusion(s, tp=93245, fp=6755, fn=6755, tn=93245)
                for s in range(1, 8)}
        rep = report({"visual": conf})
        assert "0.932" in rep.csv["visual"].splitlines()[1]

    def test_missing_step_rejected(self):
        confs = _full_confusions()
        del confs[4]
        with pytest.raises(IncompleteRunError, match="step 4"):
            report({"visual": confs})

    def test_undefined_rendered_na(self):
        confs = _full_confusions()
        confs[2] = StepConfusion(2, fn=5, tn=5)  # precision and f1 undefined
        rep = report({"visual": confs})
        row = rep.csv["visual"].splitlines()[2]
        assert row.startswith("2,n/a,0.000,n/a,")

    def test_single_modality(self):
        rep = report({"tactile": _full_confusions()})
        assert list(rep.csv) == ["tactile"]


class TestCsvRoundTrip:
    def test_parse_back(self):
        rep = report({"visual": _full_confusions()})
        parsed = parse_report_csv(rep.csv["visual"])
        assert set(parsed) == set(range(1, 8))
        assert parsed[1]["precision"] == pytest.approx(0.9)

    def test_parse_na(self):
        confs = _full_confusions()
        confs[3] = StepConfusion(3, fn=5, tn=5)
        parsed = parse_report_csv(report({"visual": confs}).csv["visual"])
        assert parsed[3]["precision"] is None

    def test_corrupt_line_number(self):
        rep = report({"visual": _full_confusions()})
        lines = rep.csv["visual"].splitlines()
        lines[3] = "3,0.9,broken,0.9,0.9,0.9"
        with pytest.raises(ParseError, match="line 4"):
            parse_report_csv("\n".join(lines))

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_report_csv("nope\n1,2,3,4,5,6")


class TestMarkdownFromValues:
    def _values(self):
        row = {"precision": 0.9, "recall": 0.9, "f1": 0.9,
               "specificity": 0.84, "accuracy": 0.9}
        return {"visual": {s: dict(row) for s in range(1, 8)}}

    def test_band_flagging(self):
        md = markdown_from_values(self._values(), band=0.85)
        assert "[below 0.85]" in md
        assert "Cells below 0.85: 7" in md

    def test_missing_step_rejected(self):
        values = self._values()
        del values["visual"][5]
        with pytest.raises(IncompleteRunError):
            markdown_from_values(values)
