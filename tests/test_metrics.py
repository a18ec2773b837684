"""Span extraction and micro-averaged P/R/F1."""

import pytest

from mmner.autodiff import ContractError
from mmner.metrics import EntitySpan, evaluate, extract_spans


class TestExtractSpans:
    def test_two_token_entity(self):
        assert extract_spans(["B-PER", "I-PER"]) == [EntitySpan(0, 1, "PER")]

    def test_all_outside(self):
        assert extract_spans(["O", "O", "O"]) == []

    def test_adjacent_b_tags_open_separate_spans(self):
        assert extract_spans(["B-LOC", "B-LOC"]) == [
            EntitySpan(0, 0, "LOC"),
            EntitySpan(1, 1, "LOC"),
        ]

    def test_dangling_inside_opens_span(self):
        # lenient conlleval-style behavior
        assert extract_spans(["O", "I-ORG", "I-ORG", "O"]) == [EntitySpan(1, 2, "ORG")]

    def test_type_change_splits(self):
        assert extract_spans(["B-PER", "I-LOC"]) == [
            EntitySpan(0, 0, "PER"),
            EntitySpan(1, 1, "LOC"),
        ]

    def test_span_at_sequence_end(self):
        assert extract_spans(["O", "B-MISC", "I-MISC"]) == [EntitySpan(1, 2, "MISC")]

    def test_unknown_tag_raises(self):
        with pytest.raises(ContractError):
            extract_spans(["B-PER", "X-PER"])


class TestEvaluate:
    def test_perfect_prediction(self):
        gold = [["B-PER", "I-PER", "O"], ["O", "B-LOC", "O"]]
        report = evaluate(gold, gold)
        assert report.overall.precision == 1.0
        assert report.overall.recall == 1.0
        assert report.overall.f1 == 1.0
        assert report.token_accuracy == 1.0

    def test_hand_scored_counts(self):
        # TP=3, FP=1, FN=2 -> P=0.75, R=0.6, F1=2*0.75*0.6/1.35
        gold = [
            ["B-PER", "O", "B-LOC", "O", "B-ORG"],
            ["B-MISC", "I-MISC", "O", "B-PER", "O"],
        ]
        pred = [
            ["B-PER", "O", "B-LOC", "O", "O"],       # 2 TP, misses ORG (FN)
            ["B-MISC", "I-MISC", "O", "O", "B-PER"],  # 1 TP, 1 FP, misses PER (FN)
        ]
        report = evaluate(gold, pred)
        assert (report.overall.tp, report.overall.fp, report.overall.fn) == (3, 1, 2)
        assert report.overall.precision == pytest.approx(0.75, abs=1e-12)
        assert report.overall.recall == pytest.approx(0.6, abs=1e-12)
        assert report.overall.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35, abs=1e-12)

    def test_no_predictions_zero_convention(self):
        gold = [["B-PER", "O"]]
        pred = [["O", "O"]]
        report = evaluate(gold, pred)
        assert report.overall.precision == 0.0
        assert report.overall.recall == 0.0
        assert report.overall.f1 == 0.0
        assert "precision" in report.overall.undefined
        assert "f1" in report.overall.undefined

    def test_f1_between_min_and_max_of_p_r(self):
        gold = [["B-PER", "O", "B-LOC", "B-ORG", "O"]]
        pred = [["B-PER", "B-PER", "B-LOC", "O", "O"]]
        report = evaluate(gold, pred)
        s = report.overall
        assert not s.undefined
        assert min(s.precision, s.recall) <= s.f1 <= max(s.precision, s.recall)

    def test_predicted_type_outside_the_schema_is_refused(self):
        with pytest.raises(ContractError) as exc:
            evaluate([["B-PER", "O"]], [["B-PER", "B-FOO"]])
        assert str(exc.value) == "span type 'FOO' not in schema ('PER', 'LOC', 'ORG', 'MISC')"

    def test_overall_counts_are_sums_of_types(self):
        gold = [["B-PER", "O", "B-LOC"], ["B-MISC", "O", "B-ORG"]]
        pred = [["B-PER", "B-PER", "O"], ["O", "B-MISC", "B-ORG"]]
        report = evaluate(gold, pred)
        assert report.overall.tp == sum(s.tp for s in report.per_type.values())
        assert report.overall.fp == sum(s.fp for s in report.per_type.values())
        assert report.overall.fn == sum(s.fn for s in report.per_type.values())

    def test_micro_average_differs_from_macro(self):
        # PER: 1 TP; LOC: 1 FP + 1 FN -> per-type F1s are 1.0 and 0.0,
        # micro F1 uses summed counts instead.
        gold = [["B-PER", "O", "B-LOC"]]
        pred = [["B-PER", "B-LOC", "O"]]
        report = evaluate(gold, pred)
        assert report.per_type["PER"].f1 == 1.0
        assert report.per_type["LOC"].f1 == 0.0
        p = 1 / 2
        r = 1 / 2
        assert report.overall.f1 == pytest.approx(2 * p * r / (p + r), abs=1e-12)

    def test_length_mismatch_raises(self):
        with pytest.raises(ContractError):
            evaluate([["O", "O"]], [["O"]])
        with pytest.raises(ContractError):
            evaluate([["O"], ["O"]], [["O"]])

    def test_report_formats(self):
        gold = [["B-PER", "O"]]
        report = evaluate(gold, gold)
        table = report.format_table()
        assert "Overall" in table and "PER" in table
        kv = report.kv_lines()
        assert "overall.f1=1.000000" in kv
        assert "token_accuracy=1.000000" in kv
