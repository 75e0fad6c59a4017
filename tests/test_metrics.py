import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopedetect import metrics
from hopedetect.errors import HopedetectError


# ---------------------------------------------------------------------------
# Brute-force oracle, written directly from the metric definitions.


def oracle_report(gold, pred, classes):
    out = {}
    for c in classes:
        tp = sum(1 for g, p in zip(gold, pred) if g == c and p == c)
        fp = sum(1 for g, p in zip(gold, pred) if g != c and p == c)
        fn = sum(1 for g, p in zip(gold, pred) if g == c and p != c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        out[c] = (prec, rec, f1, tp + fn)
    macro = tuple(sum(out[c][i] for c in classes) / len(classes) for i in range(3))
    total = sum(out[c][3] for c in classes)
    if total:
        weighted = tuple(
            sum(out[c][i] * out[c][3] for c in classes) / total for i in range(3)
        )
    else:
        weighted = (0.0, 0.0, 0.0)
    return out, macro, weighted


def _random_case(rng, max_classes=5, max_count=100):
    k = rng.randint(2, max_classes)
    classes = [f"c{i}" for i in range(k)]
    n = rng.randint(1, max_count)
    gold = [rng.choice(classes) for _ in range(n)]
    pred = [rng.choice(classes) for _ in range(n)]
    return gold, pred, classes


class TestConfusion:
    def test_identity_diagonal(self):
        cm = metrics.confusion(["A", "B"], ["A", "B"], ["A", "B"])
        assert cm.counts == [[1, 0], [0, 1]]

    def test_off_diagonal(self):
        cm = metrics.confusion(["A"], ["B"], ["A", "B"])
        assert cm.counts == [[0, 1], [0, 0]]

    def test_conservation(self):
        rng = random.Random(0)
        gold, pred, classes = _random_case(rng, max_count=1000)
        cm = metrics.confusion(gold, pred, classes)
        assert cm.total() == len(gold)

    def test_length_mismatch(self):
        with pytest.raises(HopedetectError, match="1 gold vs 2 predicted labels"):
            metrics.confusion(["A"], ["A", "B"], ["A", "B"])

    def test_unknown_label(self):
        with pytest.raises(HopedetectError, match="unknown label 'X'"):
            metrics.confusion(["A"], ["X"], ["A", "B"])


class TestClassPrf:
    def test_perfect(self):
        cm = metrics.confusion(["A"] * 5, ["A"] * 5, ["A", "B"])
        m = metrics.class_prf(cm, "A")
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_zero_division_convention(self):
        cm = metrics.ConfusionMatrix(classes=["A", "B"], counts=[[0, 5], [0, 0]])
        m = metrics.class_prf(cm, "A")
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
        assert m.support == 5

    def test_hand_computed(self):
        # TP=3, FP=1, FN=2 -> P=0.75, R=0.6, F1=0.666...
        cm = metrics.ConfusionMatrix(classes=["A", "B"], counts=[[3, 2], [1, 0]])
        m = metrics.class_prf(cm, "A")
        assert m.precision == pytest.approx(0.75)
        assert m.recall == pytest.approx(0.6)
        assert m.f1 == pytest.approx(2 * 0.45 / 1.35)


class TestAggregate:
    def test_equal_f1s_weighted(self):
        # Both classes end up with F1 0.5; supports differ, weighted stays 0.5.
        cm = metrics.ConfusionMatrix(
            classes=["A", "B"], counts=[[10, 0], [20, 10]]
        )
        report = metrics.aggregate(cm)
        f1s = [report.per_class[c].f1 for c in ("A", "B")]
        assert f1s[0] == pytest.approx(f1s[1]) == pytest.approx(0.5)
        assert report.weighted.f1 == pytest.approx(0.5)

    def test_majority_baseline_dev_distribution(self):
        # Supports 242/2569/2 with all-NotHope predictions -> weighted F1 .872
        gold = ["Hope"] * 242 + ["NotHope"] * 2569 + ["NotLanguage"] * 2
        pred = ["NotHope"] * 2813
        cm = metrics.confusion(gold, pred, ["Hope", "NotHope", "NotLanguage"])
        report = metrics.aggregate(cm)
        f1_nothope = 2 * (2569 / 2813) / (1 + 2569 / 2813)
        expected = f1_nothope * 2569 / 2813
        assert report.weighted.f1 == pytest.approx(expected, abs=1e-12)
        assert abs(report.weighted.f1 - 0.872) < 1e-3

    def test_single_class_perfect(self):
        cm = metrics.confusion(["A"] * 4, ["A"] * 4, ["A"])
        report = metrics.aggregate(cm)
        assert report.macro.f1 == report.weighted.f1 == 1.0

    def test_oracle_equivalence_random(self):
        rng = random.Random(123)
        for _ in range(300):
            gold, pred, classes = _random_case(rng)
            cm = metrics.confusion(gold, pred, classes)
            report = metrics.aggregate(cm)
            per, macro, weighted = oracle_report(gold, pred, classes)
            for c in classes:
                m = report.per_class[c]
                assert abs(m.precision - per[c][0]) < 1e-9
                assert abs(m.recall - per[c][1]) < 1e-9
                assert abs(m.f1 - per[c][2]) < 1e-9
                assert m.support == per[c][3]
            assert abs(report.macro.f1 - macro[2]) < 1e-9
            assert abs(report.weighted.f1 - weighted[2]) < 1e-9

    def test_macro_bounds(self):
        rng = random.Random(5)
        for _ in range(50):
            gold, pred, classes = _random_case(rng)
            report = metrics.aggregate(metrics.confusion(gold, pred, classes))
            f1s = [m.f1 for m in report.per_class.values()]
            assert min(f1s) - 1e-12 <= report.macro.f1 <= max(f1s) + 1e-12

    def test_permutation_invariance(self):
        rng = random.Random(9)
        gold, pred, classes = _random_case(rng)
        a = metrics.aggregate(metrics.confusion(gold, pred, classes))
        b = metrics.aggregate(metrics.confusion(gold, pred, classes[::-1]))
        assert a.weighted.f1 == pytest.approx(b.weighted.f1, abs=1e-12)
        assert a.macro.f1 == pytest.approx(b.macro.f1, abs=1e-12)

    def test_equal_support_macro_equals_weighted(self):
        gold = ["A"] * 10 + ["B"] * 10
        rng = random.Random(2)
        pred = [rng.choice(["A", "B"]) for _ in gold]
        report = metrics.aggregate(metrics.confusion(gold, pred, ["A", "B"]))
        assert report.macro.f1 == pytest.approx(report.weighted.f1, abs=1e-12)

    def test_scores_are_added_in_order_from_zero(self, monkeypatch):
        # 0.1 + 0.2 + 0.3 added in order is 0.6000000000000001; a compensated
        # sum (the builtin sum from Python 3.12 on, or math.fsum) gives 0.6.
        values = {"A": 0.1, "B": 0.2, "C": 0.3}
        monkeypatch.setattr(metrics, "class_prf", lambda cm, c: metrics.ClassMetrics(
            precision=values[c], recall=values[c], f1=values[c], support=1))
        cm = metrics.ConfusionMatrix(classes=list(values), counts=[[1, 0, 0]] * 3)
        report = metrics.aggregate(cm)
        in_order = (0.1 + 0.2 + 0.3) / 3
        assert in_order != math.fsum(values.values()) / 3
        assert report.macro == metrics.Aggregate(in_order, in_order, in_order)
        assert report.weighted == report.macro

    def test_zero_support_flag(self):
        # A zero-support class counts in the macro average, not the weighted.
        cm = metrics.confusion(["A", "A"], ["A", "A"], ["A", "B"])
        report = metrics.aggregate(cm)
        assert report.macro.f1 == pytest.approx(0.5)
        assert report.weighted.f1 == pytest.approx(1.0)


class TestRenderReport:
    def _report(self):
        gold = ["A"] * 3 + ["B"] * 7
        pred = ["A", "A", "B", "B", "B", "B", "B", "B", "A", "B"]
        return metrics.aggregate(metrics.confusion(gold, pred, ["A", "B"]))

    def test_three_decimals(self):
        report = self._report()
        text = metrics.render_report(report, "text")
        assert f"{report.weighted.f1:.3f}" in text

    def test_deterministic(self):
        report = self._report()
        for fmt in ("text", "tsv", "json"):
            assert metrics.render_report(report, fmt) == \
                metrics.render_report(report, fmt)

    def test_tsv_columns(self):
        header = metrics.render_report(self._report(), "tsv").splitlines()[0]
        assert header.split("\t") == [
            "macro_p", "weighted_p", "macro_r", "weighted_r",
            "macro_f1", "weighted_f1",
        ]

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            metrics.render_report(self._report(), "yaml")
