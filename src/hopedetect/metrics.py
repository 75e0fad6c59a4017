"""Per-class precision/recall/F1 with macro and weighted aggregates.

Conventions: 0/0 ratios are 0; weighted averages use gold supports (row
sums); zero-support classes contribute nothing to weighted metrics and are
included in macro averaging.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import HopedetectError


@dataclass(frozen=True)
class ConfusionMatrix:
    classes: list[str]
    counts: list[list[int]]  # rows = gold, cols = predicted

    def total(self) -> int:
        return sum(sum(row) for row in self.counts)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class Aggregate:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class EvalReport:
    per_class: dict[str, ClassMetrics]
    macro: Aggregate
    weighted: Aggregate


def confusion(gold, pred, classes) -> ConfusionMatrix:
    gold = [str(g) for g in gold]
    pred = [str(p) for p in pred]
    classes = [str(c) for c in classes]
    if len(gold) != len(pred) or not gold:
        raise HopedetectError(f"{len(gold)} gold vs {len(pred)} predicted labels")
    index = {c: i for i, c in enumerate(classes)}
    counts = [[0] * len(classes) for _ in classes]
    for g, p in zip(gold, pred):
        if g not in index:
            raise HopedetectError(f"unknown label {g!r}")
        if p not in index:
            raise HopedetectError(f"unknown label {p!r}")
        counts[index[g]][index[p]] += 1
    return ConfusionMatrix(classes=classes, counts=counts)


def class_prf(cm: ConfusionMatrix, label) -> ClassMetrics:
    i = cm.classes.index(str(label))
    tp = cm.counts[i][i]
    fp = sum(cm.counts[g][i] for g in range(len(cm.classes)) if g != i)
    fn = sum(cm.counts[i][p] for p in range(len(cm.classes)) if p != i)
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return ClassMetrics(precision=precision, recall=recall, f1=f1, support=tp + fn)


def _add(values) -> float:
    """The values added one after another from 0.0. The builtin ``sum``
    compensates its rounding from Python 3.12 on, which would make a report
    depend on the interpreter."""
    total = 0.0
    for v in values:
        total += v
    return total


def aggregate(cm: ConfusionMatrix) -> EvalReport:
    per_class = {c: class_prf(cm, c) for c in cm.classes}
    n = len(per_class)
    macro = Aggregate(
        precision=_add(m.precision for m in per_class.values()) / n if n else 0.0,
        recall=_add(m.recall for m in per_class.values()) / n if n else 0.0,
        f1=_add(m.f1 for m in per_class.values()) / n if n else 0.0,
    )
    total_support = sum(m.support for m in per_class.values())
    if total_support > 0:
        weighted = Aggregate(
            precision=_add(m.precision * m.support for m in per_class.values())
            / total_support,
            recall=_add(m.recall * m.support for m in per_class.values())
            / total_support,
            f1=_add(m.f1 * m.support for m in per_class.values()) / total_support,
        )
    else:
        weighted = Aggregate(0.0, 0.0, 0.0)
    return EvalReport(per_class=per_class, macro=macro, weighted=weighted)


def render_report(report: EvalReport, format: str = "text") -> str:
    """Deterministic serialization, metrics rounded to 3 decimals."""
    r3 = lambda v: f"{v:.3f}"
    if format == "text":
        lines = [f"{'class':<14} {'precision':>9} {'recall':>9} {'f1':>9} {'support':>9}"]
        for c, m in report.per_class.items():
            lines.append(
                f"{c:<14} {r3(m.precision):>9} {r3(m.recall):>9} "
                f"{r3(m.f1):>9} {m.support:>9}"
            )
        lines.append(
            f"{'macro':<14} {r3(report.macro.precision):>9} "
            f"{r3(report.macro.recall):>9} {r3(report.macro.f1):>9}"
        )
        lines.append(
            f"{'weighted':<14} {r3(report.weighted.precision):>9} "
            f"{r3(report.weighted.recall):>9} {r3(report.weighted.f1):>9}"
        )
        return "\n".join(lines) + "\n"
    if format == "tsv":
        header = "macro_p\tweighted_p\tmacro_r\tweighted_r\tmacro_f1\tweighted_f1"
        row = "\t".join(
            r3(v)
            for v in (
                report.macro.precision, report.weighted.precision,
                report.macro.recall, report.weighted.recall,
                report.macro.f1, report.weighted.f1,
            )
        )
        return header + "\n" + row + "\n"
    if format == "json":
        payload = {
            "per_class": {
                c: {
                    "precision": round(m.precision, 3),
                    "recall": round(m.recall, 3),
                    "f1": round(m.f1, 3),
                    "support": m.support,
                }
                for c, m in report.per_class.items()
            },
            "macro": {
                "precision": round(report.macro.precision, 3),
                "recall": round(report.macro.recall, 3),
                "f1": round(report.macro.f1, 3),
            },
            "weighted": {
                "precision": round(report.weighted.precision, 3),
                "recall": round(report.weighted.recall, 3),
                "f1": round(report.weighted.f1, 3),
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown report format {format!r}")
