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
class Scores:
    """The scores of one class, with its gold support, or of an average over
    the classes, which has no support."""

    precision: float
    recall: float
    f1: float
    support: int | None = None


@dataclass(frozen=True)
class EvalReport:
    per_class: dict[str, Scores]
    macro: Scores
    weighted: Scores


def confusion(gold, pred, classes) -> ConfusionMatrix:
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


def class_prf(cm: ConfusionMatrix, label) -> Scores:
    i = cm.classes.index(label)
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
    return Scores(precision, recall, f1, support=tp + fn)


def _average(scores: list[Scores], weights: list[int]) -> Scores:
    """Each score's mean over the classes with the given weights, all zeros
    when the weights add up to 0. The terms are added one after another from
    0.0: the builtin ``sum`` compensates its rounding from Python 3.12 on,
    which would make a report depend on the interpreter."""
    total = sum(weights)
    if not total:
        return Scores(0.0, 0.0, 0.0)
    sums = [0.0, 0.0, 0.0]
    for s, w in zip(scores, weights):
        sums = [acc + v * w for acc, v in zip(sums, (s.precision, s.recall, s.f1))]
    return Scores(*(acc / total for acc in sums))


def aggregate(cm: ConfusionMatrix) -> EvalReport:
    per_class = {c: class_prf(cm, c) for c in cm.classes}
    scores = list(per_class.values())
    return EvalReport(per_class=per_class,
                      macro=_average(scores, [1] * len(scores)),
                      weighted=_average(scores, [s.support for s in scores]))


def render_report(report: EvalReport, format: str = "text") -> str:
    """Deterministic serialization, metrics rounded to 3 decimals. Every
    format is written from one row list: the classes in order, then the
    macro and weighted averages."""
    rows = [*report.per_class.items(), ("macro", report.macro),
            ("weighted", report.weighted)]
    n = len(report.per_class)
    if format == "text":
        lines = [f"{'class':<14} {'precision':>9} {'recall':>9} {'f1':>9} {'support':>9}"]
        for name, s in rows:
            cells = [f"{v:.3f}" for v in (s.precision, s.recall, s.f1)]
            if s.support is not None:
                cells.append(s.support)
            lines.append(" ".join([f"{name:<14}", *(f"{c:>9}" for c in cells)]))
        return "\n".join(lines) + "\n"
    if format == "tsv":
        header, values = [], []
        for short, field in (("p", "precision"), ("r", "recall"), ("f1", "f1")):
            for name, s in rows[n:]:
                header.append(f"{name}_{short}")
                values.append(f"{getattr(s, field):.3f}")
        return "\t".join(header) + "\n" + "\t".join(values) + "\n"
    if format == "json":
        # round leaves a class's int support as it is.
        entries = [(name, {k: round(v, 3) for k, v in vars(s).items() if v is not None})
                   for name, s in rows]
        payload = {"per_class": dict(entries[:n]), **dict(entries[n:])}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown report format {format!r}")
