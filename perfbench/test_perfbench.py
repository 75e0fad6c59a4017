"""Tests of the benchmark itself: the generator, the span recorder and the
agreement between BENCHMARK.json and plan.json.

Run from the root of a checkout with ``PYTHONPATH=src python -m pytest
perfbench``.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

import gen
import run
import spans

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"


def _digests(paths):
    return {role: hashlib.sha256(Path(p).read_bytes()).hexdigest()
            for role, p in paths.items()}


def test_same_seed_gives_identical_corpora(tmp_path):
    a = gen.write_inputs(tmp_path / "a", "ta", 120, 80, seed=7, profile_langs=["en", "ta"],
                         profile_rows=40)
    b = gen.write_inputs(tmp_path / "b", "ta", 120, 80, seed=7, profile_langs=["en", "ta"],
                         profile_rows=40)
    c = gen.write_inputs(tmp_path / "c", "ta", 120, 80, seed=8)
    assert _digests(a) == _digests(b)
    assert _digests(a)["train"] != _digests(c)["train"]


@pytest.mark.parametrize("lang", ["en", "ta", "ml"])
def test_class_shares_match_hopeedi(tmp_path, lang):
    paths = gen.write_inputs(tmp_path, lang, 2000, 10, seed=3)
    labels = Counter(line.rstrip("\n").split("\t")[1]
                     for line in paths["train"].read_text(encoding="utf-8").splitlines())
    target = gen.HOPEEDI_TRAIN_COUNTS[lang]
    for alias, count in zip(gen.LABEL_ALIASES[lang], target):
        assert abs(labels[alias] / 2000 - count / sum(target)) < 1e-3


def test_class_counts_sum_to_rows():
    for lang in gen.HOPEEDI_TRAIN_COUNTS:
        for n in (1, 7, 400, 12000):
            assert sum(gen.class_counts(lang, n)) == n


def test_f1_counting_matches_hopedetect_metrics():
    from hopedetect import metrics

    gold = ["Hope", "NotHope", "NotHope", "NotLanguage", "Hope", "NotHope"]
    pred = ["Hope", "Hope", "NotHope", "NotHope", "NotHope", "NotHope"]
    report = metrics.aggregate(metrics.confusion(gold, pred, run.CLASSES))
    macro, weighted = run.f1_scores(gold, pred)
    assert macro == pytest.approx(report.macro.f1, abs=1e-12)
    assert weighted == pytest.approx(report.weighted.f1, abs=1e-12)


def _originals():
    from hopedetect import learn

    mods = {m: __import__(f"hopedetect.{m}", fromlist=[m])
            for m in {m for m, _ in spans.WRAPPED}}
    attrs = {(m, a): getattr(mods[m], a) for m, a in spans.WRAPPED}
    return attrs, dict(learn._TRAINERS)


def _run_fixture(out_dir):
    from hopedetect import cli

    code = cli.main(["run", "--lang", "en", "--k", "3", "--epochs", "20",
                     "--out", str(out_dir), str(FIXTURES / "en_train.tsv"),
                     str(FIXTURES / "en_test.tsv")])
    assert code == 0
    return (out_dir / "predictions.txt").read_bytes()


def test_recorder_keeps_predictions_and_restores_originals(tmp_path):
    before = _originals()
    plain = _run_fixture(tmp_path / "plain")
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert _originals() != before
        traced = _run_fixture(tmp_path / "traced")
    finally:
        recorder.restore()
    assert traced == plain
    assert _originals() == before

    layer = spans.layer_metrics(json.loads(json.dumps(recorder.trace())))
    assert layer["corpus.rows"] == 52 + 25
    assert layer["learn.train_s"] > 0
    # Every test row that passes the gate is voted on exactly once.
    gated = recorder.trace()["counters"]["test_gated"]
    votes = sum(s[0] == "learn.ensemble_predict" for s in recorder.spans)
    assert votes == len(gated) - sum(gated)


def test_self_time_excludes_children():
    trace = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0], ["inner", 5.0, 6.0, 0],
             ["leaf", 2.0, 3.0, 1]]
    assert spans.self_times(trace) == [6.0, 2.0, 1.0, 1.0]


def test_benchmark_json_agrees_with_plan():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    plan = run.load_plan()
    assert [w["name"] for w in bench["workloads"]] == list(plan["workloads"])
    for section in ("end_to_end", "per_layer"):
        assert {m["name"]: (m["unit"], m["better"]) for m in bench[section]} == {
            name: (m["unit"], m["better"]) for name, m in plan[section].items()}
