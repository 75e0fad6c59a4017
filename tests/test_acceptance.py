"""Acceptance gate: one test per release criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -s`` to see the
per-criterion lines.
"""

import itertools
import os
import random
import time
from collections import Counter

import numpy as np
import pytest

from hopedetect import cli, corpus, langid, learn, metrics
from hopedetect.corpus import DatasetLang, Label
from conftest import FIXTURES, FIXTURE_COUNTS, csr_from_dense, synthetic_sentences
from test_metrics import oracle_report, _random_case


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def test_01_metrics_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(20240817)
    worst = 0.0
    for _ in range(1000):
        gold, pred, classes = _random_case(rng, max_classes=5, max_count=100)
        cm = metrics.confusion(gold, pred, classes)
        got = metrics.aggregate(cm)
        per, macro, weighted = oracle_report(gold, pred, classes)
        for c in classes:
            m = got.per_class[c]
            worst = max(
                worst,
                abs(m.precision - per[c][0]),
                abs(m.recall - per[c][1]),
                abs(m.f1 - per[c][2]),
                abs(m.support - per[c][3]),
            )
        worst = max(
            worst,
            abs(got.macro.precision - macro[0]),
            abs(got.macro.recall - macro[1]),
            abs(got.macro.f1 - macro[2]),
            abs(got.weighted.precision - weighted[0]),
            abs(got.weighted.recall - weighted[1]),
            abs(got.weighted.f1 - weighted[2]),
        )
    elapsed = time.monotonic() - start
    _report(
        "1 metrics-oracle", worst < 1e-9 and elapsed < 5.0,
        f"max deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_02_majority_class_baseline():
    gold = ["Hope"] * 242 + ["NotHope"] * 2569 + ["NotLanguage"] * 2
    pred = ["NotHope"] * len(gold)
    cm = metrics.confusion(gold, pred, ["Hope", "NotHope", "NotLanguage"])
    wf1 = metrics.aggregate(cm).weighted.f1
    _report("2 majority-baseline", abs(wf1 - 0.872) <= 0.001, f"weighted F1 {wf1:.4f}")


def test_03_ensemble_vote_exhaustive():
    start = time.monotonic()
    labels = ["Hope", "NotHope", "NotLanguage"]
    ok = True
    for k in range(1, 6):
        for votes in itertools.product(labels, repeat=k):
            counts = Counter(votes)
            top = max(counts.values())
            tied = {v for v, c in counts.items() if c == top}
            got_order = learn.majority_vote(list(votes), "ClassOrder")
            got_prior = learn.majority_vote(list(votes), "MajorityClassPrior")
            ok &= got_order == min(tied, key=labels.index)
            if "NotHope" in tied:
                ok &= got_prior == "NotHope"
            else:
                ok &= got_prior == min(tied, key=labels.index)
    elapsed = time.monotonic() - start
    _report("3 ensemble-vote", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_04_classifier_sanity():
    start = time.monotonic()
    X = np.vstack([[0.0, 1.0]] * 10 + [[1.0, 0.0]] * 10)
    y = ["A"] * 10 + ["B"] * 10
    lr_model = learn.train_logreg(X, y, lr=0.1, epochs=500)
    svm_model = learn.train_linear_svm(X, y, lr=0.01, epochs=500)
    acc = lambda m: sum(p == g for p, g in zip(learn.predict(m, X), y)) / len(y)
    ok = acc(lr_model) == 1.0 and acc(svm_model) == 1.0

    rng = np.random.default_rng(99)
    rel_err = 0.0
    for _ in range(3):
        Xg = rng.normal(size=(5, 8))
        y_idx = rng.integers(0, 3, size=5)
        W = rng.normal(size=(3, 8)) * 0.5
        b = rng.normal(size=3) * 0.5

        def num(f, params, eps=1e-6):
            g = np.zeros_like(params)
            for i in range(params.size):
                u, d = params.copy(), params.copy()
                u.flat[i] += eps
                d.flat[i] -= eps
                g.flat[i] = (f(u) - f(d)) / (2 * eps)
            return g

        signs = np.where(np.arange(3)[:, None] == y_idx[None, :], 1.0, -1.0)
        for Xg in (Xg, csr_from_dense(Xg)):
            gW, gb = learn.logreg_gradient(W, b, Xg, y_idx, 1e-3)
            nW = num(lambda p: learn.logreg_objective(p, b, Xg, y_idx, 1e-3), W)
            rel_err = max(rel_err, np.abs(gW - nW).max() / np.abs(nW).max())

            if np.abs(signs.T * (Xg @ W.T + b) - 1.0).min() > 1e-4:
                sW, _ = learn.svm_gradient(W, b, Xg, signs, 1.0)
                snW = num(lambda p: learn.svm_objective(p, b, Xg, signs, 1.0), W)
                rel_err = max(rel_err, np.abs(sW - snW).max() / np.abs(snW).max())
    elapsed = time.monotonic() - start
    _report(
        "4 classifier-sanity", ok and rel_err <= 1e-4 and elapsed < 10.0,
        f"grad rel err {rel_err:.2e}, {elapsed:.2f}s",
    )


def test_05_language_id(trained_profiles):
    start = time.monotonic()
    langs = ("en", "hi", "ta", "ml")
    texts = [sent for lang in langs
             for sent in synthetic_sentences(lang, 200, seed=11, holdout=True)]
    gold = [lang for lang in langs for _ in range(200)]
    got = langid.detect(texts, trained_profiles)
    accuracy = sum(map(str.__eq__, got, gold)) / len(gold)

    heuristic_ok = True
    for code in ("en", "hi", "ta", "ml", "fr", "xx", None):
        for dataset in DatasetLang:
            got = langid.assign_language_class(code, dataset)
            if dataset is DatasetLang.ENGLISH:
                expected = None if code in ("en", None) else Label.NOT_LANGUAGE
            else:
                expected = Label.NOT_LANGUAGE if code in ("en", "hi") else None
            heuristic_ok &= got is expected
    elapsed = time.monotonic() - start
    _report(
        "5 language-id", accuracy >= 0.95 and heuristic_ok and elapsed < 30.0,
        f"accuracy {accuracy:.3f}, {elapsed:.2f}s",
    )


def test_06_transliteration_properties():
    from hopedetect import translit

    start = time.monotonic()
    table = translit.scheme_table(DatasetLang.TAMIL)
    max_key_len = max(map(len, table.entries))
    rng = random.Random(55)
    pools = ["abcdefghijklmnopqrstuvwxyz",
             "கஙசஞடணதநபமயரலவழளறன்ாிீுூஅஆஇ",
             " 0123456789"]
    ok = True
    for _ in range(10_000):
        s = "".join(rng.choice(rng.choice(pools))
                    for _ in range(rng.randint(0, 30)))
        once = translit.transliterate(s, table)
        ok &= translit.transliterate(once, table) == once
        native_in = [c for c in s if translit.script_of(c) == "Tamil"]
        it = iter(c for c in once if translit.script_of(c) == "Tamil")
        ok &= all(c in it for c in native_in)

    # greedy longest-match by replay over a separate sample
    for _ in range(500):
        s = "".join(rng.choice("kgcjtdnpbmyrlvzsha iue") for _ in range(25))
        i = 0
        while i < len(s) and ok:
            if translit.script_of(s[i]) != "Latin":
                i += 1
                continue
            matched = 0
            for length in range(max_key_len, 0, -1):
                if s[i : i + length] in table.entries:
                    matched = length
                    break
            if matched == 0:
                i += 1
                continue
            for longer in range(matched + 1, max_key_len + 1):
                ok &= s[i : i + longer] not in table.entries
            i += matched
    elapsed = time.monotonic() - start
    _report("6 transliteration", ok and elapsed < 10.0, f"{elapsed:.2f}s")


def test_07_loader_fidelity():
    ok = True
    for name, (hope, nothope, notlang) in FIXTURE_COUNTS.items():
        stats = corpus.compute_stats(corpus.load_tsv(FIXTURES / name))
        ok &= stats.counts[Label.HOPE] == hope
        ok &= stats.counts[Label.NOT_HOPE] == nothope
        ok &= stats.counts[Label.NOT_LANGUAGE] == notlang

    detail = "fixtures"
    hopeedi_dir = os.environ.get("HOPEEDI_DIR")
    if hopeedi_dir:
        # Optional check against the real HopeEDI files: published totals
        # are English 28451, Tamil 20198, Malayalam 10705; the English
        # training split is 1962/20778/22.
        en_total = 0
        for split in ("train", "dev", "test"):
            path = os.path.join(hopeedi_dir, f"english_hope_{split}.csv")
            if os.path.exists(path):
                labeled = split != "test"
                en_total += len(
                    corpus.load_tsv(path, labeled=labeled)
                )
        ok &= en_total == 28451
        detail = f"fixtures + HopeEDI (english total {en_total})"
    _report("7 loader-fidelity", ok, detail)


def test_08_end_to_end_determinism(tmp_path):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main([
            "run", "--lang", "en", "--k", "3", "--seed", "13",
            "--epochs", "60", "--out", str(out),
            str(FIXTURES / "en_train.tsv"), str(FIXTURES / "en_test.tsv"),
        ])
        assert code == 0
        outputs.append(
            ((out / "predictions.txt").read_bytes(),
             (out / "manifest.txt").read_bytes())
        )
    ok = outputs[0] == outputs[1]
    _report("8 end-to-end-determinism", ok)


def test_09_external_prediction_ensembling(tmp_path):
    rng = random.Random(77)
    aliases = {"Hope": "Hope_speech", "NotHope": "Non_hope_speech",
               "NotLanguage": "not-English"}
    labels = list(aliases)
    planted = [rng.choice(labels) for _ in range(100)]
    columns = []
    for i in range(100):
        majority = [planted[i]] * 6
        others = [rng.choice([l for l in labels if l != planted[i]])
                  for _ in range(5)]
        votes = majority + others
        rng.shuffle(votes)
        columns.append(votes)
    paths = []
    for m in range(11):
        path = tmp_path / f"model{m}.txt"
        path.write_text(
            "".join(aliases[columns[i][m]] + "\n" for i in range(100)),
            encoding="utf-8",
        )
        paths.append(path)
    matrix = learn.load_external_predictions(paths, 100)
    merged = [
        learn.majority_vote([row[i] for row in matrix]) for i in range(100)
    ]
    ok = merged == planted
    _report("9 external-ensembling", ok)
