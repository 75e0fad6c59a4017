"""Outside-in span recorder for one traced ``hopedetect run``.

The recorder replaces public functions of the hopedetect modules with
wrappers that time each call. Nothing under ``src/`` knows about it: the
spans sit at the boundaries where one module calls another. Each span keeps
its name, start, end and the span that was open when it began, so self time
can be computed later (``ensemble_predict`` nests ``predict``, ``detect``
nests ``script_fraction``, everything nests in ``run_pipeline``).

Run as a script it is the traced child process::

    python3 perfbench/spans.py TRACE.json run --lang en ... TRAIN TEST

which runs the CLI with the recorder installed and writes the spans and
counters to TRACE.json when the run ends.
"""

from __future__ import annotations

import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

# (module, attribute) pairs wrapped for the traced run.
WRAPPED = (
    ("corpus", "load_tsv"),
    ("textprep", "normalize_text"),
    ("langid", "detect"),
    ("langid", "script_fraction"),
    ("translit", "transliterate"),
    ("features", "build_vocab"),
    ("features", "tfidf_vectorize"),
    ("learn", "predict"),
    ("learn", "ensemble_predict"),
    ("metrics", "confusion"),
    ("metrics", "aggregate"),
    ("metrics", "render_report"),
    ("pipeline", "preprocess_rows"),
    ("pipeline", "run_pipeline"),
)

_LATIN = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


class Recorder:
    """Spans and counters of one run; ``install`` and ``restore`` bracket it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._saved: list[tuple[dict, str, object]] = []
        self.rows_loaded = 0
        self.preprocessed: list = []      # result of each preprocess_rows call
        self.translit_io: list[tuple[str, str]] = []
        self.vocab = None
        self.predicted: dict[int, str] = {}  # predict span index -> label
        self.train_rss_kb = 0

    def install(self):
        from hopedetect import learn

        observers = {
            "corpus.load_tsv": self._loaded,
            "pipeline.preprocess_rows": self._preprocessed,
            "translit.transliterate": self._transliterated,
            "features.build_vocab": self._vocab_built,
            "learn.predict": self._predicted,
        }
        for module, attr in WRAPPED:
            name = f"{module}.{attr}"
            # A module's namespace is a dict, like the trainer table below.
            namespace = vars(importlib.import_module(f"hopedetect.{module}"))
            self._replace(namespace, attr, name, observers.get(name))
        # train_ensemble looks its trainer up in this table, not by attribute.
        for kind in list(learn._TRAINERS):
            self._replace(learn._TRAINERS, kind, f"learn.train.{kind}", self._trained)

    def restore(self):
        for namespace, key, original in reversed(self._saved):
            namespace[key] = original
        self._saved.clear()

    def _replace(self, namespace: dict, key: str, name: str, observe):
        original = namespace[key]
        self._saved.append((namespace, key, original))
        namespace[key] = self._wrap(name, original, observe)

    def _wrap(self, name, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1:3] = start, end
            if observe is not None:
                observe(index, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # Observers keep what the counters need; counting happens after the run.

    def _loaded(self, index, args, result):
        self.rows_loaded += len(result)

    def _preprocessed(self, index, args, result):
        self.preprocessed.append(result)

    def _transliterated(self, index, args, result):
        self.translit_io.append((args[0], result))

    def _vocab_built(self, index, args, result):
        self.vocab = result

    def _predicted(self, index, args, result):
        self.predicted[index] = result[0]

    def _trained(self, index, args, result):
        self.train_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def trace(self) -> dict:
        """Spans plus the counters that need the run's own objects."""
        test_rows = self.preprocessed[-1] if self.preprocessed else []
        latin_in = sum(sum(c in _LATIN for c in src) for src, _ in self.translit_io)
        latin_out = sum(sum(c in _LATIN for c in out) for _, out in self.translit_io)
        tokens = oov = 0
        if self.vocab is not None:
            for row in test_rows:
                for term in row.text.split():
                    tokens += 1
                    oov += term not in self.vocab.index
        votes: dict[int, list[str]] = {}
        for index, label in self.predicted.items():
            parent = self.spans[index][3]
            if parent >= 0 and self.spans[parent][0] == "learn.ensemble_predict":
                votes.setdefault(parent, []).append(label)
        ties = 0
        for labels in votes.values():
            counts = sorted((labels.count(x) for x in set(labels)), reverse=True)
            ties += len(counts) > 1 and counts[0] == counts[1]
        return {
            "spans": self.spans,
            "counters": {
                "rows_loaded": self.rows_loaded,
                "test_gated": [row.gate == "NotLanguage" for row in test_rows],
                "translit_latin_in": latin_in,
                "translit_latin_out": latin_out,
                "vocab_size": len(self.vocab) if self.vocab is not None else 0,
                "test_tokens": tokens,
                "test_oov_tokens": oov,
                "vote_ties": ties,
                "train_peak_rss_mb": self.train_rss_kb / 1024,
            },
        }


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _), c in zip(spans, child)]


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run, named ``<module>.<metric>``."""
    spans, counters = trace["spans"], trace["counters"]
    own = self_times(spans)
    total: dict[str, float] = {}
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, start, end, _), s in zip(spans, own):
        total[name] = total.get(name, 0.0) + end - start
        selfs[name] = selfs.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1

    members = [end - start for name, start, end, _ in spans
               if name.startswith("learn.train.")]
    validate = sum(end - start for name, start, end, parent in spans
                   if name == "learn.predict" and parent >= 0
                   and spans[parent][0] == "pipeline.run_pipeline")
    gated = counters["test_gated"]
    latin_in = counters["translit_latin_in"]
    return {
        "corpus.load_s": total.get("corpus.load_tsv", 0.0),
        "corpus.rows": counters["rows_loaded"],
        "textprep.normalize_s": total.get("textprep.normalize_text", 0.0),
        "textprep.calls": calls.get("textprep.normalize_text", 0),
        # Without profiles the pipeline detects by script_fraction alone, so
        # the layer's time is both functions, nested calls counted once.
        "langid.detect_s": selfs.get("langid.detect", 0.0)
        + total.get("langid.script_fraction", 0.0),
        "langid.script_fraction_s": total.get("langid.script_fraction", 0.0),
        "langid.gated_rows": sum(gated),
        "langid.gated_share": sum(gated) / len(gated) if gated else 0.0,
        "translit.transliterate_s": total.get("translit.transliterate", 0.0),
        "translit.calls": calls.get("translit.transliterate", 0),
        "translit.latin_matched_share":
            1 - counters["translit_latin_out"] / latin_in if latin_in else 0.0,
        "features.vocab_s": total.get("features.build_vocab", 0.0),
        "features.vocab_size": counters["vocab_size"],
        "features.tfidf_s": total.get("features.tfidf_vectorize", 0.0),
        "features.test_oov_share":
            counters["test_oov_tokens"] / counters["test_tokens"]
            if counters["test_tokens"] else 0.0,
        "learn.train_s": sum(members),
        "learn.train_member_s.median": statistics.median(members) if members else 0.0,
        "learn.train_member_s.max": max(members, default=0.0),
        "learn.train_peak_rss_mb": counters["train_peak_rss_mb"],
        "learn.validate_s": validate,
        "learn.predict_vote_s": total.get("learn.ensemble_predict", 0.0),
        "learn.predict_calls": calls.get("learn.predict", 0),
        "learn.vote_ties": counters["vote_ties"],
        "metrics.report_s": sum(total.get(f"metrics.{f}", 0.0)
                                for f in ("confusion", "aggregate", "render_report")),
        "pipeline.preprocess_s": total.get("pipeline.preprocess_rows", 0.0),
        "pipeline.self_s": selfs.get("pipeline.run_pipeline", 0.0),
    }


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    from hopedetect import cli

    recorder = Recorder()
    recorder.install()
    try:
        code = cli.main(cli_args)
    finally:
        recorder.restore()
    Path(out_path).write_text(json.dumps(recorder.trace()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
