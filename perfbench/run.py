"""HopeEDI-shaped benchmark of ``hopedetect run``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload en-fit --seed 1 --seconds 30 --trace 0

Set-up generates the workload's corpora (and language profiles) from the
seed, several times, and reports the median time. The benchmark then runs
the real CLI as a child process, one run at a time (a closed loop with one
client), until ``--seconds`` have passed. Every run's outputs are checked;
a run that exits non-zero or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics of untraced runs. ``--trace 1``
alternates untraced runs with traced ones (``spans.py``) and reports the
per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads, metric units and what each layer metric should move are in
``plan.json``. Everything the benchmark writes goes under
``perfbench/.work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

MIN_RUNS = 2          # untraced runs needed for the determinism check
DEADLINE_S = 165.0    # whole invocation, leaving room under a 180 s limit
CLASSES = ("Hope", "NotHope", "NotLanguage")
OUT_CLASS = {"Hope_speech": "Hope", "Non_hope_speech": "NotHope"}
HOT_PATH = ("textprep.normalize_text", "langid.detect", "langid.script_fraction",
            "translit.transliterate")


@functools.cache
def load_plan() -> dict:
    """Workloads, BLAS threads and metric definitions."""
    return json.loads((HERE / "plan.json").read_text(encoding="utf-8"))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    threads = str(load_plan()["blas_threads"])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(cmd, out_dir: Path, timeout: float) -> dict:
    """Run one child to completion; wall, CPU and peak RSS are its own."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "stdout.txt", "wb") as out, \
            open(out_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(max(timeout, 0.1), proc.kill)
        killer.start()
        try:
            # wait4 reports this child's rusage alone; RUSAGE_CHILDREN would
            # give the maximum RSS over every child so far.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }


def run_command(workload: dict, inputs: dict, out_dir: Path) -> list[str]:
    profiles = [str(inputs[f"profile.{c}"]) for c in workload["profiles"]]
    args = ["run", "--lang", workload["lang"], *workload["flags"],
            "--out", str(out_dir), str(inputs["train"]), str(inputs["test"])]
    if profiles:
        args[3:3] = ["--profiles", *profiles]
    return args


def gold_labels(test_path: Path) -> list[str]:
    from hopedetect import corpus

    with open(test_path, encoding="utf-8") as fh:
        return [corpus.parse_label(line.rstrip("\n").split("\t")[1]).value
                for line in fh]


def f1_scores(gold: list[str], pred: list[str]) -> tuple[float, float]:
    """Macro and support-weighted F1 over CLASSES, counted independently."""
    f1, support = {}, {}
    for c in CLASSES:
        tp = sum(g == c and p == c for g, p in zip(gold, pred))
        fp = sum(g != c and p == c for g, p in zip(gold, pred))
        fn = sum(g == c and p != c for g, p in zip(gold, pred))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1[c] = (2 * precision * recall / (precision + recall)
                 if precision + recall else 0.0)
        support[c] = tp + fn
    macro = sum(f1.values()) / len(CLASSES)
    weighted = sum(f1[c] * support[c] for c in CLASSES) / sum(support.values())
    return macro, weighted


def check_run(result: dict, out_dir: Path, gold: list[str], not_lang: str):
    """Output checks of one run; returns (problems, predicted classes)."""
    if result["rc"] != 0:
        return [f"exit code {result['rc']}"], None
    lines = (out_dir / "predictions.txt").read_text(encoding="utf-8").splitlines()
    problems = []
    if len(lines) != len(gold):
        problems.append(f"{len(lines)} predictions for {len(gold)} test rows")
    aliases = {**OUT_CLASS, not_lang: "NotLanguage"}
    bad = [line for line in lines if line not in aliases]
    if bad:
        problems.append(f"{len(bad)} predictions are not aliases, e.g. {bad[0]!r}")
    if problems:
        return problems, None
    pred = [aliases[line] for line in lines]
    macro, weighted = f1_scores(gold, pred)
    header, row = (out_dir / "report.tsv").read_text(encoding="utf-8").splitlines()
    report = dict(zip(header.split("\t"), map(float, row.split("\t"))))
    # report.tsv holds three decimals, so compare at that precision.
    for name, mine in (("macro_f1", macro), ("weighted_f1", weighted)):
        if abs(float(f"{mine:.3f}") - report[name]) > 1e-6:
            problems.append(f"{name} {mine:.6f} disagrees with report.tsv "
                            f"{report[name]}")
    result["macro_f1"], result["weighted_f1"] = macro, weighted
    return problems, pred


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def setup(workload: dict, seed: int, work: Path):
    """Generate the inputs ``setup_repeats`` times; all must be identical."""
    import gen  # needs hopedetect on sys.path

    times, digests, inputs = [], set(), None
    for i in range(load_plan()["setup_repeats"]):
        start = time.perf_counter()
        inputs = gen.write_inputs(
            work / f"inputs{i}", workload["lang"], workload["train_rows"],
            workload["test_rows"], seed, workload["profiles"])
        times.append(time.perf_counter() - start)
        digests.add(tuple(digest(p) for _, p in sorted(inputs.items())))
    problems = [] if len(digests) == 1 else ["set-up is not deterministic"]
    return inputs, times, problems


def main(argv=None) -> int:
    plan = load_plan()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(plan["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hopedetect" / "cli.py").is_file():
        print(f"no hopedetect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gen

    began = time.perf_counter()
    workload = plan["workloads"][args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inputs, setup_times, problems = setup(workload, args.seed, work)
    gold = gold_labels(inputs["test"])
    not_lang = gen.LABEL_ALIASES[workload["lang"]][2]

    def measured(cmd_prefix, out):
        cmd = [*cmd_prefix, *run_command(workload, inputs, out)]
        result = run_child(cmd, out, DEADLINE_S - (time.perf_counter() - began))
        result["problems"], result["pred"] = check_run(result, out, gold, not_lang)
        result["out"] = out
        return result

    runs, traced = [], []
    measure_start = time.perf_counter()
    while True:
        now = time.perf_counter()
        enough = len(runs) >= (1 if args.trace else MIN_RUNS)
        last = runs[-1]["wall_s"] + (traced[-1]["wall_s"] if traced else 0) if runs else 0
        if (enough and now - measure_start >= args.seconds) or \
                (runs and now - began + last > DEADLINE_S):
            break
        i = len(runs)
        runs.append(measured([sys.executable, "-m", "hopedetect.cli"], work / f"run{i}"))
        if args.trace:
            tout = work / f"traced{i}"
            traced.append(measured(
                [sys.executable, str(HERE / "spans.py"), str(tout / "trace.json")], tout))

    problems += determinism_problems(runs)
    notes = []
    if args.trace:
        metrics, trace_problems, notes = traced_metrics(runs, traced)
        problems += trace_problems
    else:
        metrics = end_to_end_metrics(runs, setup_times)
    every = runs + traced
    failed = sum(bool(r["problems"]) for r in every)
    problems += [f"{r['out'].name}: {p}" for r in every for p in r["problems"]]

    ok = [r for r in runs if not r["problems"]]
    for p in problems:
        print(f"CHECK FAILED {p}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"failed_runs={failed}/{len(every)}")
    print(f"  run_s samples ({len(ok)}; too few for a percentile above the "
          f"median): " + " ".join(f"{r['wall_s']:.3f}" for r in ok))
    for note in notes:
        print(f"  {note}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value['value']:.6g} {value['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(every),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def determinism_problems(runs: list[dict]) -> list[str]:
    """Untraced runs of one seed must write identical predictions and manifests."""
    ok = [r for r in runs if not r["problems"]]
    problems = []
    for name in ("predictions.txt", "manifest.txt"):
        if len({digest(r["out"] / name) for r in ok}) > 1:
            problems.append(f"{name} differs between runs of the same seed")
    return problems


def _median(runs, key):
    values = [r[key] for r in runs if not r["problems"]]
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(runs: list[dict], setup_times: list[float]) -> dict:
    units = {k: v["unit"] for k, v in load_plan()["end_to_end"].items()}
    values = {
        "run_s": _median(runs, "wall_s"),
        "cpu_s": _median(runs, "cpu_s"),
        "peak_rss_mb": _median(runs, "peak_rss_mb"),
        "macro_f1": _median(runs, "macro_f1"),
        "weighted_f1": _median(runs, "weighted_f1"),
        "setup_s": statistics.median(setup_times),
    }
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def traced_metrics(runs, traced):
    """Per-layer metrics (medians over the traced runs) and the gate checks."""
    import spans

    problems, layers, hot, train = [], [], [], []
    base = next((r for r in runs if not r["problems"]), None)
    for r in traced:
        if r["problems"]:
            continue
        trace = json.loads((r["out"] / "trace.json").read_text(encoding="utf-8"))
        if base and (r["out"] / "predictions.txt").read_bytes() != \
                (base["out"] / "predictions.txt").read_bytes():
            r["problems"].append("traced predictions differ from untraced ones")
        gated = trace["counters"]["test_gated"]
        passed = len(gated) - sum(gated)
        calls = sum(s[0] == "learn.ensemble_predict" for s in trace["spans"])
        if calls != passed:
            r["problems"].append(f"{calls} ensemble_predict calls for {passed} "
                                 f"rows not gated out")
        if any(g and p != "NotLanguage" for g, p in zip(gated, r["pred"])):
            r["problems"].append("a gated row is not predicted NotLanguage")
        layer = spans.layer_metrics(trace)
        layers.append(layer)
        own = spans.self_times(trace["spans"])
        hot.append(sum(t for s, t in zip(trace["spans"], own) if s[0] in HOT_PATH)
                   / r["wall_s"])
        train.append(layer["learn.train_s"] / r["wall_s"])

    units = {k: v["unit"] for k, v in load_plan()["per_layer"].items()}
    metrics = {}
    for name, unit in units.items():
        if name.startswith("trace."):
            continue
        values = [x[name] for x in layers]
        if unit in ("count", "ratio") and len(set(values)) > 1:
            problems.append(f"{name} differs between traced runs: {values}")
        metrics[name] = statistics.median(values) if values else 0.0
    metrics["trace.run_s"] = _median(traced, "wall_s")
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - _median(runs, "wall_s")
    notes = [f"share of the traced run in {what}: {statistics.median(v):.3f}"
             for what, v in (("normalize+langid+translit self time", hot),
                             ("training", train)) if v]
    return ({k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            problems, notes)


if __name__ == "__main__":
    sys.exit(main())
