"""Full-size output digests: the byte-identity check of every refactor.

For each seed, the en, ta and ml corpora are generated at the HopeEDI sizes
by ``perfbench/gen.py`` (ta with the four profiles of ``ta-stream``) and run
through ``pipeline.run_pipeline`` with the flags that ``perfbench/plan.json``
gives the language's benchmark workload. The sha256 of ``predictions.txt``,
``report.tsv`` and ``manifest.txt`` must match
``fixtures/golden/full_size.sha256``. Seed 1 runs by default; pass
``--digest-seeds 2,3`` (or ``1,2,3``) for the others.

A change that alters outputs on purpose rewrites the digest file: each
failure prints the line the file would hold, and the file's first line
records the numpy version the digests were made with.
"""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hopedetect import cli, pipeline

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DIGESTS = Path(__file__).parent / "fixtures" / "golden" / "full_size.sha256"
# The benchmark workload whose flags each language runs with, and the
# HopeEDI train and test sizes.
RUNS = {"en": ("en-fit", 22762, 2846), "ta": ("ta-stream", 16160, 2020),
        "ml": ("ml-forest", 8564, 1071)}
OUTPUTS = ("predictions.txt", "report.tsv", "manifest.txt")


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pytest_generate_tests(metafunc):
    if "seed" in metafunc.fixturenames:
        seeds = [int(s) for s in metafunc.config.getoption("digest_seeds").split(",")]
        metafunc.parametrize("seed", seeds)


def recorded() -> tuple[str, dict[str, str]]:
    """The numpy version and the digest of each ``seed<S>/<lang>/<file>``."""
    header, *lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    digests = dict(reversed(line.split("  ")) for line in lines)
    return header.removeprefix("# numpy "), digests


def output_digests(seed: int, lang: str, work: Path) -> dict[str, str]:
    """Generate ``lang``'s full-size corpus for ``seed`` under ``work``, run
    it with its workload's flags, and digest each output by its name in the
    digest file."""
    gen, run = _perfbench("gen"), _perfbench("run")
    name, n_train, n_test = RUNS[lang]
    workload = run.load_plan()["workloads"][name]
    inputs = gen.write_inputs(work / "inputs", lang, n_train, n_test, seed,
                              workload["profiles"])
    args = cli.build_parser().parse_args(run.run_command(workload, inputs, work / "out"))
    pipeline.run_pipeline(cli._pipeline_config(args), args.train, args.test, args.out)
    return {f"seed{seed}/{lang}/{out}":
            hashlib.sha256((work / "out" / out).read_bytes()).hexdigest()
            for out in OUTPUTS}


@pytest.mark.parametrize("lang", RUNS)
def test_full_size_outputs_match_their_digests(tmp_path, seed, lang):
    numpy_version, digests = recorded()
    for name, digest in output_digests(seed, lang, tmp_path).items():
        if name not in digests:
            pytest.fail(f"{DIGESTS.name} has no digest of {name}: {digest}  {name}")
        if digest != digests[name]:
            numpy_note = ("" if numpy_version == np.__version__ else
                          f"; the digests were made with numpy {numpy_version}, "
                          f"this is numpy {np.__version__}")
            pytest.fail(f"{name} differs from {DIGESTS.name}: {digest}  {name}{numpy_note}")
