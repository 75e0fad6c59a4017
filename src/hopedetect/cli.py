"""Command-line entry points for the detection pipeline.

Subcommands mirror the pipeline stages so each is independently invokable:
stats, detect-lang, transliterate, train, predict, ensemble-vote, evaluate,
and run (the full pipeline). Exit codes: 0 success, 2 input error, 3 config
error.
"""

from __future__ import annotations

import argparse
import sys
import typing

from . import corpus, langid, learn, metrics, pipeline, textprep, translit
from .corpus import DatasetLang, Label, utf8_lines
from .errors import ConfigError, HopedetectError, MalformedFile

EXIT_INPUT_ERROR = 2
EXIT_CONFIG_ERROR = 3

# The dataset language of each --lang code.
_LANGS = {lang.code: lang for lang in DatasetLang}


def _pipeline_config(args) -> pipeline.PipelineConfig:
    """The settings of `train` and `run`: each flag, else its config-file
    line, parsed as the type of its PipelineConfig field, else the field
    default."""
    types = typing.get_type_hints(pipeline.PipelineConfig)
    settings = {}
    try:
        for line_no, line in utf8_lines(args.config) if args.config else ():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if not sep:
                raise ConfigError(f"{args.config}:{line_no}: expected key=value")
            if key not in args.setting_fields:
                raise ConfigError(f"{args.config}:{line_no}: unknown key {key!r}")
            name = args.setting_fields[key]
            if name in settings:
                raise ConfigError(f"{args.config}:{line_no}: repeated key {key!r}")
            parse = types[name] if types[name] in (int, float) else str.strip
            try:
                settings[name] = parse(value)
            except ValueError:
                raise ConfigError(f"{args.config}:{line_no}: bad {key} value "
                                  f"{value.strip()!r} (expected {parse.__name__})") from None
    except MalformedFile as e:
        raise ConfigError(f"{args.config}:{e.line_no}: not valid UTF-8") from None
    for name in args.setting_fields.values():
        if getattr(args, name) is not None:
            settings[name] = getattr(args, name)
    return pipeline.PipelineConfig(dataset_lang=_LANGS[args.lang],
                                   profile_paths=args.profiles, **settings)


# The list takes every argument up to the next option, positionals included.
_PROFILES_HELP = ("language profile files; end the list with -- or put it "
                  "after the positional arguments")


def _add_pipeline_flags(p):
    """The options of `train` and `run`, which both fit the pipeline. Each
    option after --profiles sets the PipelineConfig field of its dest, as
    does its config-file key: its name without the dashes."""
    p.add_argument("--lang", required=True, choices=_LANGS)
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--profiles", nargs="*", default=[], help=_PROFILES_HELP)
    settings = [
        p.add_argument("--script-threshold", type=float),
        p.add_argument("--scheme", dest="scheme_path", metavar="SCHEME"),
        p.add_argument("--seed", type=int, dest="base_seed", metavar="SEED"),
        p.add_argument("--k", type=int),
        p.add_argument("--fraction-train", type=float),
        p.add_argument("--tie-break", choices=learn.TIE_BREAKS),
        p.add_argument("--classifier", choices=list(learn._TRAINERS)),
        p.add_argument("--lr", type=float),
        p.add_argument("--epochs", type=int),
        p.add_argument("--l2", type=float),
        p.add_argument("--svm-c", type=float),
        p.add_argument("--n-trees", type=int),
        p.add_argument("--max-depth", type=int),
        p.add_argument("--min-df", type=int),
        p.add_argument("--train-embeddings"),
        p.add_argument("--test-embeddings"),
    ]
    p.set_defaults(setting_fields={
        a.option_strings[0][2:].replace("-", "_"): a.dest for a in settings})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopedetect", description="Hope-speech detection pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="class distribution of a labeled TSV")
    p.add_argument("path")

    p = sub.add_parser("detect-lang", help="per-line language detection")
    p.add_argument("--profiles", nargs="+", required=True, help=_PROFILES_HELP)
    p.add_argument("--script-threshold", type=float, default=0.5)
    p.add_argument("path")

    p = sub.add_parser("train-profile", help="train a language ID profile")
    p.add_argument("--lang", required=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--out", required=True)
    p.add_argument("path", help="one training sentence per line")

    p = sub.add_parser("transliterate", help="Latin runs to native script")
    p.add_argument("--lang", required=True,
                   choices=[lang.code for lang in translit.BUNDLED_SCHEMES])
    p.add_argument("--scheme", help="custom scheme TSV (default: bundled)")
    p.add_argument("path")

    p = sub.add_parser("train", help="fit the pipeline and save it as a bundle")
    _add_pipeline_flags(p)
    p.add_argument("--out", required=True, help="bundle directory")
    p.add_argument("path")

    p = sub.add_parser("predict", help="label a TSV with a saved bundle")
    p.add_argument("--lang", required=True, choices=_LANGS)
    p.add_argument("--model", required=True, help="bundle directory from train")
    p.add_argument("--out", required=True)
    p.add_argument("path")

    p = sub.add_parser("ensemble-vote", help="majority-vote prediction files")
    p.add_argument("--predictions", nargs="+", required=True)
    p.add_argument("--n-rows", type=int, required=True)
    p.add_argument("--tie-break", default="MajorityClassPrior",
                   choices=learn.TIE_BREAKS)
    p.add_argument("--out")

    p = sub.add_parser("evaluate", help="score predictions against gold labels")
    p.add_argument("--format", default="text", choices=["text", "tsv", "json"])
    p.add_argument("gold")
    p.add_argument("predictions")

    p = sub.add_parser("run", help="full pipeline: train, predict, evaluate")
    _add_pipeline_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("train")
    p.add_argument("test")
    return parser


def _cmd_stats(args):
    rows = corpus.load_tsv(args.path)
    stats = corpus.compute_stats(rows)
    for label in Label:
        print(f"{label.value}\t{stats.counts[label]}")
    print(f"total\t{stats.total}")
    ratio = stats.hope_to_nothope_ratio
    print(f"hope_to_nothope_ratio\t{float(ratio):.4f}" if ratio is not None
          else "hope_to_nothope_ratio\tn/a")


def _cmd_detect_lang(args):
    profiles = [langid.load_profile(p) for p in args.profiles]
    texts = textprep.normalize_text([line for _, line in utf8_lines(args.path)])
    # With profiles only an empty text has no detected language.
    for lang in langid.detect(texts, profiles, args.script_threshold):
        print(lang or "??")


def _cmd_train_profile(args):
    sentences = [line for _, line in utf8_lines(args.path) if line.strip()]
    profile = langid.train_profile(sentences, args.lang, args.n, args.alpha)
    langid.save_profile(profile, args.out)
    print(f"wrote {args.out} ({len(profile.logprob)} n-grams)")


def _cmd_transliterate(args):
    table = translit.load_scheme_table(translit.scheme_file(_LANGS[args.lang], args.scheme))
    for _, line in utf8_lines(args.path):
        print(translit.transliterate(line, table))


def _cmd_train(args):
    cfg = _pipeline_config(args)
    rows = pipeline.load_rows("load-train", args.path, labeled=True)
    fitted = pipeline.fit(cfg, rows)
    pipeline.save_bundle(fitted, args.path, args.out)
    print(f"wrote {args.out} ({cfg.k} {cfg.classifier} members, "
          f"dim {fitted.models[0].dim})")


def _cmd_predict(args):
    fitted = pipeline.load_bundle(args.model)
    lang = _LANGS[args.lang]
    if lang is not fitted.cfg.dataset_lang:
        raise ConfigError(f"{args.model} was fitted on {fitted.cfg.dataset_lang.value} "
                          f"data, not {lang.value}")
    rows = pipeline.load_rows("load-test", args.path, labeled=None)
    predictions = pipeline.apply(fitted, rows)
    pipeline.write_predictions(predictions, args.out)
    print(f"wrote {args.out} ({len(predictions)} predictions)")


def _cmd_ensemble_vote(args):
    matrix = learn.load_external_predictions(args.predictions, args.n_rows)
    merged = [
        learn.majority_vote([row[i] for row in matrix], args.tie_break)
        for i in range(args.n_rows)
    ]
    out = sys.stdout if not args.out else open(args.out, "w", encoding="utf-8")
    try:
        for label in merged:
            out.write(label + "\n")
    finally:
        if args.out:
            out.close()
            print(f"wrote {args.out} ({len(merged)} rows)")


def _cmd_evaluate(args):
    gold_rows = corpus.load_tsv(args.gold)
    pred = learn.load_external_predictions([args.predictions], len(gold_rows))[0]
    gold = [r.label.value for r in gold_rows]
    cm = metrics.confusion(gold, pred, [c.value for c in Label])
    print(metrics.render_report(metrics.aggregate(cm), args.format), end="")


def _cmd_run(args):
    cfg = _pipeline_config(args)
    pipeline.run_pipeline(cfg, args.train, args.test, args.out)
    print(f"wrote predictions and manifest under {args.out}")


_COMMANDS = {
    "stats": _cmd_stats,
    "detect-lang": _cmd_detect_lang,
    "train-profile": _cmd_train_profile,
    "transliterate": _cmd_transliterate,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "ensemble-vote": _cmd_ensemble_vote,
    "evaluate": _cmd_evaluate,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (HopedetectError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
