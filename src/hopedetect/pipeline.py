"""End-to-end orchestration: preprocessing -> language detection ->
transliteration -> classification, plus prediction/manifest/report output.

The three-class prediction is realized as a language-ID gate in front of a
binary hope classifier: comments gated as not-in-intended-language never
reach the feature or classifier stages.

``fit`` learns everything from the train rows and ``apply`` labels test rows
with it. ``run_pipeline`` is the two in one process; ``save_bundle`` and
``load_bundle`` keep a fitted pipeline in a directory between ``train`` and
``predict``.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import __version__, corpus, features, langid, learn, metrics, textprep, translit
from .corpus import DatasetLang, Label
from .errors import ConfigError, HopedetectError, MalformedFile, StageError

MANIFEST_VERSION = "manifest-v1"

# The manifest line of textprep.normalize_text's fixed rules. Every bundle
# holds it, and load_bundle requires it.
NORMALIZATION = "specials:1,emoji:1,lowercase:1,whitespace:1"

# Output aliases of the classifier's labels; NotLanguage is written as its
# dataset's DatasetLang.not_alias.
_OUT_ALIAS = {Label.HOPE: "Hope_speech", Label.NOT_HOPE: "Non_hope_speech"}


@dataclass
class PipelineConfig:
    """Every setting of ``train`` and ``run``; ``validate`` rejects a bad one.
    Given train embeddings, the pipeline classifies them in place of TF-IDF
    features, and their width is that of the file's first vector."""

    dataset_lang: DatasetLang
    profile_paths: list[str] = field(default_factory=list)
    script_threshold: float = 0.5
    scheme_path: str | None = None  # None -> the bundled table, if any
    train_embeddings: str | None = None
    test_embeddings: str | None = None
    min_df: int = 1
    classifier: str = "logreg"
    lr: float = 0.1
    epochs: int = 500
    l2: float = 1e-4
    svm_c: float = 1.0
    n_trees: int = 100
    max_depth: int = 16
    k: int = 1
    base_seed: int = 0
    fraction_train: float = 0.9
    tie_break: str = "MajorityClassPrior"

    @property
    def feature_mode(self) -> str:
        return "tfidf" if self.train_embeddings is None else "embeddings"

    def validate(self, test_input: bool = True):
        """``test_input=False`` checks only what ``fit`` reads."""
        embeddings = (self.train_embeddings, self.test_embeddings) != (None, None)
        if embeddings and not self.train_embeddings:
            raise ConfigError("embeddings mode requires a train embedding path")
        if embeddings and test_input and not self.test_embeddings:
            raise ConfigError("embeddings mode requires a test embedding path")
        if self.classifier not in learn._TRAINERS:
            raise ConfigError(f"unknown classifier {self.classifier!r}")
        if self.tie_break not in learn.TIE_BREAKS:
            raise ConfigError(f"unknown tie_break {self.tie_break!r}")
        # Every number setting is finite (nan fails each comparison).
        for name, least in (("k", 1), ("n_trees", 1), ("min_df", 1), ("epochs", 1),
                            ("max_depth", 0), ("l2", 0)):
            value = getattr(self, name)
            if not least <= value < math.inf:
                raise ConfigError(f"{name} must be >= {least}, got {value}")
        for name in ("lr", "svm_c"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be > 0, got {value}")
        if not 0 < self.fraction_train < 1:
            raise ConfigError(f"fraction_train must be in (0,1), got {self.fraction_train}")
        if not 0 < self.script_threshold <= 1:
            raise ConfigError(f"script threshold out of range: {self.script_threshold}")

    def trainer_params(self) -> dict:
        """Keyword arguments of the trainer of ``classifier``."""
        return {
            "logreg": {"lr": self.lr, "epochs": self.epochs, "l2": self.l2},
            "linear_svm": {"lr": self.lr, "epochs": self.epochs, "C": self.svm_c},
            "random_forest": {"n_trees": self.n_trees, "max_depth": self.max_depth},
        }[self.classifier]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_profiles(cfg: PipelineConfig):
    return [langid.load_profile(p) for p in cfg.profile_paths]


def _scheme_table(cfg: PipelineConfig):
    path = translit.scheme_file(cfg.dataset_lang, cfg.scheme_path)
    return None if path is None else translit.load_scheme_table(path)


@dataclass(slots=True)
class ProcessedRow:
    text: str  # normalized (and transliterated, when applicable)
    gate: str  # "InLanguage" | "NotLanguage"


def preprocess_rows(rows, cfg: PipelineConfig, profiles, table) -> list[ProcessedRow]:
    """Normalize the column of the rows' texts, detect the language of each
    text, and transliterate the text of each row the gate keeps."""
    texts = textprep.normalize_text([row.text for row in rows])
    langs = langid.detect(texts, profiles, cfg.script_threshold)
    out = []
    for i, lang in enumerate(langs):
        gate = langid.assign_language_class(lang, cfg.dataset_lang)
        if gate == "InLanguage" and table is not None:
            # Replaced in place, so that the normalized text is freed now:
            # kept to the end, the column of them added 0.9 MB to the peak
            # RSS of the benchmark's Tamil stream.
            texts[i] = translit.transliterate(texts[i], table)
        out.append(ProcessedRow(texts[i], gate))
    return out


@dataclass
class FittedPipeline:
    """What ``apply`` needs from training: the settings, the gate's profiles
    and scheme table, the vocabulary (None in embeddings mode), and the
    ensemble members with their records."""

    cfg: PipelineConfig
    profiles: list
    table: translit.SchemeTable | None
    vocab: features.Vocabulary | None
    models: list[learn.TrainedModel]
    records: list[dict]


def load_rows(stage: str, path, *, labeled: bool | None):
    """``corpus.load_tsv``, with input errors wrapped as a StageError."""
    try:
        return corpus.load_tsv(path, labeled=labeled)
    except (HopedetectError, OSError) as e:
        raise StageError(stage, e) from e


def fit(cfg: PipelineConfig, train_rows) -> FittedPipeline:
    """Preprocess the train rows, build their features and train the ensemble
    on the gold Hope/NotHope rows. Each member's record gets its validation
    weighted F1."""
    cfg.validate(test_input=False)
    profiles = _load_profiles(cfg)
    table = _scheme_table(cfg)
    train_proc = preprocess_rows(train_rows, cfg, profiles, table)

    # Binary classifier training set: positions of the gold Hope/NotHope rows.
    binary = [i for i, r in enumerate(train_rows)
              if r.label in (Label.HOPE, Label.NOT_HOPE)]
    if len(binary) < 2:
        rows = "row" if len(binary) == 1 else "rows"
        raise StageError("fit", f"{len(binary)} Hope/NotHope {rows} to train on, "
                                "need at least 2")
    vocab = None
    if cfg.feature_mode == "tfidf":
        texts = [train_proc[i].text for i in binary]
        vocab = features.build_vocab(texts, cfg.min_df)
        X = features.tfidf_vectorize(texts, vocab)
    else:
        X = features.load_embeddings(cfg.train_embeddings, n_rows=len(train_rows))[binary]
    y = [train_rows[i].label.value for i in binary]

    models, records = learn.train_ensemble(
        X, y, cfg.classifier, cfg.k, cfg.base_seed, cfg.fraction_train,
        **cfg.trainer_params())

    # Per-member validation weighted F1, recorded in the manifest.
    for model, rec in zip(models, records):
        rows = rec["validation_rows"]
        gold = [y[i] for i in rows]
        pred = learn.predict(model, X[rows])
        cm = metrics.confusion(gold, pred, model.classes)
        rec["validation_weighted_f1"] = metrics.aggregate(cm).weighted.f1
    return FittedPipeline(cfg, profiles, table, vocab, models, records)


def apply(fitted: FittedPipeline, test_rows) -> list[tuple[Label, str]]:
    """(label, output alias) of each test row: the gate's NotLanguage, or the
    ensemble's vote on the row's features. Only the rows the gate keeps get
    features."""
    cfg = fitted.cfg
    test_proc = preprocess_rows(test_rows, cfg, fitted.profiles, fitted.table)
    kept = [i for i, p in enumerate(test_proc) if p.gate != "NotLanguage"]
    if cfg.feature_mode == "tfidf":
        X = features.tfidf_vectorize([test_proc[i].text for i in kept], fitted.vocab)
    else:
        # The width the models were fitted on.
        X = features.load_embeddings(cfg.test_embeddings, fitted.models[0].dim,
                                     n_rows=len(test_rows))[kept]
    labels = [Label.NOT_LANGUAGE] * len(test_proc)
    for j, i in enumerate(kept):
        labels[i] = Label(learn.ensemble_predict(fitted.models, X[j:j + 1], cfg.tie_break))
    aliases = {**_OUT_ALIAS, Label.NOT_LANGUAGE: cfg.dataset_lang.not_alias}
    return [(label, aliases[label]) for label in labels]


def write_predictions(predictions, path) -> None:
    Path(path).write_text(
        "".join(alias + "\n" for _, alias in predictions), encoding="utf-8"
    )


def run_pipeline(cfg: PipelineConfig, train_path, test_path, out_dir):
    """Train the ensemble on the train file, predict the test file.

    Writes predictions.txt, manifest.txt and (when the test file carries
    gold labels) report.txt under out_dir. Returns (predictions, report).
    """
    cfg.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_rows = load_rows("load-train", train_path, labeled=True)
    test_rows = load_rows("load-test", test_path, labeled=None)

    fitted = fit(cfg, train_rows)
    predictions = apply(fitted, test_rows)
    write_predictions(predictions, out_dir / "predictions.txt")

    report = None
    if test_rows[0].label is not None:
        gold = [r.label.value for r in test_rows]
        pred = [label.value for label, _ in predictions]
        cm = metrics.confusion(gold, pred, [c.value for c in Label])
        report = metrics.aggregate(cm)
        (out_dir / "report.txt").write_text(
            metrics.render_report(report, "text"), encoding="utf-8"
        )
        (out_dir / "report.tsv").write_text(
            metrics.render_report(report, "tsv"), encoding="utf-8"
        )

    manifest = _render_manifest(cfg, train_path, test_path, fitted.models,
                                fitted.records)
    (out_dir / "manifest.txt").write_text(manifest, encoding="utf-8")
    return predictions, report


def _bundle_copies(bundle: Path, n_profiles: int, with_scheme: bool):
    """Paths of a bundle's copies of the profile files and scheme table."""
    return ([str(bundle / f"profile-{i}.profile") for i in range(n_profiles)],
            str(bundle / "scheme.tsv") if with_scheme else None)


def save_bundle(fitted: FittedPipeline, train_path, bundle_dir) -> None:
    """Write ``fitted`` to a directory that ``load_bundle`` reads back.

    It holds copies of the profile and scheme files, vocab.tsv, one model
    file per member, and manifest.txt: the run manifest without the test
    input, whose sha256 lines pin the copies.
    """
    out = Path(bundle_dir)
    out.mkdir(parents=True, exist_ok=True)
    scheme = translit.scheme_file(fitted.cfg.dataset_lang, fitted.cfg.scheme_path)
    profile_paths, scheme_path = _bundle_copies(
        out, len(fitted.cfg.profile_paths), scheme is not None)
    for src, dst in zip(fitted.cfg.profile_paths, profile_paths):
        shutil.copyfile(src, dst)
    if scheme is not None:
        shutil.copyfile(scheme, scheme_path)
    if fitted.vocab is not None:
        features.save_vocab(fitted.vocab, out / "vocab.tsv")
    for i, model in enumerate(fitted.models):
        learn.save_model(model, out / f"member-{i}.model")
    cfg = replace(fitted.cfg, profile_paths=profile_paths, scheme_path=scheme_path)
    manifest = _render_manifest(cfg, train_path, None, fitted.models, fitted.records)
    (out / "manifest.txt").write_text(manifest, encoding="utf-8")


def load_bundle(bundle_dir) -> FittedPipeline:
    """Read a directory written by ``save_bundle``. The copied profile and
    scheme files must match the sha256 its manifest pins. Only TF-IDF
    bundles load: nothing here computes embeddings of new comments."""
    bundle = Path(bundle_dir)
    try:
        lines = [line for _, line in corpus.utf8_lines(bundle / "manifest.txt")]
    except MalformedFile as e:
        raise ConfigError(str(e)) from None
    if not lines or lines[0] != f"# {MANIFEST_VERSION}":
        raise ConfigError(f"{bundle}: manifest.txt is not a {MANIFEST_VERSION} file")
    pinned: dict[str, list[str]] = {}
    for line in lines[1:]:
        key, _, value = line.partition("=")
        pinned.setdefault(key, []).append(value)
    one = {key: values[0] for key, values in pinned.items()}
    if one.get("feature_mode") == "embeddings":
        raise ConfigError(
            f"{bundle} was fitted on embeddings, which predict cannot compute for "
            "new comments; use run with --train-embeddings and --test-embeddings")
    profile_sha256 = pinned.get("profile.sha256", [])
    profile_paths, scheme_path = _bundle_copies(
        bundle, len(profile_sha256), "scheme.sha256" in one)
    try:
        if one["normalization"] != NORMALIZATION:
            raise ValueError(f"normalization={one['normalization']} is not "
                             f"{NORMALIZATION}")
        cfg = PipelineConfig(
            dataset_lang=DatasetLang(one["dataset_lang"]),
            profile_paths=profile_paths,
            script_threshold=float(one["script_threshold"]),
            scheme_path=scheme_path,
            min_df=int(one["min_df"]),
            classifier=one["classifier"],
            k=int(one["ensemble_k"]),
            base_seed=int(one["base_seed"]),
            fraction_train=float(one["fraction_train"]),
            tie_break=one["tie_break"],
        )
        records = [{"seed": int(seed), "validation_weighted_f1": float(f1.split("=")[1])}
                   for seed, f1 in map(str.split, pinned["member.seed"])]
        if len(records) != cfg.k:
            raise ValueError(f"{len(records)} member.seed lines for ensemble_k={cfg.k}")
    except (KeyError, ValueError) as e:
        raise ConfigError(f"{bundle}: malformed manifest.txt ({e!r})") from None
    cfg.validate(test_input=False)
    copies = list(zip(profile_paths, profile_sha256))
    if scheme_path is not None:
        copies.append((scheme_path, one["scheme.sha256"]))
    for path, digest in copies:
        if sha256_file(path) != digest:
            raise ConfigError(f"{path} does not match the sha256 that "
                              f"{bundle / 'manifest.txt'} pins")
    vocab = features.load_vocab(bundle / "vocab.tsv")
    models = []
    for i, rec in enumerate(records):
        path = bundle / f"member-{i}.model"
        model = learn.load_model(path)
        wrong = [f"{name} {got}, expected {want}" for name, got, want in (
            ("kind", model.kind, cfg.classifier), ("dim", model.dim, len(vocab)),
            ("seed", model.train_seed, rec["seed"])) if got != want]
        if wrong:
            raise MalformedFile(path, 1, "; ".join(wrong))
        models.append(model)
    return FittedPipeline(cfg, _load_profiles(cfg), _scheme_table(cfg), vocab,
                          models, records)


def _render_manifest(cfg, train_path, test_path, models, records) -> str:
    lines = [f"# {MANIFEST_VERSION}"]
    add = lines.append
    add(f"hopedetect_version={__version__}")
    add(f"dataset_lang={cfg.dataset_lang.value}")
    add(f"split_prng={corpus.SPLIT_PRNG}")
    add(f"normalization={NORMALIZATION}")
    add(f"script_threshold={cfg.script_threshold!r}")
    add(f"feature_mode={cfg.feature_mode}")
    if cfg.feature_mode == "tfidf":
        add(f"min_df={cfg.min_df}")
    else:
        add(f"embedding_dim={models[0].dim}")
    add(f"classifier={cfg.classifier}")
    for model in models[:1]:
        for key in sorted(model.hyperparams):
            add(f"hyperparam.{key}={model.hyperparams[key]!r}")
    add(f"ensemble_k={cfg.k}")
    add(f"base_seed={cfg.base_seed}")
    add(f"fraction_train={cfg.fraction_train!r}")
    add(f"tie_break={cfg.tie_break}")
    # A bundle's manifest (test_path None) pins no test input.
    add(f"input.train.sha256={sha256_file(train_path)}")
    if test_path is not None:
        add(f"input.test.sha256={sha256_file(test_path)}")
    if cfg.feature_mode == "embeddings":
        add(f"input.train_embeddings.sha256={sha256_file(cfg.train_embeddings)}")
        if test_path is not None:
            add(f"input.test_embeddings.sha256={sha256_file(cfg.test_embeddings)}")
    scheme = translit.scheme_file(cfg.dataset_lang, cfg.scheme_path)
    if scheme is not None:
        add(f"scheme.sha256={sha256_file(scheme)}")
    for path in cfg.profile_paths:
        add(f"profile.sha256={sha256_file(path)}")
    for rec in records:
        add(
            f"member.seed={rec['seed']} "
            f"validation_weighted_f1={rec.get('validation_weighted_f1', 0.0):.6f}"
        )
    return "\n".join(lines) + "\n"
