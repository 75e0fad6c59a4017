"""End-to-end orchestration: preprocessing -> language detection ->
transliteration -> classification, plus prediction/manifest/report output.

The three-class prediction is realized as a language-ID gate in front of a
binary hope classifier: comments gated as not-in-intended-language never
reach the feature or classifier stages.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import __version__, corpus, features, langid, learn, metrics, textprep, translit
from .corpus import DatasetLang, Label
from .errors import ConfigError, HopedetectError, StageError

MANIFEST_VERSION = "manifest-v1"

# Canonical output aliases per dataset language.
_NOT_LANG_ALIAS = {
    DatasetLang.ENGLISH: "not-English",
    DatasetLang.TAMIL: "not-Tamil",
    DatasetLang.MALAYALAM: "not-malayalam",
}
_OUT_ALIAS = {Label.HOPE: "Hope_speech", Label.NOT_HOPE: "Non_hope_speech"}

_LANG_CODES = {"en": DatasetLang.ENGLISH, "ta": DatasetLang.TAMIL,
               "ml": DatasetLang.MALAYALAM}

# Transliteration only applies to the Indic datasets.
_SCHEME_CODES = {DatasetLang.TAMIL: "ta", DatasetLang.MALAYALAM: "ml"}


@dataclass
class PipelineConfig:
    dataset_lang: DatasetLang
    normalization: textprep.NormalizationConfig = field(
        default_factory=textprep.NormalizationConfig
    )
    profile_paths: list[str] = field(default_factory=list)
    script_threshold: float = 0.5
    scheme_path: str | None = None  # None -> bundled table for ta/ml
    feature_mode: str = "tfidf"  # "tfidf" | "embeddings"
    train_embeddings: str | None = None
    test_embeddings: str | None = None
    embedding_dim: int = features.DEFAULT_EMBEDDING_DIM
    min_df: int = 1
    classifier: str = "logreg"
    classifier_params: dict = field(default_factory=dict)
    k: int = 1
    base_seed: int = 0
    fraction_train: float = 0.9
    tie_break: str = "MajorityClassPrior"
    include_zero_support: bool = True

    def validate(self):
        if self.feature_mode not in ("tfidf", "embeddings"):
            raise ConfigError(f"unknown feature mode {self.feature_mode!r}")
        if self.feature_mode == "embeddings" and not (
            self.train_embeddings and self.test_embeddings
        ):
            raise ConfigError("embeddings mode requires train and test embedding paths")
        if self.classifier not in learn._TRAINERS:
            raise ConfigError(f"unknown classifier {self.classifier!r}")
        if not 0 < self.script_threshold <= 1:
            raise ConfigError(f"script threshold out of range: {self.script_threshold}")


def dataset_lang_from_code(code: str) -> DatasetLang:
    try:
        return _LANG_CODES[code]
    except KeyError:
        raise ConfigError(f"unknown language code {code!r} (use en/ta/ml)") from None


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_profiles(cfg: PipelineConfig):
    return [langid.load_profile(p) for p in cfg.profile_paths]


def _scheme_table(cfg: PipelineConfig):
    code = _SCHEME_CODES.get(cfg.dataset_lang)
    if code is None:
        return None
    if cfg.scheme_path:
        return translit.load_scheme_table(cfg.scheme_path, code)
    return translit.bundled_scheme_table(code)


def _scheme_sha256(cfg: PipelineConfig) -> str | None:
    """sha256 of the file ``_scheme_table`` reads, or None when it reads none."""
    code = _SCHEME_CODES.get(cfg.dataset_lang)
    if code is None:
        return None
    if cfg.scheme_path:
        return sha256_file(cfg.scheme_path)
    with resources.as_file(translit.bundled_scheme_file(code)) as path:
        return sha256_file(path)


@dataclass
class ProcessedRow:
    id: int
    text: str  # normalized (and transliterated, when applicable)
    gate: str  # "InLanguage" | "NotLanguage"
    gold: Label | None


def preprocess_rows(rows, cfg: PipelineConfig, profiles, table) -> list[ProcessedRow]:
    out = []
    for row in rows:
        text = textprep.normalize_text(row.text, cfg.normalization)
        if profiles and text:
            lang = langid.detect(text, profiles, cfg.script_threshold)
        else:
            lang = langid.script_language(text, cfg.script_threshold)
        gate = langid.assign_language_class(lang, cfg.dataset_lang)
        if gate == "InLanguage" and table is not None:
            text = translit.transliterate(text, table)
        out.append(ProcessedRow(id=row.id, text=text, gate=gate, gold=row.label))
    return out


def run_pipeline(cfg: PipelineConfig, train_path, test_path, out_dir):
    """Train the ensemble on the train file, predict the test file.

    Writes predictions.txt, manifest.txt and (when the test file carries
    gold labels) report.txt under out_dir. Returns (predictions, report).
    """
    cfg.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        train_rows = corpus.load_tsv(train_path, cfg.dataset_lang, labeled=True)
    except Exception as e:
        raise StageError("load-train", e) from e
    try:
        test_rows = corpus.load_tsv(test_path, cfg.dataset_lang, labeled=None)
    except (HopedetectError, OSError) as e:
        raise StageError("load-test", e) from e
    test_labeled = test_rows[0].label is not None

    profiles = _load_profiles(cfg)
    table = _scheme_table(cfg)
    train_proc = preprocess_rows(train_rows, cfg, profiles, table)
    test_proc = preprocess_rows(test_rows, cfg, profiles, table)

    # Binary classifier training set: positions of the gold Hope/NotHope rows.
    binary = [i for i, r in enumerate(train_rows)
              if r.label in (Label.HOPE, Label.NOT_HOPE)]
    if cfg.feature_mode == "tfidf":
        texts = [train_proc[i].text for i in binary]
        vocab = features.build_vocab(texts, cfg.min_df)
        X = features.tfidf_vectorize(texts, vocab)
        test_X = features.tfidf_vectorize([p.text for p in test_proc], vocab)
    else:
        X = features.load_embeddings(
            cfg.train_embeddings, cfg.embedding_dim, n_rows=len(train_rows)
        )[binary]
        test_X = features.load_embeddings(
            cfg.test_embeddings, cfg.embedding_dim, n_rows=len(test_rows)
        )
    y = [train_rows[i].label.value for i in binary]

    ens_cfg = learn.EnsembleConfig(
        k=cfg.k, base_seed=cfg.base_seed, member_kind=cfg.classifier,
        fraction_train=cfg.fraction_train, tie_break=cfg.tie_break,
    )
    models, records = learn.train_ensemble(X, y, ens_cfg, **cfg.classifier_params)

    # Per-member validation weighted F1, recorded in the manifest.
    for model, rec in zip(models, records):
        rows = rec["validation_rows"]
        gold = [y[i] for i in rows]
        pred = [learn.predict(model, X[i])[0] for i in rows]
        cm = metrics.confusion(gold, pred, model.classes)
        rec["validation_weighted_f1"] = metrics.aggregate(cm).weighted.f1

    not_lang_alias = _NOT_LANG_ALIAS[cfg.dataset_lang]
    predictions: list[tuple[Label, str]] = []
    for i, p in enumerate(test_proc):
        if p.gate == "NotLanguage":
            predictions.append((Label.NOT_LANGUAGE, not_lang_alias))
            continue
        voted = learn.ensemble_predict(models, test_X[i], cfg.tie_break)
        label = Label(voted)
        predictions.append((label, _OUT_ALIAS[label]))

    pred_path = out_dir / "predictions.txt"
    pred_path.write_text(
        "".join(alias + "\n" for _, alias in predictions), encoding="utf-8"
    )

    report = None
    if test_labeled:
        gold = [r.label.value for r in test_rows]
        pred = [label.value for label, _ in predictions]
        classes = [c.value for c in learn.CLASS_ORDER]
        cm = metrics.confusion(gold, pred, classes)
        report = metrics.aggregate(cm, cfg.include_zero_support)
        (out_dir / "report.txt").write_text(
            metrics.render_report(report, "text"), encoding="utf-8"
        )
        (out_dir / "report.tsv").write_text(
            metrics.render_report(report, "tsv"), encoding="utf-8"
        )

    manifest = _render_manifest(cfg, train_path, test_path, models, records)
    (out_dir / "manifest.txt").write_text(manifest, encoding="utf-8")
    return predictions, report


def _render_manifest(cfg, train_path, test_path, models, records) -> str:
    lines = [f"# {MANIFEST_VERSION}"]
    add = lines.append
    add(f"hopedetect_version={__version__}")
    add(f"dataset_lang={cfg.dataset_lang.value}")
    add(f"split_prng={corpus.SPLIT_PRNG}")
    nc = cfg.normalization
    add(
        "normalization="
        f"specials:{int(nc.strip_specials)},emoji:{int(nc.strip_emoji)},"
        f"lowercase:{int(nc.lowercase)},whitespace:{int(nc.collapse_whitespace)}"
    )
    add(f"script_threshold={cfg.script_threshold!r}")
    add(f"feature_mode={cfg.feature_mode}")
    if cfg.feature_mode == "tfidf":
        add(f"min_df={cfg.min_df}")
    else:
        add(f"embedding_dim={cfg.embedding_dim}")
    add(f"classifier={cfg.classifier}")
    for model in models[:1]:
        for key in sorted(model.hyperparams):
            add(f"hyperparam.{key}={model.hyperparams[key]!r}")
    add(f"ensemble_k={cfg.k}")
    add(f"base_seed={cfg.base_seed}")
    add(f"fraction_train={cfg.fraction_train!r}")
    add(f"tie_break={cfg.tie_break}")
    add(f"input.train.sha256={sha256_file(train_path)}")
    add(f"input.test.sha256={sha256_file(test_path)}")
    if cfg.feature_mode == "embeddings":
        add(f"input.train_embeddings.sha256={sha256_file(cfg.train_embeddings)}")
        add(f"input.test_embeddings.sha256={sha256_file(cfg.test_embeddings)}")
    scheme_sha256 = _scheme_sha256(cfg)
    if scheme_sha256 is not None:
        add(f"scheme.sha256={scheme_sha256}")
    for path in cfg.profile_paths:
        add(f"profile.sha256={sha256_file(path)}")
    for rec in records:
        add(
            f"member.seed={rec['seed']} "
            f"validation_weighted_f1={rec.get('validation_weighted_f1', 0.0):.6f}"
        )
    return "\n".join(lines) + "\n"
