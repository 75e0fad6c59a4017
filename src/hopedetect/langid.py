"""Character n-gram language detection with an Indic-script shortcut.

A pure order-n model (default trigram, add-alpha 0.5, no back-off) scores
each text per language; before scoring, if at least half of the letters sit
in one Indic script block, that block's language wins outright. Code-mixed
comments are exactly where statistical detectors fail, and native-script
presence is a near-certain signal. Without profiles only the shortcut can
give evidence; a text it does not decide has no detected language, and the
not-in-intended-language gate never flags it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat

from . import textprep
from .corpus import DatasetLang, utf8_lines
from .errors import EmptyCorpus, EmptyText, MalformedFile, NoProfiles

PROFILE_VERSION = "langprofile-v1"

SUPPORTED_LANGS = ("en", "hi", "ml", "ta")


@dataclass(frozen=True)
class LanguageProfile:
    lang: str
    n: int
    logprob: dict[str, float]
    smoothing_alpha: float
    unseen_logprob: float  # mass for n-grams never observed in training


def _char_ngrams(text: str, n: int) -> list[str]:
    return [text[i : i + n] for i in range(len(text) - n + 1)]


def train_profile(corpus, lang: str, n: int = 3, alpha: float = 0.5) -> LanguageProfile:
    """Count character n-grams over the corpus and smooth with add-alpha."""
    if not corpus:
        raise EmptyCorpus("training corpus is empty")
    if not 1 <= n <= 3:
        raise ValueError(f"n must be in 1..3, got {n}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    counts: Counter[str] = Counter()
    for text in corpus:
        counts.update(_char_ngrams(text, n))
    total = sum(counts.values())
    # Normalized over the observed alphabet; unseen n-grams get alpha/norm.
    norm = total + alpha * len(counts)
    logprob = {g: math.log((c + alpha) / norm) for g, c in sorted(counts.items())}
    return LanguageProfile(
        lang=lang,
        n=n,
        logprob=logprob,
        smoothing_alpha=alpha,
        unseen_logprob=math.log(alpha / norm),
    )


# One-character tag of each Indic script; "-" tags any other letter.
_TAGS = {script: str(i) for i, script in enumerate(textprep.INDIC_SCRIPTS)}


def _script_tag(c: str) -> str | None:
    # A letter becomes its script's tag; a non-letter is deleted.
    if not c.isalpha():
        return None
    script = textprep.indic_script(c)
    return _TAGS[script] if script else "-"


_SCRIPT_TAGS = textprep.CodePointTable(_script_tag)


def script_fraction(text: str) -> dict[str, float]:
    """Fraction of the text's letters in each known Indic script block."""
    tags = text.translate(_SCRIPT_TAGS)
    # No letters: every count is 0, and so is every fraction.
    letters = max(len(tags), 1)
    return {s.name: tags.count(tag) / letters for s, tag in _TAGS.items()}


def script_language(text: str, threshold: float) -> str | None:
    """Language of the first Indic script holding at least ``threshold`` of
    the text's letters, or None when no script does."""
    fractions = script_fraction(text)
    for script in textprep.INDIC_SCRIPTS:
        share = fractions[script.name]
        if share >= threshold and share > 0:
            return script.lang
    return None


def detect(text: str, profiles, script_threshold: float = 0.5) -> str:
    """Detected language code: the script shortcut, else the profile with
    the highest length-normalized log-likelihood (ties to the smaller code)."""
    if not profiles:
        raise NoProfiles("need at least one language profile")
    if not text:
        raise EmptyText("cannot detect language of empty text")

    lang = script_language(text, script_threshold)
    if lang is not None:
        return lang

    scores: dict[str, float] = {}
    grams_of: dict[int, list[str]] = {}
    for profile in profiles:
        grams = grams_of.get(profile.n)
        if grams is None:
            grams = grams_of[profile.n] = _char_ngrams(text, profile.n) or [text]
        total = sum(map(profile.logprob.get, grams, repeat(profile.unseen_logprob)))
        scores[profile.lang] = total / len(grams)
    best_score = max(scores.values())
    return min(lang for lang, s in scores.items() if s == best_score)


def assign_language_class(lang: str | None, dataset_lang: DatasetLang) -> str:
    """Dataset-specific rule for the not-in-intended-language class.

    ``lang`` is the detected language code, or None when there is no
    evidence; None is never flagged. Tamil/Malayalam datasets: only English
    or Hindi detections are flagged; everything else is assumed to belong to
    the dataset language. English: anything detected as another language is
    flagged.
    """
    if lang is None:
        return "InLanguage"
    if dataset_lang == DatasetLang.ENGLISH:
        return "InLanguage" if lang == "en" else "NotLanguage"
    return "NotLanguage" if lang in ("en", "hi") else "InLanguage"


def _escape(gram: str) -> str:
    return (
        gram.replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def _unescape(safe: str) -> str:
    if "\\" not in safe:
        return safe
    out, i = [], 0
    while i < len(safe):
        if safe[i] == "\\" and i + 1 < len(safe):
            if safe[i + 1] not in _UNESCAPES:
                raise ValueError(f"unknown escape in {safe!r}")
            out.append(_UNESCAPES[safe[i + 1]])
            i += 2
        else:
            out.append(safe[i])
            i += 1
    return "".join(out)


def save_profile(profile: LanguageProfile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# {PROFILE_VERSION}\tlang={profile.lang}\tn={profile.n}\t"
            f"alpha={profile.smoothing_alpha!r}\tcount={len(profile.logprob)}\t"
            f"unseen={profile.unseen_logprob!r}\n"
        )
        for gram in sorted(profile.logprob):
            fh.write(f"{_escape(gram)}\t{profile.logprob[gram]!r}\n")


def load_profile(path) -> LanguageProfile:
    """Read a file written by ``save_profile``. A damaged file raises
    MalformedFile naming the line at fault."""
    lines = utf8_lines(path)
    line_no, header = next(lines, (1, ""))
    try:
        if not header.startswith(f"# {PROFILE_VERSION}\t"):
            raise ValueError(f"not a {PROFILE_VERSION} header")
        meta = dict(part.split("=", 1) for part in header.split("\t")[1:])
        if meta.keys() != {"lang", "n", "alpha", "count", "unseen"}:
            raise ValueError(f"bad {PROFILE_VERSION} header fields")
        n, alpha, count = int(meta["n"]), float(meta["alpha"]), int(meta["count"])
        unseen = float(meta["unseen"])
        logprob = {}
        for line_no, line in lines:
            safe, value = line.split("\t")
            logprob[_unescape(safe)] = float(value)
        line_no += 1
        if len(logprob) != count:
            raise ValueError(f"{len(logprob)} grams, the header says {count}")
    except ValueError as e:
        raise MalformedFile(path, line_no, e) from None
    return LanguageProfile(lang=meta["lang"], n=n, logprob=logprob,
                           smoothing_alpha=alpha, unseen_logprob=unseen)
