"""Character n-gram language detection with an Indic-script shortcut.

A pure order-n model (default trigram, add-alpha 0.5, no back-off) scores
each text per language; before scoring, if at least half of the letters sit
in one Indic script block, that block's language wins outright. Code-mixed
comments are exactly where statistical detectors fail, and native-script
presence is a near-certain signal. Without profiles only the shortcut can
give evidence; a text it does not decide has no detected language, and the
not-in-intended-language gate never flags it.

``detect`` takes a whole column of texts and works on blocks of them with
array passes: a code-point tag table counts each text's letters per
script, and each n-gram, packed into one integer key, is looked up in a
profile's sorted keys.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from . import textprep
from .corpus import DatasetLang, utf8_lines
from .errors import EmptyCorpus, MalformedFile

PROFILE_VERSION = "langprofile-v1"


@dataclass(frozen=True)
class LanguageProfile:
    lang: str
    n: int
    logprob: dict[str, float]
    smoothing_alpha: float
    unseen_logprob: float  # mass for n-grams never observed in training

    @cached_property
    def packed(self):
        """(keys, log-probabilities) of the n-grams, sorted by packed key and
        ended by _NO_GRAM with the unseen log-probability, so that a key's
        ``np.searchsorted`` position is always in range. Every gram must
        have n code points."""
        keys = _pack(_code_points(list(self.logprob))[0], self.n)[:: self.n]
        logprob = np.fromiter(self.logprob.values(), np.float64, len(keys))
        order = np.argsort(keys)
        return (np.append(keys[order], _NO_GRAM),
                np.append(logprob[order], self.unseen_logprob))


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


# Texts per block of detect. A block's temporaries are a few int64 arrays
# per code point of its texts; on the benchmark's Tamil stream 256 texts
# raise the peak RSS by 0.1 MB over 128, at the same speed.
_DETECT_BLOCK = 128

# Bits per code point in a packed n-gram key: three code points fit in an
# int64, and no key reaches _NO_GRAM.
_CP_BITS = 21
_NO_GRAM = np.iinfo(np.int64).max

# Tag of each code point for the script count: 0 not decided yet, then
# _NOT_LETTER, _OTHER_LETTER (a letter of no Indic block), or _FIRST_SCRIPT
# + i for a letter of INDIC_SCRIPTS[i]. Decided the first time a block holds
# the code point; np.zeros leaves the pages of code points never seen
# unwritten.
_TAGS = np.zeros(0x110000, np.uint8)
_NOT_LETTER, _OTHER_LETTER, _FIRST_SCRIPT = 1, 2, 3
_N_TAGS = _FIRST_SCRIPT + len(textprep.INDIC_SCRIPTS)
_SCRIPT_TAG = {script: _FIRST_SCRIPT + i for i, script in enumerate(textprep.INDIC_SCRIPTS)}


def _tag(c: str) -> int:
    if not c.isalpha():
        return _NOT_LETTER
    script = textprep.indic_script(c)
    return _SCRIPT_TAG[script] if script else _OTHER_LETTER


def _code_points(texts: list[str]):
    """The texts' code points end to end (int64), each text's length, and
    the position in ``texts`` of the text each code point belongs to."""
    lengths = np.fromiter(map(len, texts), np.intp, len(texts))
    utf32 = "".join(texts).encode("utf-32-le", "surrogatepass")
    cps = np.frombuffer(utf32, "<u4").astype(np.int64)
    return cps, lengths, np.repeat(np.arange(len(texts)), lengths)


def _script_shares(cps, row, n_texts: int):
    """(texts x INDIC_SCRIPTS) fraction of each text's letters in each
    script: the count divided by the number of letters, 0 without letters."""
    tags = _TAGS[cps]
    if not tags.all():
        for cp in set(cps[tags == 0].tolist()):
            _TAGS[cp] = _tag(chr(cp))
        tags = _TAGS[cps]
    counts = np.bincount(row * _N_TAGS + tags, minlength=n_texts * _N_TAGS)
    counts = counts.reshape(n_texts, _N_TAGS)
    letters = counts[:, _OTHER_LETTER:].sum(axis=1)
    return counts[:, _FIRST_SCRIPT:] / np.maximum(letters, 1)[:, None]


def script_fraction(text: str) -> dict[str, float]:
    """Fraction of the text's letters in each known Indic script block."""
    cps, _, row = _code_points([text])
    shares = _script_shares(cps, row, 1)[0].tolist()
    return {s.name: share for s, share in zip(textprep.INDIC_SCRIPTS, shares)}


def _pack(cps, n: int):
    """Key of the n-gram starting at each position of ``cps`` that has n
    code points left: the code points' bits side by side, first one highest."""
    key = cps[: max(len(cps) - n + 1, 0)]
    for j in range(1, n):
        key = (key << _CP_BITS) | cps[j : j + len(key)]
    return key


def detect(texts, profiles, script_threshold: float = 0.5) -> list[str | None]:
    """Detected language code of each text, or None where there is no
    evidence.

    The script shortcut decides first: the language of the first Indic
    script holding at least ``script_threshold`` of a text's letters. A
    non-empty text it leaves undecided gets the language of the profile with
    the highest mean log-probability over the text's n-grams (the whole text
    is its one gram when shorter than n), ties to the smaller code; of two
    profiles with one code the later counts. Without profiles, or for an
    empty text, only the shortcut can decide.

    The texts go ``_DETECT_BLOCK`` at a time through array passes; each
    text's log-probabilities are added one after another from 0.0 in gram
    order, so the scores are the same on every Python.
    """
    by_lang = {profile.lang: profile for profile in profiles}
    ranked = [by_lang[lang] for lang in sorted(by_lang)]
    texts, out = iter(texts), []
    while block := list(islice(texts, _DETECT_BLOCK)):
        out += _detect_block(block, ranked, script_threshold)
    return out


_SCRIPT_LANGS = [script.lang for script in textprep.INDIC_SCRIPTS]


def _detect_block(texts: list[str], ranked, threshold: float) -> list[str | None]:
    cps, lengths, row = _code_points(texts)
    shares = _script_shares(cps, row, len(texts))
    hit = (shares >= threshold) & (shares > 0)
    decided = hit.any(axis=1)
    langs = [_SCRIPT_LANGS[i] if d else None
             for i, d in zip(hit.argmax(axis=1).tolist(), decided.tolist())]
    scored = ~decided & (lengths > 0)
    if ranked and scored.any():
        scores = _scores(cps[scored[row]], lengths[scored], ranked)
        # The first best profile in ``ranked``: ties go to the smaller code.
        best = (scores == scores.max(axis=0)).argmax(axis=0)
        for i, b in zip(np.flatnonzero(scored).tolist(), best.tolist()):
            langs[i] = ranked[b].lang
    return langs


def _scores(cps, lengths, ranked):
    """(profiles x texts) score of each non-empty text under each profile
    of ``ranked``: the mean log-probability of its n-grams."""
    row = np.repeat(np.arange(len(lengths)), lengths)
    start = np.cumsum(lengths) - lengths
    scores = np.empty((len(ranked), len(lengths)))
    grams = {}  # n -> (key of each gram lying within one text, its text)
    for i, profile in enumerate(ranked):
        n = profile.n
        if n not in grams:
            gram = _pack(cps, n)
            of = row[: len(gram)]
            inside = np.arange(len(gram)) - start[of] <= lengths[of] - n
            grams[n] = gram[inside], of[inside]
        gram, of = grams[n]
        keys, logprob = profile.packed
        at = np.searchsorted(keys, gram)
        at[keys[at] != gram] = len(keys) - 1  # not in the profile: unseen
        total = np.bincount(of, weights=logprob[at], minlength=len(lengths))
        count = lengths - n + 1
        scores[i] = np.where(count > 0, total / np.maximum(count, 1),
                             profile.unseen_logprob)
    return scores


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
    english = DatasetLang.ENGLISH.code
    if dataset_lang == DatasetLang.ENGLISH:
        return "InLanguage" if lang == english else "NotLanguage"
    return "NotLanguage" if lang in (english, "hi") else "InLanguage"


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


def _logprob(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"log-probability {text!r} is not finite")
    return value


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
        unseen = _logprob(meta["unseen"])
        if not 1 <= n <= 3:
            raise ValueError(f"n must be in 1..3, got {n}")
        logprob = {}
        for line_no, line in lines:
            safe, value = line.split("\t")
            gram = _unescape(safe)
            if len(gram) != n:
                raise ValueError(f"gram {gram!r} has {len(gram)} characters, not n={n}")
            logprob[gram] = _logprob(value)
        line_no += 1
        if len(logprob) != count:
            raise ValueError(f"{len(logprob)} grams, the header says {count}")
    except ValueError as e:
        raise MalformedFile(path, line_no, e) from None
    return LanguageProfile(lang=meta["lang"], n=n, logprob=logprob,
                           smoothing_alpha=alpha, unseen_logprob=unseen)
