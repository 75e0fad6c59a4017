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
script, and each n-gram, packed into one integer key, is looked up once in
the sorted union of the profiles' keys, which indexes a table of every
profile's log-probabilities.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import textprep
from .corpus import DatasetLang, Label, finite_numbers, header_fields, utf8_lines
from .errors import ConfigError, HopedetectError, MalformedFile

PROFILE_VERSION = "langprofile-v1"


@dataclass(frozen=True)
class LanguageProfile:
    lang: str
    n: int
    logprob: dict[str, float]
    smoothing_alpha: float
    unseen_logprob: float  # mass for n-grams never observed in training


def _char_ngrams(text: str, n: int) -> list[str]:
    return [text[i : i + n] for i in range(len(text) - n + 1)]


def check_profile_settings(n: int, alpha: float) -> None:
    if not 1 <= n <= 3:
        raise ConfigError(f"n must be in 1..3, got {n}")
    if not 0 < alpha < math.inf:
        raise ConfigError(f"alpha must be > 0, got {alpha}")


def train_profile(corpus, lang: str, n: int = 3, alpha: float = 0.5) -> LanguageProfile:
    """Count character n-grams over the corpus and smooth with add-alpha."""
    check_profile_settings(n, alpha)
    if not corpus:
        raise HopedetectError("training corpus is empty")
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

# Tag of each code point for the script count: _NOT_LETTER, _OTHER_LETTER
# (a letter of no Indic block), or _FIRST_SCRIPT + i for a letter of
# INDIC_SCRIPTS[i].
_NOT_LETTER, _OTHER_LETTER, _FIRST_SCRIPT = 1, 2, 3
_N_TAGS = _FIRST_SCRIPT + len(textprep.INDIC_SCRIPTS)
_SCRIPT_TAG = {script: _FIRST_SCRIPT + i for i, script in enumerate(textprep.INDIC_SCRIPTS)}


def _tag(c: str) -> int:
    if not c.isalpha():
        return _NOT_LETTER
    script = textprep.indic_script(c)
    return _SCRIPT_TAG[script] if script else _OTHER_LETTER


_SCRIPT_TAGS = textprep.CodePointTable(_tag)


def _script_shares(cps, row, n_texts: int):
    """(texts x INDIC_SCRIPTS) fraction of each text's letters in each
    script: the count divided by the number of letters, 0 without letters."""
    tags = _SCRIPT_TAGS[cps]
    counts = np.bincount(row * _N_TAGS + tags, minlength=n_texts * _N_TAGS)
    counts = counts.reshape(n_texts, _N_TAGS)
    letters = counts[:, _OTHER_LETTER:].sum(axis=1)
    return counts[:, _FIRST_SCRIPT:] / np.maximum(letters, 1)[:, None]


def script_fraction(text: str) -> dict[str, float]:
    """Fraction of the text's letters in each known Indic script block."""
    cps, _ = textprep._code_points([text])
    row = np.zeros(len(cps), np.intp)
    shares = _script_shares(cps, row, 1)[0].tolist()
    return {s.name: share for s, share in zip(textprep.INDIC_SCRIPTS, shares)}


def _pack(cps, n: int):
    """Key of the n-gram starting at each position of ``cps`` that has n
    code points left: the code points' bits side by side, first one highest."""
    key = cps[: max(len(cps) - n + 1, 0)].astype(np.int64)
    for j in range(1, n):
        key = (key << _CP_BITS) | cps[j : j + len(key)]
    return key


def check_script_threshold(threshold: float) -> None:
    if not 0 < threshold <= 1:
        raise ConfigError(f"script threshold out of range: {threshold}")


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
    lookup = _lookup(ranked)
    texts, out = iter(texts), []
    while block := list(islice(texts, _DETECT_BLOCK)):
        out += _detect_block(block, ranked, lookup, script_threshold)
    return out


def _lookup(ranked: list[LanguageProfile]) -> dict:
    """n -> (positions in ``ranked`` of the profiles of that n, the sorted
    union of their packed gram keys ended by _NO_GRAM, so that a key's
    ``np.searchsorted`` position is always in range, and the (profiles x
    keys) table of each one's log-probability of each key: its unseen
    log-probability where it lacks the gram, and at _NO_GRAM)."""
    lookup = {}
    for n in sorted({profile.n for profile in ranked}):
        ranks = [i for i, profile in enumerate(ranked) if profile.n == n]
        # Every gram of a profile has n code points.
        packed = [_pack(textprep._code_points(list(ranked[i].logprob))[0], n)[::n]
                  for i in ranks]
        keys = np.sort(np.concatenate([*packed, [_NO_GRAM]]))
        # np.unique would import numpy.ma, which costs 1.7 MB of RSS.
        keys = keys[np.append(True, keys[1:] != keys[:-1])]
        logprob = np.empty((len(ranks), len(keys)))
        for row, i, own in zip(logprob, ranks, packed):
            row[:] = ranked[i].unseen_logprob
            row[np.searchsorted(keys, own)] = np.fromiter(
                ranked[i].logprob.values(), np.float64, len(own))
        lookup[n] = ranks, keys, logprob
    return lookup


_SCRIPT_LANGS = [script.lang for script in textprep.INDIC_SCRIPTS]


def _detect_block(texts: list[str], ranked, lookup,
                  threshold: float) -> list[str | None]:
    cps, lengths = textprep._code_points(texts)
    row = np.repeat(np.arange(len(texts)), lengths)
    shares = _script_shares(cps, row, len(texts))
    hit = (shares >= threshold) & (shares > 0)
    decided = hit.any(axis=1)
    langs = [_SCRIPT_LANGS[i] if d else None
             for i, d in zip(hit.argmax(axis=1).tolist(), decided.tolist())]
    scored = ~decided & (lengths > 0)
    if ranked and scored.any():
        scores = _scores(cps[scored[row]], lengths[scored], len(ranked), lookup)
        # The first best profile in ``ranked``: ties go to the smaller code.
        best = (scores == scores.max(axis=0)).argmax(axis=0)
        for i, b in zip(np.flatnonzero(scored).tolist(), best.tolist()):
            langs[i] = ranked[b].lang
    return langs


def _scores(cps, lengths, n_ranked: int, lookup):
    """(profiles x texts) score of each non-empty text under each of the
    ``n_ranked`` profiles of ``lookup``: the mean log-probability of its
    n-grams. Each gram is looked up once, in its n's union of keys."""
    row = np.repeat(np.arange(len(lengths)), lengths)
    start = np.cumsum(lengths) - lengths
    scores = np.empty((n_ranked, len(lengths)))
    for n, (ranks, keys, logprob) in lookup.items():
        gram = _pack(cps, n)
        of = row[: len(gram)]
        inside = np.arange(len(gram)) - start[of] <= lengths[of] - n
        gram, of = gram[inside], of[inside]
        # Searched in sorted order, where neighbouring binary searches take
        # the same branches: twice as fast as in gram order.
        order = np.argsort(gram)
        at = np.empty_like(order)
        at[order] = np.searchsorted(keys, gram[order])
        at[keys[at] != gram] = len(keys) - 1  # in no profile: unseen
        count = lengths - n + 1
        for i, own in zip(ranks, logprob):
            total = np.bincount(of, weights=own[at], minlength=len(lengths))
            scores[i] = np.where(count > 0, total / np.maximum(count, 1), own[-1])
    return scores


def assign_language_class(lang: str | None, dataset_lang: DatasetLang) -> Label | None:
    """The gate's label of a text: NotLanguage, or None when the text goes
    to the vote.

    ``lang`` is the detected language code, or None when there is no
    evidence; None is never flagged. Tamil/Malayalam datasets: only English
    or Hindi detections are flagged; everything else is assumed to belong to
    the dataset language. English: anything detected as another language is
    flagged.
    """
    if dataset_lang == DatasetLang.ENGLISH:
        flagged = lang not in (DatasetLang.ENGLISH.code, None)
    else:
        flagged = lang in (DatasetLang.ENGLISH.code, "hi")
    return Label.NOT_LANGUAGE if flagged else None


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
    """Read a file written by ``save_profile``. A damaged file, or settings
    that ``check_profile_settings`` refuses, raise MalformedFile at the line."""
    lines = utf8_lines(path)
    line_no, header = next(lines, (1, ""))
    try:
        meta = header_fields(header, PROFILE_VERSION, ("lang", "n", "alpha", "count", "unseen"))
        n, count = int(meta["n"]), int(meta["count"])
        alpha, unseen = finite_numbers([meta["alpha"], meta["unseen"]])
        check_profile_settings(n, alpha)
        grams, values = [], []
        for line_no, line in lines:
            safe, value = line.split("\t")
            grams.append(gram := _unescape(safe))
            values.append(value)
            if len(gram) != n:
                raise ValueError(f"gram {gram!r} has {len(gram)} characters, not n={n}")
        try:
            logprob = dict(zip(grams, finite_numbers(values)))
        except ValueError:
            # Read again one line at a time, to name the first one at fault.
            for line_no, value in enumerate(values, start=2):
                finite_numbers([value])
        line_no += 1
        if len(logprob) != count:
            raise ValueError(f"{len(logprob)} grams, the header says {count}")
    except (ValueError, ConfigError) as e:
        raise MalformedFile(path, line_no, e) from None
    return LanguageProfile(lang=meta["lang"], n=n, logprob=logprob,
                           smoothing_alpha=alpha, unseen_logprob=unseen)
