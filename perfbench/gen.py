"""Seeded, HopeEDI-shaped corpora and language profiles for the benchmark.

Everything here is a pure function of its arguments: the same seed gives
byte-identical files. The program under test only ever sees the files
written by ``write_inputs``.

Shape of a corpus:

- class counts follow the HopeEDI train mix of the dataset language, split
  exactly (largest remainder) so every seed has the same counts;
- words come from a per-seed pool drawn with Zipf weights, and comment
  lengths are lognormal;
- a labelled row draws some of its words from a small pool tied to its
  class, so the labels are learnable from the text;
- Tamil and Malayalam rows are native script or romanized, both mixed with
  English words. Their not-in-language rows are English or Hindi; those of
  the English corpus are Tamil or Hindi. Romanized rows are kept even though
  the current language gate drops them, so the defect shows in the gate
  counters;
- emoji, mentions and punctuation give the normalizer real work.
"""

from __future__ import annotations

import itertools
import math
import random
from pathlib import Path

from hopedetect import langid

# HopeEDI train counts (Hope, NotHope, NotLanguage) per dataset language.
HOPEEDI_TRAIN_COUNTS = {
    "en": (1962, 20778, 22),
    "ta": (6327, 7872, 1961),
    "ml": (1668, 6205, 691),
}
LABEL_ALIASES = {
    "en": ("Hope_speech", "Non_hope_speech", "not-English"),
    "ta": ("Hope_speech", "Non_hope_speech", "not-Tamil"),
    "ml": ("Hope_speech", "Non_hope_speech", "not-malayalam"),
}

# (romanization, native) pairs; a word is 1-4 consonant+vowel syllables.
_CONSONANTS = {
    "ta": [("k", "க"), ("ng", "ங"), ("ch", "ச"), ("nj", "ஞ"), ("d", "ட"),
           ("n", "ண"), ("th", "த"), ("n", "ந"), ("p", "ப"), ("m", "ம"),
           ("y", "ய"), ("r", "ர"), ("l", "ல"), ("v", "வ"), ("zh", "ழ"),
           ("l", "ள"), ("r", "ற"), ("n", "ன")],
    "ml": [("k", "ക"), ("kh", "ഖ"), ("g", "ഗ"), ("ch", "ച"), ("j", "ജ"),
           ("t", "ട"), ("d", "ഡ"), ("n", "ണ"), ("th", "ത"), ("d", "ദ"),
           ("n", "ന"), ("p", "പ"), ("b", "ബ"), ("m", "മ"), ("y", "യ"),
           ("r", "ര"), ("l", "ല"), ("v", "വ"), ("sh", "ശ"), ("s", "സ"),
           ("h", "ഹ"), ("l", "ള"), ("zh", "ഴ"), ("r", "റ")],
    "hi": [("k", "क"), ("kh", "ख"), ("g", "ग"), ("ch", "च"), ("j", "ज"),
           ("t", "ट"), ("d", "ड"), ("t", "त"), ("d", "द"), ("n", "न"),
           ("p", "प"), ("b", "ब"), ("m", "म"), ("y", "य"), ("r", "र"),
           ("l", "ल"), ("v", "व"), ("sh", "श"), ("s", "स"), ("h", "ह")],
}
_VOWELS = {
    "ta": [("a", ""), ("aa", "ா"), ("i", "ி"), ("ii", "ீ"), ("u", "ு"),
           ("uu", "ூ"), ("e", "ெ"), ("ee", "ே"), ("ai", "ை"), ("o", "ொ")],
    "ml": [("a", ""), ("aa", "ാ"), ("i", "ി"), ("ee", "ീ"), ("u", "ു"),
           ("oo", "ൂ"), ("e", "െ"), ("e", "േ"), ("ai", "ൈ"), ("o", "ൊ")],
    "hi": [("a", ""), ("aa", "ा"), ("i", "ि"), ("ee", "ी"), ("u", "ु"),
           ("oo", "ू"), ("e", "े"), ("o", "ो")],
}
_EN_ONSETS = ("b c d f g h j k l m n p r s t v w y st th ch sh br tr pl gr "
              "cl fr sp wh").split()
_EN_NUCLEI = "a e i o u ea ou ai oo ie".split()
_EN_CODAS = ["", "", "", "n", "r", "s", "t", "l", "m", "d", "ng", "ck", "nd"]

_EMOJI = ("\U0001F600 \U0001F602 \U0001F64F \U0001F525 \U0001F44D \U0001F496 "
          "\U0001F680 \U0001F914 ❤️ ✨ ✅ ✌️").split()
_PUNCT = ("!", "!!", "?", "...", ",", ".", "!!!", "??", ":)", "-", "#")

POOL_SIZE = 6000       # distinct words per language pool
ZIPF_S = 1.05          # Zipf exponent of the shared word distribution
SIGNAL_POOL = 30       # words tied to each class
SIGNAL_P = 0.25        # chance that a word of a labelled row is a class word
LEN_MU = math.log(11)  # lognormal comment length in words
LEN_SIGMA = 0.55
MIX_P = 0.15           # chance that a word of an Indic row is English
# Styles of in-language Tamil/Malayalam rows.
NATIVE_SHARE = 0.6     # the rest is romanized
# Languages of not-in-language rows, with their weights.
NOT_LANG_MIX = {"en": (("ta", 0.6), ("hi", 0.4)),
                "ta": (("en", 0.8), ("hi", 0.2)),
                "ml": (("en", 0.8), ("hi", 0.2))}
N_HANDLES = 300        # distinct @mentions per corpus


def class_counts(lang: str, n: int) -> list[int]:
    """Split n rows over the HopeEDI classes of ``lang`` by largest remainder."""
    shares = HOPEEDI_TRAIN_COUNTS[lang]
    total = sum(shares)
    exact = [n * s / total for s in shares]
    counts = [math.floor(e) for e in exact]
    by_remainder = sorted(range(3), key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    return counts


def _en_word(rng):
    return "".join(rng.choice(_EN_ONSETS) + rng.choice(_EN_NUCLEI)
                   for _ in range(rng.randint(1, 2))) + rng.choice(_EN_CODAS)


def _indic_word(rng, lang):
    """One word as a (romanized, native) pair."""
    roman, native = [], []
    for _ in range(rng.randint(1, 4)):
        cr, cn = rng.choice(_CONSONANTS[lang])
        vr, vn = rng.choice(_VOWELS[lang])
        roman.append(cr + vr)
        native.append(cn + vn)
    return "".join(roman), "".join(native)


class _Lexicon:
    """Word pool of one language with Zipf weights and two class pools."""

    def __init__(self, lang: str, seed: int):
        rng = random.Random(f"{seed}-pool-{lang}")
        words: dict[str, str] = {}  # native (or English) spelling -> romanized
        while len(words) < POOL_SIZE + 2 * SIGNAL_POOL:
            if lang == "en":
                w = _en_word(rng)
                words.setdefault(w, w)
            else:
                roman, native = _indic_word(rng, lang)
                words.setdefault(native, roman)
        native = list(words)
        self.roman = words
        self.common = native[:POOL_SIZE]
        self.cum = list(itertools.accumulate(1.0 / (r + 1) ** ZIPF_S
                                             for r in range(POOL_SIZE)))
        self.signal = (native[POOL_SIZE:POOL_SIZE + SIGNAL_POOL],
                       native[POOL_SIZE + SIGNAL_POOL:])

    def words(self, rng, n, klass=None):
        out = rng.choices(self.common, cum_weights=self.cum, k=n)
        if klass is not None:
            pool = self.signal[klass]
            for i in range(n):
                if rng.random() < SIGNAL_P:
                    out[i] = pool[int(len(pool) * rng.random() ** 2)]
        return out


def _length(rng):
    return max(1, min(60, round(rng.lognormvariate(LEN_MU, LEN_SIGMA))))


def _decorate(rng, words, handles):
    """Sprinkle emoji, mentions and punctuation between the words."""
    out = []
    if rng.random() < 0.25:
        out.append("@" + rng.choice(handles))
    for w in words:
        if rng.random() < 0.08:
            w = w.capitalize() if w.isascii() else w
        out.append(w)
        r = rng.random()
        if r < 0.10:
            out[-1] += rng.choice(_PUNCT)
        elif r < 0.16:
            out.append(rng.choice(_EMOJI))
    if rng.random() < 0.4:
        out.append(rng.choice(_EMOJI) * rng.randint(1, 3))
    return " ".join(out)


class Generator:
    """Rows of one dataset language, drawn from one seed."""

    def __init__(self, lang: str, seed: int):
        self.lang = lang
        self.seed = seed
        self.lex = {code: _Lexicon(code, seed) for code in ("en", "ta", "ml", "hi")}
        hrng = random.Random(f"{seed}-handles")
        self.handles = [f"{_en_word(hrng)}{hrng.randint(1, 999)}"
                        for _ in range(N_HANDLES)]

    def comment(self, rng, klass: int) -> str:
        """Text of one row of class 0 (Hope), 1 (NotHope) or 2 (NotLanguage)."""
        n = _length(rng)
        if klass == 2:
            codes, weights = zip(*NOT_LANG_MIX[self.lang])
            other = rng.choices(codes, weights)[0]
            words = self.lex[other].words(rng, n)
        elif self.lang == "en":
            words = self.lex["en"].words(rng, n, klass)
        else:
            lex = self.lex[self.lang]
            words = lex.words(rng, n, klass)
            if rng.random() >= NATIVE_SHARE:
                words = [lex.roman[w] for w in words]
            english = self.lex["en"].words(rng, n)
            words = [e if rng.random() < MIX_P else w
                     for w, e in zip(words, english)]
        return _decorate(rng, words, self.handles)

    def rows(self, split: str, n: int) -> list[tuple[str, int]]:
        rng = random.Random(f"{self.seed}-{self.lang}-{split}")
        klasses = [k for k, c in enumerate(class_counts(self.lang, n))
                   for _ in range(c)]
        rng.shuffle(klasses)
        return [(self.comment(rng, k), k) for k in klasses]


def profile_sentences(lang: str, n: int, seed: int) -> list[str]:
    """Plain sentences for training the ``lang`` language-ID profile."""
    lex = _Lexicon(lang, seed)
    rng = random.Random(f"{seed}-profile-{lang}")
    return [" ".join(lex.words(rng, _length(rng))) for _ in range(n)]


def write_inputs(out_dir, lang: str, n_train: int, n_test: int, seed: int,
                 profile_langs=(), profile_rows: int = 300) -> dict[str, Path]:
    """Write train.tsv, test.tsv (both labelled) and any profiles.

    Returns the written paths by role: ``train``, ``test`` and
    ``profile.<code>``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    gen = Generator(lang, seed)
    aliases = LABEL_ALIASES[lang]
    paths = {}
    for split, n in (("train", n_train), ("test", n_test)):
        path = out_dir / f"{split}.tsv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for text, klass in gen.rows(split, n):
                fh.write(f"{text}\t{aliases[klass]}\n")
        paths[split] = path
    for code in profile_langs:
        profile = langid.train_profile(
            profile_sentences(code, profile_rows, seed), code)
        path = out_dir / f"{code}.profile"
        langid.save_profile(profile, path)
        paths[f"profile.{code}"] = path
    return paths
