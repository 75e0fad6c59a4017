import random
from functools import cache
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

FIXTURES = Path(__file__).parent / "fixtures"

# Known class counts of the bundled fixture files (Hope, NotHope, NotLanguage).
FIXTURE_COUNTS = {
    "en_train.tsv": (20, 30, 2),
    "en_test.tsv": (10, 14, 1),
    "ta_train.tsv": (10, 12, 1),
    "ml_train.tsv": (10, 12, 1),
}

_EN_WORDS = (
    "the of and to in is you that it he was for on are as with his they at be "
    "this have from or one had by word but not what all were we when your can "
    "said there use an each which she do how their if will up other about out "
    "many then them these so some her would make like him into time has look "
    "two more write go see number no way could people my than first water been "
    "called who oil sit now find long down day did get come made may part over"
).split()

_SYLLABLE_CHARS = {
    "hi": "कखगघचछजझटठडढतथदधनपफबभमयरलवशषसह",
    "ta": "கஙசஞடணதநபமயரலவழளறன",
    "ml": "കഖഗഘചഛജഝടഠഡഢതഥദധനപഫബഭമയരലവശഷസഹ",
}
_VOWEL_SIGNS = {
    "hi": ["", "ा", "ि", "ी", "ु", "ू", "े", "ो"],
    "ta": ["", "ா", "ி", "ீ", "ு", "ூ", "ெ", "ோ"],
    "ml": ["", "ാ", "ി", "ീ", "ു", "ൂ", "െ", "ോ"],
}


def _indic_word(rng, lang):
    return "".join(
        rng.choice(_SYLLABLE_CHARS[lang]) + rng.choice(_VOWEL_SIGNS[lang])
        for _ in range(rng.randint(2, 4))
    )


def synthetic_sentences(lang: str, n: int, seed: int, holdout: bool = False):
    """n sentences in the given language; holdout uses a disjoint word pool."""
    rng = random.Random(f"{seed}-{lang}-{holdout}")
    if lang == "en":
        half = len(_EN_WORDS) // 2
        pool = _EN_WORDS[half:] if holdout else _EN_WORDS[:half]
    else:
        pool_rng = random.Random(f"{seed}-{lang}-pool-{holdout}")
        pool = [_indic_word(pool_rng, lang) for _ in range(60)]
    return [
        " ".join(rng.choice(pool) for _ in range(rng.randint(4, 10)))
        for _ in range(n)
    ]


def csr_from_dense(A):
    """CsrMatrix holding the non-zero entries of a dense 2-D array."""
    from hopedetect.features import CsrMatrix

    rows, cols = np.nonzero(A)
    indptr = np.searchsorted(rows, np.arange(A.shape[0] + 1))
    return CsrMatrix(A[rows, cols], cols, indptr, A.shape[1])


@cache
def all_scalar_values() -> str:
    """Every Unicode scalar value (all code points but the surrogates), in order."""
    return "".join(map(chr, chain(range(0xD800), range(0xE000, 0x110000))))


# Text mixing the scripts and symbols the text stages decide on: Latin,
# Latin-1 and Extended-A letters, the Indic blocks and their neighbours,
# digits, dingbats (with the dingbat digits), emoji, ZWJ and variation
# selectors, punctuation and whitespace, plus any other character.
mixed_script_text = st.text(alphabet=st.one_of(
    st.sampled_from("aZé@#!.,_- \t\n0123456789\u200d\ufe0f\u2776\u2700\U0001F642"),
    st.characters(min_codepoint=0x0041, max_codepoint=0x024F),
    st.characters(min_codepoint=0x08F0, max_codepoint=0x0D8F),
    st.characters(min_codepoint=0x2700, max_codepoint=0x27BF),
    st.characters(min_codepoint=0x1F300, max_codepoint=0x1F9FF),
    st.characters(),
), max_size=60)


@pytest.fixture(scope="session")
def trained_profiles():
    from hopedetect import langid

    return [
        langid.train_profile(synthetic_sentences(lang, 200, seed=11), lang)
        for lang in ("en", "hi", "ta", "ml")
    ]
