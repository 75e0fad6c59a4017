from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopedetect import textprep
from hopedetect.textprep import (
    NormalizationConfig,
    _is_special,
    is_emoji,
    normalize_text,
)
from conftest import all_scalar_values, mixed_script_text


def test_garbage_sentence():
    assert normalize_text("Fox News is pure Garbage!") == "fox news is pure garbage"


def test_empty():
    assert normalize_text("") == ""


def test_mention_emoji_whitespace():
    assert normalize_text("Hope\t\t@user \U0001F642  WINS") == "hope user wins"


def test_is_emoji():
    assert is_emoji("\U0001F600")
    assert not is_emoji("A")
    assert not is_emoji("க")  # Tamil KA


def test_native_script_untouched():
    text = "வணக்கம் நண்பா #hope"
    assert normalize_text(text) == "வணக்கம் நண்பா hope"


def test_flags_can_be_disabled():
    cfg = NormalizationConfig(lowercase=False)
    assert normalize_text("Hi There!", cfg) == "Hi There"
    cfg = NormalizationConfig(strip_specials=False, collapse_whitespace=False)
    assert normalize_text("Hi!", cfg) == "hi!"


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=80))
def test_idempotent(s):
    once = normalize_text(s)
    assert normalize_text(once) == once


_INDIC = st.characters(min_codepoint=0x0B80, max_codepoint=0x0D7F)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.one_of(st.characters(max_codepoint=0x2FFF), _INDIC),
               max_size=60))
def test_script_preserved_and_clean(s):
    out = normalize_text(s)
    in_indic = Counter(c for c in s if 0x0B80 <= ord(c) <= 0x0D7F and c.isalpha())
    out_indic = Counter(c for c in out if 0x0B80 <= ord(c) <= 0x0D7F and c.isalpha())
    assert in_indic == out_indic
    assert "  " not in out
    assert "@" not in out and "#" not in out
    assert out == out.strip()


def _oracle_normalize_text(raw: str, cfg: NormalizationConfig = NormalizationConfig()) -> str:
    """normalize_text as one pass per rule over the characters, as it was
    before the translate table: the oracle for the table."""
    out = raw
    if cfg.strip_specials:
        out = "".join(c if not _is_special(c) else " " for c in out)
    if cfg.strip_emoji:
        out = "".join(c for c in out if not is_emoji(c))
    if cfg.lowercase:
        out = out.lower()
    if cfg.collapse_whitespace:
        out = " ".join(out.split())
    return out


_FLAG_PAIRS = [(s, e) for s in (False, True) for e in (False, True)]


@pytest.mark.parametrize("strip_specials,strip_emoji", _FLAG_PAIRS)
def test_every_code_point_matches_oracle(strip_specials, strip_emoji):
    # Lowercasing and whitespace collapsing off: each character's own
    # outcome (kept, space or deleted) shows in the output.
    cfg = NormalizationConfig(strip_specials=strip_specials, strip_emoji=strip_emoji,
                              lowercase=False, collapse_whitespace=False)
    text = all_scalar_values()
    try:
        assert normalize_text(text, cfg) == _oracle_normalize_text(text, cfg)
    finally:
        # Filled with every code point the table is large; start empty again.
        textprep._CHAR_TABLES[strip_specials, strip_emoji].clear()


@pytest.mark.parametrize("strip_specials,strip_emoji", _FLAG_PAIRS)
@pytest.mark.parametrize("c,kept_by_specials,emoji", [
    ("\u2776", True, True),   # dingbat digit one: a digit, and in Dingbats
    ("\u200d", False, True),  # zero width joiner
    ("\ufe0f", False, True),  # variation selector 16
])
def test_explicit_code_points(c, kept_by_specials, emoji, strip_specials, strip_emoji):
    cfg = NormalizationConfig(strip_specials=strip_specials, strip_emoji=strip_emoji)
    if strip_specials and not kept_by_specials:
        want = "a b"
    elif strip_emoji and emoji:
        want = "ab"
    else:
        want = f"a{c}b"
    got = normalize_text(f"A{c}B", cfg)
    assert got == want == _oracle_normalize_text(f"A{c}B", cfg)


@settings(max_examples=300, deadline=None)
@given(mixed_script_text, st.booleans(), st.booleans(), st.booleans(), st.booleans())
def test_mixed_script_matches_oracle(s, specials, emoji, lowercase, collapse):
    cfg = NormalizationConfig(specials, emoji, lowercase, collapse)
    assert normalize_text(s, cfg) == _oracle_normalize_text(s, cfg)
