from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopedetect import textprep
from hopedetect.textprep import _is_special, is_emoji, normalize_text
from conftest import all_scalar_values, mixed_script_text


def test_garbage_sentence():
    assert normalize_text(["Fox News is pure Garbage!"]) == ["fox news is pure garbage"]


def test_empty():
    assert normalize_text([""]) == [""]
    assert normalize_text([]) == []


def test_mention_emoji_whitespace():
    assert normalize_text(["Hope\t\t@user \U0001F642  WINS"]) == ["hope user wins"]


def test_is_emoji():
    assert is_emoji("\U0001F600")
    assert not is_emoji("A")
    assert not is_emoji("க")  # Tamil KA


def test_native_script_untouched():
    text = "வணக்கம் நண்பா #hope"
    assert normalize_text([text]) == ["வணக்கம் நண்பா hope"]


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=80))
def test_idempotent(s):
    once = normalize_text([s])
    assert normalize_text(once) == once


_INDIC = st.characters(min_codepoint=0x0B80, max_codepoint=0x0D7F)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.one_of(st.characters(max_codepoint=0x2FFF), _INDIC),
               max_size=60))
def test_script_preserved_and_clean(s):
    [out] = normalize_text([s])
    in_indic = Counter(c for c in s if 0x0B80 <= ord(c) <= 0x0D7F and c.isalpha())
    out_indic = Counter(c for c in out if 0x0B80 <= ord(c) <= 0x0D7F and c.isalpha())
    assert in_indic == out_indic
    assert "  " not in out
    assert "@" not in out and "#" not in out
    assert out == out.strip()


def _oracle_char_passes(raw: str) -> str:
    """The specials pass, then the emoji pass, each one pass over the
    characters, as they were before the tag table: the oracle for the
    table."""
    out = "".join(c if not _is_special(c) else " " for c in raw)
    return "".join(c for c in out if not is_emoji(c))


def _oracle_normalize_text(raw: str) -> str:
    return " ".join(_oracle_char_passes(raw).lower().split())


def test_every_code_point_matches_oracle():
    # The table alone, before lowercasing and whitespace collapsing: each
    # character's own outcome (kept, space or deleted) shows in the output.
    # A table of its own, so that the shared one still fills as text comes.
    text = all_scalar_values()
    want = _oracle_char_passes(text)
    table = textprep.CodePointTable(textprep._char_rule)
    with mock.patch.object(textprep, "_CHAR_TAGS", table):
        assert textprep._char_passes([text]) == (want, [len(want)])


@pytest.mark.parametrize("c,want", [
    # Dingbat digit one: a digit, which the specials pass keeps, and in
    # Dingbats, so the emoji pass deletes it.
    ("\u2776", "ab"),
    ("\u200d", "a b"),  # zero width joiner: a special, so a space
    ("\ufe0f", "a b"),  # variation selector 16: a special, so a space
], ids=["U+2776", "U+200D", "U+FE0F"])
def test_explicit_code_points(c, want):
    [got] = normalize_text([f"A{c}B"])
    assert got == want == _oracle_normalize_text(f"A{c}B")


def test_lowercase_after_specials():
    # U+0130 is a letter, which the specials pass keeps; lowercasing it adds
    # U+0307, a combining mark the specials pass would turn into a space.
    assert normalize_text(["\u0130"]) == ["i\u0307"] == [_oracle_normalize_text("\u0130")]


@settings(max_examples=300, deadline=None)
@given(mixed_script_text)
def test_mixed_script_matches_oracle(s):
    assert normalize_text([s]) == [_oracle_normalize_text(s)]


# Comments whose outcome depends on where they sit in a column: empty ones;
# U+0130 and a final sigma, whose lowercase depends on the comment alone;
# emoji with ZWJ, skin tone and variation selectors; dingbat digits, the
# characters the emoji pass deletes, first and last; Tamil, Malayalam and
# Devanagari vowel signs and viramas; a vulgar fraction (a digit-like
# symbol), an underscore, and astral letters.
_COLUMN_CASES = ["", "\u0130", "ΟΔΟΣ", "ΑΣ b", "\U0001F468\u200d\U0001F469\u200d\U0001F467",
                 "\u2764\ufe0f", "\U0001F44D\U0001F3FD!", "\u2776b", "a\u2777", "\u2778",
                 "க்ஷ நண்பா", "ന്റെ", "नमस्ते", "½", "_", "a_b", "\U0001D49C\U0001D505 x", " \t "]
_column_comment = st.one_of(st.sampled_from(_COLUMN_CASES),
                            st.text(alphabet=st.one_of(st.sampled_from("".join(_COLUMN_CASES)),
                                                       st.characters()), max_size=10))


@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from([0, 1, 127, 128, 129, 300]),
       pool=st.lists(_column_comment, min_size=1, max_size=30))
def test_column_matches_oracle(n, pool):
    # Columns up to and past the block size, the drawn comments repeated to
    # fill them: each comment comes out as it does alone, in its own place.
    texts = [pool[i % len(pool)] for i in range(n)]
    assert normalize_text(texts) == [_oracle_normalize_text(t) for t in texts]
