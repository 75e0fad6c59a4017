import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopedetect import translit
from hopedetect.errors import MalformedFile
from hopedetect.translit import (
    bundled_scheme_table,
    load_scheme_table,
    make_scheme_table,
    script_of,
    transliterate,
)


class TestScriptOf:
    @pytest.mark.parametrize("cp,expected", [
        ("க", "Tamil"), ("k", "Latin"), (" ", "Other"),
        ("മ", "Malayalam"), ("न", "Devanagari"), ("5", "Other"), ("é", "Latin"),
        # block edges
        ("\u08ff", "Other"), ("\u0900", "Devanagari"), ("\u097f", "Devanagari"),
        ("\u0980", "Other"), ("\u0b7f", "Other"), ("\u0b80", "Tamil"),
        ("\u0bff", "Tamil"), ("\u0c00", "Other"), ("\u0d00", "Malayalam"),
        ("\u0d7f", "Malayalam"), ("\u0d80", "Other"),
    ])
    def test_blocks(self, cp, expected):
        assert script_of(cp) == expected


class TestTransliterate:
    def test_longest_match_wins(self):
        table = make_scheme_table("ta", {"ka": "க", "k": "க்"})
        assert transliterate("ka", table) == "க"
        assert transliterate("k", table) == "க்"

    def test_native_passthrough(self):
        table = bundled_scheme_table("ta")
        text = "வணக்கம் நண்பா"
        assert transliterate(text, table) == text

    def test_empty(self):
        assert transliterate("", bundled_scheme_table("ta")) == ""

    def test_unmatched_latin_passthrough(self):
        table = make_scheme_table("ta", {"ka": "க"})
        assert transliterate("xkay", table) == "xகy"

    def test_digits_and_whitespace_pass(self):
        table = bundled_scheme_table("ml")
        out = transliterate("nalla 123  kalam", table)
        assert "123" in out and "  " in out

    def test_spec_file_round(self, tmp_path):
        path = tmp_path / "scheme.tsv"
        path.write_text("# comment\nka\tக\nk\tக்\n", encoding="utf-8")
        table = load_scheme_table(path, "ta")
        assert table.entries == {"ka": "க", "k": "க்"}
        assert max(map(len, table.entries)) == 2

    @pytest.mark.parametrize("line", ["abc", "a\tb\tc", "\tக"])
    def test_malformed_line_names_it(self, tmp_path, line):
        path = tmp_path / "scheme.tsv"
        path.write_text(f"# comment\nka\tக\n{line}\n", encoding="utf-8")
        with pytest.raises(MalformedFile, match=r"scheme\.tsv: line 3: ") as err:
            load_scheme_table(path, "ta")
        assert err.value.line_no == 3

    @pytest.mark.parametrize("content,line_no", [
        (b"# comment\n\n# another\n", None),
        (b"# comment\nka\t\xff\n", 2),
        (b"ka\t\xe0\xae\x95\n\xffa\tb\n", 2),
    ])
    def test_damaged_file_is_malformed(self, tmp_path, content, line_no):
        path = tmp_path / "scheme.tsv"
        path.write_bytes(content)
        with pytest.raises(MalformedFile) as err:
            load_scheme_table(path, "ta")
        assert err.value.line_no == line_no
        assert str(err.value).startswith(f"{path}: ")

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            make_scheme_table("ta", {})


def _mixed_strings(n, seed):
    rng = random.Random(seed)
    pools = [
        "abcdefghijklmnopqrstuvwxyz",
        "கஙசஞடணதநபமயரலவழளறன்ாிீுூ",
        "കഖഗചജഞടതദനപബമയരലവശസഹ്ാിീുൂ",
        " 0123456789.!@",
    ]
    out = []
    for _ in range(n):
        out.append("".join(
            rng.choice(rng.choice(pools)) for _ in range(rng.randint(0, 40))
        ))
    return out


@pytest.mark.parametrize("lang", ["ta", "ml"])
def test_idempotence_and_passthrough_bulk(lang):
    table = bundled_scheme_table(lang)
    target = {"ta": "Tamil", "ml": "Malayalam"}[lang]
    for s in _mixed_strings(2000, seed=42):
        once = transliterate(s, table)
        assert transliterate(once, table) == once
        # Chars that are neither Latin (consumed) nor target script (joined
        # by converted output) must pass through in order, byte-identically.
        other = lambda t: [c for c in t if script_of(c) not in ("Latin", target)]
        assert other(s) == other(once)
        # Input target-script chars survive as a subsequence of the output.
        tgt_in = [c for c in s if script_of(c) == target]
        it = iter(c for c in once if script_of(c) == target)
        assert all(c in it for c in tgt_in)


def test_greedy_replay():
    # Replay: at each consumed position, no longer key could have matched.
    table = bundled_scheme_table("ta")
    max_key_len = max(map(len, table.entries))
    rng = random.Random(7)
    for _ in range(500):
        s = "".join(rng.choice("kgcjtdnpbmyrlvwzsha iue") for _ in range(20))
        i = 0
        while i < len(s):
            if script_of(s[i]) != "Latin":
                i += 1
                continue
            matched = None
            for length in range(max_key_len, 0, -1):
                if s[i : i + length] in table.entries:
                    matched = length
                    break
            if matched is None:
                i += 1
                continue
            # no longer key matches at this position
            for longer in range(matched + 1, max_key_len + 1):
                assert s[i : i + longer] not in table.entries
            i += matched


def _oracle_transliterate(text: str, table) -> str:
    """transliterate as the greedy loop it was before the compiled pattern:
    the oracle for the pattern."""
    out: list[str] = []
    i = 0
    n = len(text)
    max_key_len = max(map(len, table.entries))
    while i < n:
        if script_of(text[i]) != "Latin":
            out.append(text[i])
            i += 1
            continue
        matched = False
        for length in range(min(max_key_len, n - i), 0, -1):
            candidate = text[i : i + length]
            if candidate in table.entries:
                out.append(table.entries[candidate])
                i += length
                matched = True
                break
        if not matched:
            out.append(text[i])
            i += 1
    return "".join(out)


# Key characters: Latin letters, regex metacharacters, a Tamil letter, a
# digit, a space and Latin-1/Extended-A letters (U+00C0-U+024F). A small
# alphabet gives keys that share prefixes.
_KEY_CHARS = st.one_of(st.sampled_from("abk.|\\()*+?[]{}^$ க7"),
                       st.characters(min_codepoint=0x00C0, max_codepoint=0x024F))
_TEXT = st.text(alphabet=st.one_of(_KEY_CHARS, st.sampled_from("cz\u0bbeമ\n")),
                max_size=40)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(alphabet=_KEY_CHARS, min_size=1, max_size=4),
                       st.text(alphabet="xyகம\\|", max_size=3),
                       min_size=1, max_size=12),
       _TEXT)
def test_custom_tables_match_oracle(entries, text):
    table = make_scheme_table("ta", entries)
    assert transliterate(text, table) == _oracle_transliterate(text, table)


@pytest.mark.parametrize("lang", ["ta", "ml"])
@settings(max_examples=300, deadline=None)
@given(text=st.one_of(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ .", max_size=60),
    st.text(max_size=40),
))
def test_bundled_tables_match_oracle(lang, text):
    table = bundled_scheme_table(lang)
    assert transliterate(text, table) == _oracle_transliterate(text, table)


@pytest.mark.parametrize("entries,text", [
    # Keys starting with a Tamil letter, a digit or a space are never tried.
    ({"கa": "X", "a": "Y", "7a": "Z", " a": "W"}, "கa 7a a"),
    ({"கa": "X"}, "கa"),
    # Overlapping prefixes: the longest key at each position wins.
    ({"a": "1", "ab": "2", "abc": "3", "bc": "4"}, "abcabxbcab"),
    # Regex metacharacters are literal.
    ({"a.": "1", "a|b": "2", "(a)": "3", "\\": "4", "a*": "5", "a+?": "6"},
     "axa.a|b(a)\\a*a+?aa"),
    ({"À": "1", "Àɏ": "2", "ɏa": "3"}, "ÀɏaÀɏÀ"),
])
def test_explicit_tables_match_oracle(entries, text):
    table = make_scheme_table("ta", entries)
    assert transliterate(text, table) == _oracle_transliterate(text, table)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=50))
def test_idempotence_property(s):
    table = bundled_scheme_table("ta")
    once = transliterate(s, table)
    assert transliterate(once, table) == once
