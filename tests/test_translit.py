import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopedetect import translit
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
        assert table.max_key_len == 2

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
    rng = random.Random(7)
    for _ in range(500):
        s = "".join(rng.choice("kgcjtdnpbmyrlvwzsha iue") for _ in range(20))
        i = 0
        while i < len(s):
            if script_of(s[i]) != "Latin":
                i += 1
                continue
            matched = None
            for length in range(table.max_key_len, 0, -1):
                if s[i : i + length] in table.entries:
                    matched = length
                    break
            if matched is None:
                i += 1
                continue
            # no longer key matches at this position
            for longer in range(matched + 1, table.max_key_len + 1):
                assert s[i : i + longer] not in table.entries
            i += matched


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=50))
def test_idempotence_property(s):
    table = bundled_scheme_table("ta")
    once = transliterate(s, table)
    assert transliterate(once, table) == once
