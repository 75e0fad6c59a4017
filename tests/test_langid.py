import math
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopedetect import langid, textprep
from hopedetect.corpus import DatasetLang
from hopedetect.errors import EmptyCorpus, EmptyText, MalformedFile, NoProfiles
from conftest import all_scalar_values, mixed_script_text, synthetic_sentences


class TestTrainProfile:
    def test_single_symbol_small_alpha(self):
        profile = langid.train_profile(["aa"], "en", n=1, alpha=1e-9)
        # P('a') -> 1 in the vanishing-alpha limit
        assert math.exp(profile.logprob["a"]) == pytest.approx(1.0, abs=1e-6)

    def test_add_one_smoothing_hand_computed(self):
        # "ab" unigrams: counts a=1 b=1; norm = 2 + 1*2 = 4; P = (1+1)/4
        profile = langid.train_profile(["ab"], "en", n=1, alpha=1.0)
        assert math.exp(profile.logprob["a"]) == pytest.approx(2 / 4)
        assert math.exp(profile.logprob["b"]) == pytest.approx(2 / 4)

    def test_order_free(self, tmp_path):
        a = langid.train_profile(["hello world", "hope wins"], "en")
        b = langid.train_profile(["hope wins", "hello world"], "en")
        pa, pb = tmp_path / "a", tmp_path / "b"
        langid.save_profile(a, pa)
        langid.save_profile(b, pb)
        assert pa.read_text() == pb.read_text()

    def test_probabilities_sum_to_one(self):
        profile = langid.train_profile(["abc def"], "en", n=2, alpha=0.5)
        total = sum(math.exp(v) for v in profile.logprob.values())
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            langid.train_profile([], "en")


def _oracle_detect(text: str, profiles, script_threshold: float = 0.5) -> str:
    """detect's scoring as it was before the gram lists were shared: the
    oracle for them."""
    lang = langid.script_language(text, script_threshold)
    if lang is not None:
        return lang
    scores: dict[str, float] = {}
    for profile in profiles:
        grams = [text[i : i + profile.n] for i in range(len(text) - profile.n + 1)] or [text]
        total = sum(profile.logprob.get(g, profile.unseen_logprob) for g in grams)
        scores[profile.lang] = total / len(grams)
    best_score = max(scores.values())
    return min(lang for lang, s in scores.items() if s == best_score)


@pytest.fixture(scope="module")
def mixed_order_profiles():
    # All trained on English text, so that every profile scores Latin text
    # closely and the winner depends on each profile's own n.
    return [langid.train_profile(synthetic_sentences("en", 30, seed=seed), lang, n=n)
            for seed, (lang, n) in enumerate((("en", 1), ("hi", 2), ("ta", 3), ("ml", 2)))]


class TestDetect:
    def test_script_shortcut_tamil(self, trained_profiles):
        assert langid.detect("வணக்கம் நண்பா", trained_profiles) == "ta"

    def test_script_shortcut_devanagari(self, trained_profiles):
        assert langid.detect("नमस्ते दोस्त", trained_profiles) == "hi"

    def test_english_sentence(self, trained_profiles):
        result = langid.detect(
            "this is clearly an english sentence about hope", trained_profiles
        )
        assert result == "en"

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz க", min_size=1, max_size=30))
    def test_mixed_orders_match_oracle(self, mixed_order_profiles, text):
        # Profiles of different n each score their own n-grams, whichever
        # profile comes first; each ordered pair shows one comparison.
        for profiles in [mixed_order_profiles, *permutations(mixed_order_profiles, 2)]:
            assert langid.detect(text, profiles) == _oracle_detect(text, profiles)

    def test_scale_free(self, trained_profiles):
        text = "some words that could be anywhere"
        one = langid.detect(text, trained_profiles)
        two = langid.detect(f"{text} {text}", trained_profiles)
        assert one == two

    def test_no_profiles(self):
        with pytest.raises(NoProfiles):
            langid.detect("hello", [])

    def test_empty_text(self, trained_profiles):
        with pytest.raises(EmptyText):
            langid.detect("", trained_profiles)

    def test_mixed_below_threshold_uses_statistics(self, trained_profiles):
        # One Tamil letter among many Latin ones: shortcut must not fire.
        result = langid.detect("க this is mostly english text here", trained_profiles)
        assert result == "en"


def _oracle_script_fraction(text: str) -> dict[str, float]:
    """script_fraction as one pass over the characters, as it was before the
    translate table: the oracle for the table."""
    letters = [c for c in text if c.isalpha()]
    counts = Counter(map(textprep.indic_script, letters))
    # No letters: every count is 0, and so is every fraction.
    return {s.name: counts[s] / max(len(letters), 1) for s in textprep.INDIC_SCRIPTS}


class TestScriptFraction:
    def test_every_code_point_matches_oracle(self):
        # Eight code points at a time, next to a Tamil and a Latin letter, so
        # that a non-letter, a non-Indic letter and each script's letters
        # all shift the fractions differently.
        text = all_scalar_values()
        try:
            for i in range(0, len(text), 8):
                chunk = text[i : i + 8] + "கa"
                assert langid.script_fraction(chunk) == _oracle_script_fraction(chunk)
        finally:
            # Filled with every code point the table is large; start empty again.
            langid._SCRIPT_TAGS.clear()

    @pytest.mark.parametrize("text", ["", "123 !", "\u2776\u200d\ufe0f", "abc",
                                      "கக a", "नमस्ते", "മലയാളം தமிழ் hindi"])
    def test_explicit(self, text):
        assert langid.script_fraction(text) == _oracle_script_fraction(text)

    @settings(max_examples=300, deadline=None)
    @given(mixed_script_text)
    def test_mixed_script_matches_oracle(self, text):
        assert langid.script_fraction(text) == _oracle_script_fraction(text)


class TestAssignLanguageClass:
    @pytest.mark.parametrize("best,expected", [
        ("en", "NotLanguage"), ("hi", "NotLanguage"),
        ("ta", "InLanguage"), ("ml", "InLanguage"),
    ])
    def test_tamil_dataset(self, best, expected):
        assert langid.assign_language_class(best, DatasetLang.TAMIL) == expected

    def test_malayalam_dataset_other_lang_in_language(self):
        assert (
            langid.assign_language_class("ta", DatasetLang.MALAYALAM)
            == "InLanguage"
        )

    def test_english_dataset(self):
        assert langid.assign_language_class("en", DatasetLang.ENGLISH) == "InLanguage"
        assert langid.assign_language_class("hi", DatasetLang.ENGLISH) == "NotLanguage"
        assert langid.assign_language_class(None, DatasetLang.ENGLISH) == "InLanguage"

    def test_exhaustive_never_flags_other_codes(self):
        for code in ("ta", "ml", "fr", "de", "xx", None):
            for lang in (DatasetLang.TAMIL, DatasetLang.MALAYALAM):
                assert langid.assign_language_class(code, lang) == "InLanguage"


class TestProfileRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        profile = langid.train_profile(
            synthetic_sentences("en", 50, seed=3), "en", n=3, alpha=0.5
        )
        path = tmp_path / "en.profile"
        langid.save_profile(profile, path)
        loaded = langid.load_profile(path)
        assert loaded == profile

    @given(st.text(alphabet="ab\\\t\n\r", max_size=10))
    def test_escape_round_trip(self, gram):
        assert langid._unescape(langid._escape(gram)) == gram

    def test_round_trip_with_escaped_grams(self, tmp_path):
        profile = langid.train_profile(["a\\b\tc\nd\re\\\\t", "plain"], "xx", n=2)
        assert {"a\\", "\\b", "\tc", "\nd", "\re", "\\t"} <= set(profile.logprob)
        path = tmp_path / "xx.profile"
        langid.save_profile(profile, path)
        assert langid.load_profile(path) == profile

    @pytest.mark.parametrize("damage,line_no", [
        (lambda ls: [ls[0].replace("langprofile-v1", "langprofile-v0")] + ls[1:], 1),
        (lambda ls: [ls[0].replace("\tn=2", "\tn=two")] + ls[1:], 1),
        (lambda ls: ls[:2] + ["ab\n"] + ls[3:], 3),
        (lambda ls: ls[:2] + ["ab\t-1.0\textra\n"] + ls[3:], 3),
        (lambda ls: ls[:2] + ["a\\qb\t-1.0\n"] + ls[3:], 3),  # unknown escape
        (lambda ls: ls[:-1], None),  # fewer grams than the header's count
    ])
    def test_damaged_file_names_its_line(self, tmp_path, damage, line_no):
        path = tmp_path / "xx.profile"
        langid.save_profile(langid.train_profile(["hope wins again"], "xx", n=2), path)
        damaged = damage(path.read_text().splitlines(keepends=True))
        path.write_text("".join(damaged))
        line_no = len(damaged) + 1 if line_no is None else line_no
        with pytest.raises(MalformedFile, match=rf"xx\.profile: line {line_no}: "):
            langid.load_profile(path)

    @pytest.mark.parametrize("damage,line_no", [
        (lambda ls: ls + [b"\xff"], None),  # a line after the last gram
        (lambda ls: ls[:2] + [b"\xffb\t-1.0\n"] + ls[3:], 3),
    ])
    def test_non_utf8_byte_names_its_line(self, tmp_path, damage, line_no):
        path = tmp_path / "xx.profile"
        langid.save_profile(langid.train_profile(["hope wins again"], "xx", n=2), path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(damage(lines)))
        line_no = len(lines) + 1 if line_no is None else line_no
        with pytest.raises(MalformedFile,
                           match=rf"xx\.profile: line {line_no}: not valid UTF-8"):
            langid.load_profile(path)

    def test_round_trip_with_tab_and_newline_grams(self, tmp_path):
        profile = langid.train_profile(["a\tb\nc"], "xx", n=2, alpha=0.5)
        path = tmp_path / "xx.profile"
        langid.save_profile(profile, path)
        assert langid.load_profile(path) == profile


def test_held_out_accuracy(trained_profiles):
    correct = total = 0
    for lang in ("en", "hi", "ta", "ml"):
        for sent in synthetic_sentences(lang, 100, seed=11, holdout=True):
            total += 1
            if langid.detect(sent, trained_profiles) == lang:
                correct += 1
    assert correct / total >= 0.95
