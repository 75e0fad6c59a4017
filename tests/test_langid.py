import math
from collections import Counter
from dataclasses import replace
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopedetect import langid, textprep
from hopedetect.corpus import DatasetLang
from hopedetect.errors import HopedetectError, MalformedFile
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
        with pytest.raises(HopedetectError, match="training corpus is empty"):
            langid.train_profile([], "en")


def _oracle_script_fraction(text: str) -> dict[str, float]:
    """script_fraction as one pass over the characters, as it was before the
    tag tables: the oracle for the block code."""
    letters = [c for c in text if c.isalpha()]
    counts = Counter(map(textprep.indic_script, letters))
    # No letters: every count is 0, and so is every fraction.
    return {s.name: counts[s] / max(len(letters), 1) for s in textprep.INDIC_SCRIPTS}


def _oracle_detect(text: str, profiles, script_threshold: float = 0.5):
    """(detected code or None, each code's score) of one comment, as the
    pipeline gated one comment at a time: the oracle for the column."""
    fractions = _oracle_script_fraction(text)
    for script in textprep.INDIC_SCRIPTS:
        share = fractions[script.name]
        if share >= script_threshold and share > 0:
            return script.lang, {}
    if not profiles or not text:
        return None, {}
    scores = _oracle_scores(text, profiles)
    best_score = max(scores.values())
    return min(lang for lang, s in scores.items() if s == best_score), scores


def _oracle_scores(text: str, profiles) -> dict[str, float]:
    """Each code's score of one non-empty comment, its grams'
    log-probabilities added one after another; of two profiles with one code
    the later counts."""
    scores = {}
    for profile in profiles:
        grams = [text[i : i + profile.n] for i in range(len(text) - profile.n + 1)] or [text]
        total = 0.0
        for g in grams:
            total += profile.logprob.get(g, profile.unseen_logprob)
        scores[profile.lang] = total / len(grams)
    return scores


def _assert_matches_oracle(texts, profiles, script_threshold: float = 0.5):
    got = langid.detect(texts, profiles, script_threshold)
    assert got == [_oracle_detect(text, profiles, script_threshold)[0] for text in texts]


@pytest.fixture(scope="module")
def mixed_order_profiles():
    # Mostly English text, so that every profile scores Latin text closely
    # and the winner depends on each profile's own n; the last "en" profile
    # shares its code with the first. Astral and Indic letters occur, so
    # some of their grams are found.
    extra = ["a𝒜b 𝒜𝒜 𝒜c", "கa நண்பா ab", "नमस्ते hope"]
    return [langid.train_profile(synthetic_sentences("en", 30, seed=seed) + extra[:seed],
                                 lang, n=n)
            for seed, (lang, n) in enumerate((("en", 1), ("hi", 2), ("ta", 3),
                                              ("ml", 2), ("en", 3)))]


# Latin, Tamil, Devanagari and Malayalam letters, an astral letter, an emoji
# and a space: mixed-script, shorter-than-n and empty comments all occur.
_comments = st.lists(st.text(alphabet="abcdeinorst கநणमന𝒜🙂", max_size=12), max_size=12)


class TestDetect:
    def test_script_shortcut_tamil(self, trained_profiles):
        assert langid.detect(["வணக்கம் நண்பா"], trained_profiles) == ["ta"]

    def test_script_shortcut_devanagari(self, trained_profiles):
        assert langid.detect(["नमस्ते दोस्त"], trained_profiles) == ["hi"]

    def test_english_sentence(self, trained_profiles):
        result = langid.detect(
            ["this is clearly an english sentence about hope"], trained_profiles
        )
        assert result == ["en"]

    @settings(max_examples=200, deadline=None)
    @given(texts=_comments, order=st.permutations(range(5)), k=st.integers(0, 5),
           block=st.integers(1, 4), threshold=st.sampled_from([0.5, 0.25, 1.0]))
    def test_mixed_orders_match_oracle(self, mixed_order_profiles, texts, order, k,
                                       block, threshold):
        # Profiles of different n each score their own n-grams, whichever
        # comes first; of the two "en" profiles the later counts. Small
        # blocks split the column.
        profiles = [mixed_order_profiles[i] for i in order[:k]]
        with mock.patch.object(langid, "_DETECT_BLOCK", block):
            _assert_matches_oracle(texts, profiles, threshold)

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(st.text(alphabet="abcdeinorst கநणमന𝒜🙂", min_size=1, max_size=40),
                          min_size=1, max_size=8),
           order=st.permutations(range(7)), k=st.integers(1, 7))
    def test_scores_are_the_oracle_sums(self, mixed_order_profiles, texts, order, k):
        # Bit for bit on every Python, each gram looked up once in the union
        # of the keys of its n. The profiles mix n = 1..3, two share the
        # code "en", of which the later counts, and the Tamil-only and
        # Devanagari-only ones share no gram with each other.
        pool = mixed_order_profiles + [
            langid.train_profile(["நண்பா கக"], "xt", n=2),
            langid.train_profile(["नमस्ते"], "xd", n=2)]
        profiles = [pool[i] for i in order[:k]]
        by_lang = {p.lang: p for p in profiles}
        ranked = [by_lang[lang] for lang in sorted(by_lang)]
        cps, lengths = textprep._code_points(texts)
        scores = langid._scores(cps, lengths, len(ranked), langid._lookup(ranked))
        for text, column in zip(texts, scores.T.tolist()):
            want = _oracle_scores(text, profiles)
            assert column == [want[profile.lang] for profile in ranked]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(mixed_script_text, max_size=8))
    def test_mixed_script_matches_oracle(self, trained_profiles, texts):
        _assert_matches_oracle(texts, trained_profiles)
        _assert_matches_oracle(texts, [])

    def test_column_longer_than_a_block(self, mixed_order_profiles):
        texts = [text[: i % 40] for i, text in enumerate(chain.from_iterable(
            synthetic_sentences(lang, 200, seed=5) for lang in ("en", "ta", "hi")))]
        assert len(texts) > 2 * langid._DETECT_BLOCK
        _assert_matches_oracle(texts, mixed_order_profiles)
        _assert_matches_oracle(texts, mixed_order_profiles[:1])

    def test_tie_goes_to_the_smaller_code(self):
        profile = langid.train_profile(["hope wins again"], "xx", n=2)
        twins = [replace(profile, lang=lang) for lang in ("zz", "aa", "mm")]
        assert langid.detect(["hope", "h", "qq"], twins) == ["aa"] * 3

    def test_scale_free(self, trained_profiles):
        text = "some words that could be anywhere"
        one, two = langid.detect([text, f"{text} {text}"], trained_profiles)
        assert one == two

    def test_no_profiles(self):
        # Only the script shortcut decides; no other evidence is no language.
        assert langid.detect(["hello", "வணக்கம்", ""], []) == [None, "ta", None]

    def test_empty_text(self, trained_profiles):
        assert langid.detect([""], trained_profiles) == [None]
        assert langid.detect([], trained_profiles) == []

    def test_mixed_below_threshold_uses_statistics(self, trained_profiles):
        # One Tamil letter among many Latin ones: shortcut must not fire.
        result = langid.detect(["க this is mostly english text here"], trained_profiles)
        assert result == ["en"]


class TestScriptFraction:
    def test_every_code_point_matches_oracle(self):
        # Eight code points at a time, next to a Tamil and a Latin letter, so
        # that a non-letter, a non-Indic letter and each script's letters
        # all shift the fractions differently; all of them in one column.
        text = all_scalar_values()
        chunks = [text[i : i + 8] + "கa" for i in range(0, len(text), 8)]
        cps, lengths = textprep._code_points(chunks)
        row = np.repeat(np.arange(len(chunks)), lengths)
        shares = langid._script_shares(cps, row, len(chunks)).tolist()
        names = [s.name for s in textprep.INDIC_SCRIPTS]
        for chunk, got in zip(chunks, shares):
            assert dict(zip(names, got)) == _oracle_script_fraction(chunk)

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

    @pytest.mark.parametrize("n", [0, 4, 7])
    def test_n_outside_1_to_3_names_the_header(self, tmp_path, n):
        # Grams are packed three code points to an integer at most.
        path = tmp_path / "xx.profile"
        langid.save_profile(langid.train_profile(["hope wins again"], "xx", n=2), path)
        path.write_text(path.read_text().replace("\tn=2\t", f"\tn={n}\t", 1))
        with pytest.raises(MalformedFile,
                           match=rf"xx\.profile: line 1: n must be in 1\.\.3, got {n}"):
            langid.load_profile(path)

    @pytest.mark.parametrize("gram,length", [("abcd", 4), ("a", 1), ("\\t", 1)])
    def test_gram_of_other_length_names_its_line(self, tmp_path, gram, length):
        # A gram's length counts its characters after unescaping.
        path = tmp_path / "xx.profile"
        langid.save_profile(langid.train_profile(["hope wins again"], "xx", n=2), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = f"{gram}\t-1.0\n"
        path.write_text("".join(lines))
        with pytest.raises(MalformedFile, match=rf"xx\.profile: line 4: gram .* has "
                                                rf"{length} characters, not n=2"):
            langid.load_profile(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("line_no", [1, 4])
    def test_non_finite_logprob_names_its_line(self, tmp_path, value, line_no):
        # The header's unseen= (line 1) or a gram's log-probability (line 4):
        # no comparison orders a score it enters.
        path = tmp_path / "xx.profile"
        profile = langid.train_profile(["hope wins again"], "xx", n=2)
        langid.save_profile(profile, path)
        lines = path.read_text().splitlines(keepends=True)
        if line_no == 1:
            lines[0] = lines[0].replace(f"unseen={profile.unseen_logprob!r}",
                                        f"unseen={value}")
        else:
            lines[3] = lines[3].split("\t")[0] + f"\t{value}\n"
        path.write_text("".join(lines))
        with pytest.raises(MalformedFile, match=rf"xx\.profile: line {line_no}: "
                                                rf"log-probability '{value}' is not finite"):
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
    langs = ("en", "hi", "ta", "ml")
    texts = [sent for lang in langs
             for sent in synthetic_sentences(lang, 100, seed=11, holdout=True)]
    gold = [lang for lang in langs for _ in range(100)]
    got = langid.detect(texts, trained_profiles)
    assert sum(map(str.__eq__, got, gold)) / len(gold) >= 0.95
