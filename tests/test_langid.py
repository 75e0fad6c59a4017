import math

import pytest

from hopedetect import langid
from hopedetect.corpus import DatasetLang
from hopedetect.errors import EmptyCorpus, EmptyText, NoProfiles
from conftest import synthetic_sentences


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
