from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopedetect import corpus
from hopedetect.corpus import DatasetLang, Label
from hopedetect.errors import (
    BadFraction,
    EmptyFile,
    MalformedRow,
    TooFewRows,
    UnknownLabel,
)
from conftest import FIXTURES, FIXTURE_COUNTS


def _write(tmp_path, content, name="data.tsv"):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return path


class TestLoadTsv:
    def test_not_language_row(self, tmp_path):
        path = _write(tmp_path, "Fox News is pure Garbage!\tnot-English\n")
        rows = corpus.load_tsv(path)
        assert rows[0].label is Label.NOT_LANGUAGE
        assert rows[0].text == "Fox News is pure Garbage!"

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyFile):
            corpus.load_tsv(_write(tmp_path, ""))

    def test_three_rows_keep_order(self, tmp_path):
        content = "a\tHope_speech\nb\tNon_hope_speech\nc\tnot-English\n"
        rows = corpus.load_tsv(_write(tmp_path, content))
        assert [r.id for r in rows] == [0, 1, 2]
        assert [r.text for r in rows] == ["a", "b", "c"]

    def test_label_aliases_case_insensitive(self, tmp_path):
        content = "x\tHOPE_SPEECH\ny\tnot-in-intended-language\nz\tNot-Malayalam\n"
        rows = corpus.load_tsv(_write(tmp_path, content))
        assert [r.label for r in rows] == [
            Label.HOPE, Label.NOT_LANGUAGE, Label.NOT_LANGUAGE,
        ]

    def test_canonical_names_case_insensitive(self, tmp_path):
        content = "x\tHope\ny\tnothope\nz\tNOTLANGUAGE\n"
        rows = corpus.load_tsv(_write(tmp_path, content))
        assert [r.label for r in rows] == [Label.HOPE, Label.NOT_HOPE, Label.NOT_LANGUAGE]

    def test_every_dataset_alias_parses_as_not_language(self):
        # The alias run writes for a gated row reads back as NotLanguage.
        for lang in DatasetLang:
            assert corpus.parse_label(lang.not_alias) is Label.NOT_LANGUAGE

    def test_language_argument_is_refused(self, tmp_path):
        path = _write(tmp_path, "a\tHope_speech\n")
        with pytest.raises(TypeError):
            corpus.load_tsv(path, DatasetLang.ENGLISH)

    def test_unknown_label(self, tmp_path):
        with pytest.raises(UnknownLabel):
            corpus.load_tsv(_write(tmp_path, "x\tmaybe_hope\n"))

    def test_embedded_tab_rejected(self, tmp_path):
        with pytest.raises(MalformedRow):
            corpus.load_tsv(_write(tmp_path, "a\tb\tHope_speech\n"))

    def test_unlabeled_mode(self, tmp_path):
        rows = corpus.load_tsv(
            _write(tmp_path, "one\ntwo\n"), labeled=False
        )
        assert [r.label for r in rows] == [None, None]

    def test_non_utf8_byte_past_first_chunk_names_its_line(self, tmp_path):
        # A text-mode reader decodes 8 KB chunks, so the bad byte sits past
        # the first one.
        good = "a comment long enough to fill the first chunk\tHope_speech\n"
        n_good = 8192 // len(good) + 20
        path = tmp_path / "data.tsv"
        path.write_bytes((good * n_good).encode() + b"caf\xe9\tHope_speech\n")
        with pytest.raises(MalformedRow, match="not valid UTF-8") as err:
            corpus.load_tsv(path)
        assert err.value.line_no == n_good + 1

    def test_crlf(self, tmp_path):
        rows = corpus.load_tsv(
            _write(tmp_path, "a\tHope_speech\r\nb\tNon_hope_speech\r\n"))
        assert len(rows) == 2 and rows[1].text == "b"


class TestComputeStats:
    def test_fixture_counts(self):
        for name, (hope, nothope, notlang) in FIXTURE_COUNTS.items():
            stats = corpus.compute_stats(corpus.load_tsv(FIXTURES / name))
            assert stats.counts[Label.HOPE] == hope
            assert stats.counts[Label.NOT_HOPE] == nothope
            assert stats.counts[Label.NOT_LANGUAGE] == notlang
            assert stats.total == hope + nothope + notlang

    def test_english_train_distribution(self):
        # Published English training distribution: 1962/20778/22, total 22762,
        # hope-to-nothope ratio about 0.094.
        rows = []
        for label, count in [(Label.HOPE, 1962), (Label.NOT_HOPE, 20778),
                             (Label.NOT_LANGUAGE, 22)]:
            rows += [
                corpus.LabeledComment(len(rows) + i, "x", label)
                for i in range(count)
            ]
        stats = corpus.compute_stats(rows)
        assert stats.total == 22762
        assert stats.hope_to_nothope_ratio == Fraction(1962, 20778)
        assert abs(float(stats.hope_to_nothope_ratio) - 0.094) < 5e-4

    def test_ratio_absent_without_nothope(self):
        rows = [corpus.LabeledComment(0, "x", Label.HOPE)]
        stats = corpus.compute_stats(rows)
        assert stats.counts[Label.HOPE] == 1
        assert stats.hope_to_nothope_ratio is None

    def test_unlabeled_rejected(self):
        rows = [corpus.LabeledComment(0, "x", None)]
        with pytest.raises(corpus.UnlabeledInput):
            corpus.compute_stats(rows)


class TestMakeSplit:
    """``corpus.split_positions``, the split of every ensemble member."""

    def test_half_split_stable(self):
        a = corpus.split_positions(4, seed=7, fraction_train=0.5)
        b = corpus.split_positions(4, seed=7, fraction_train=0.5)
        assert len(a[0]) == 2 and len(a[1]) == 2
        assert a == b

    def test_different_seeds_differ(self):
        a = corpus.split_positions(100, seed=1, fraction_train=0.7)
        b = corpus.split_positions(100, seed=2, fraction_train=0.7)
        assert a != b

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 2])
    def test_bad_fraction(self, fraction):
        with pytest.raises(BadFraction):
            corpus.split_positions(4, 0, fraction)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            corpus.split_positions(1, 0, 0.5)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 200), seed=st.integers(0, 10_000),
           num=st.integers(1, 99))
    def test_partition_exhaustive_disjoint(self, n, seed, num):
        train, val = corpus.split_positions(n, seed, Fraction(num, 100))
        assert train == sorted(train) and val == sorted(val)
        assert set(train) | set(val) == set(range(n))
        assert not set(train) & set(val)
        assert train and val
