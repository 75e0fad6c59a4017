import math
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopedetect import features
from hopedetect.errors import (
    DimensionMismatch,
    EmptyCorpus,
    EmptyVocabulary,
    MalformedFile,
    NonNumericValue,
    RowCountMismatch,
)
from conftest import csr_from_dense


class TestBuildVocab:
    def test_sorted_indices(self):
        vocab = features.build_vocab(["a b", "b c"], min_df=1)
        assert vocab.index == {"a": 0, "b": 1, "c": 2}
        assert vocab.doc_freq == {0: 1, 1: 2, 2: 1}

    def test_min_df_filters(self):
        vocab = features.build_vocab(["a b", "b c"], min_df=2)
        assert vocab.index == {"b": 0}

    def test_empty_vocabulary(self):
        with pytest.raises(EmptyVocabulary):
            features.build_vocab([""], min_df=1)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            features.build_vocab([], min_df=1)

    def test_rebuild_stable(self):
        docs = ["hope wins always", "never give up hope", "stay strong"]
        assert features.build_vocab(docs).index == features.build_vocab(docs).index

    def test_save_load_round_trip(self, tmp_path):
        docs = ["hope wins always", "never give up hope", "stay strong", "நம்பிக்கை hope"]
        vocab = features.build_vocab(docs, min_df=1)
        features.save_vocab(vocab, tmp_path / "vocab.tsv")
        loaded = features.load_vocab(tmp_path / "vocab.tsv")
        assert loaded == vocab
        assert list(loaded.index) == list(vocab.index)  # index order


class TestVocabFile:
    @pytest.mark.parametrize("damage,line_no", [
        (lambda ls: ["# vocab-v0" + ls[0][len("# vocab-v1"):]] + ls[1:], 1),
        (lambda ls: ["# vocab-v1\tnum_docs=4\n"] + ls[1:], 1),
        (lambda ls: ls[:2] + ["strong 1 2\n"] + ls[3:], 3),
        (lambda ls: ls[:2] + ["strong\tmany\n"] + ls[3:], 3),
        (lambda ls: ls[:2] + ["strong\t9\n"] + ls[3:], 3),  # more docs than the corpus
        (lambda ls: ls + [ls[1]], 9),  # a term twice, after the header and 7 terms
    ])
    def test_damaged_file_names_its_line(self, tmp_path, damage, line_no):
        path = tmp_path / "vocab.tsv"
        features.save_vocab(features.build_vocab(["hope wins", "stay strong", "hope",
                                                  "never give up"]), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(damage(lines)))
        with pytest.raises(MalformedFile, match=rf"vocab\.tsv: line {line_no}: "):
            features.load_vocab(path)

    @pytest.mark.parametrize("damage,line_no", [
        (lambda ls: ls + [b"\xff"], 9),  # after the header and 7 terms
        (lambda ls: ls[:3] + [b"str\xffong\t1\n"] + ls[4:], 4),
    ])
    def test_non_utf8_byte_names_its_line(self, tmp_path, damage, line_no):
        path = tmp_path / "vocab.tsv"
        features.save_vocab(features.build_vocab(["hope wins", "stay strong", "hope",
                                                  "never give up"]), path)
        path.write_bytes(b"".join(damage(path.read_bytes().splitlines(keepends=True))))
        with pytest.raises(MalformedFile, match=rf"vocab\.tsv: line {line_no}: not valid UTF-8"):
            features.load_vocab(path)


class TestTfidf:
    def test_all_oov_zero_vector(self):
        vocab = features.build_vocab(["a b"], min_df=1)
        X = features.tfidf_vectorize(["x y z"], vocab)
        assert X.shape == (1, 2) and X.data.size == 0

    def test_single_doc_idf_not_zero_with_smoothing(self):
        # One-doc corpus: idf = ln(2/2) = 0, so every weight is 0.
        vocab = features.build_vocab(["a a b"], min_df=1)
        X = features.tfidf_vectorize(["a a b"], vocab)
        assert X.data.size == 0

    def test_two_doc_hand_computed(self):
        vocab = features.build_vocab(["a", "b"], min_df=1)
        X = features.tfidf_vectorize(["a"], vocab)
        assert X.indices.tolist() == [vocab.index["a"]]
        assert X.data[0] == pytest.approx(1.0)  # L2-normalized
        # pre-normalization weight is ln(3/2)
        raw = 1 * math.log((1 + 2) / (1 + 1))
        assert raw > 0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(alphabet="abcde ", min_size=1, max_size=15),
                    min_size=1, max_size=8),
           st.text(alphabet="abcdefg ", max_size=20))
    def test_norm_one_or_zero(self, docs, doc):
        try:
            vocab = features.build_vocab(docs, min_df=1)
        except EmptyVocabulary:
            return
        X = features.tfidf_vectorize([doc], vocab)
        norm = math.sqrt(sum(w * w for w in X.data))
        assert norm == pytest.approx(1.0) or norm == 0.0


def _tfidf_per_doc(docs, vocab):
    """Oracle: the vectorizer as one Python loop per doc. A row's squared
    weights are added one after another in the order its terms first
    occur."""
    idf = [math.log((1 + vocab.num_docs) / (1 + vocab.doc_freq[i]))
           for i in range(len(vocab))]
    data, indices, indptr = [], [], [0]
    for doc in docs:
        tf: dict[int, int] = {}
        for term in doc.split():
            i = vocab.index.get(term)
            if i is not None:
                tf[i] = tf.get(i, 0) + 1
        weights = {i: c * idf[i] for i, c in tf.items()}
        square = 0.0
        for w in weights.values():
            square += w * w
        norm = math.sqrt(square)
        if norm > 0:
            for i in sorted(weights):
                indices.append(i)
                data.append(weights[i] / norm)
        indptr.append(len(indices))
    return features.CsrMatrix(data, indices, indptr, len(vocab))


def _assert_same_csr(got, want):
    """The two matrices hold the same entries, bit for bit."""
    assert got.shape == want.shape
    assert got.indptr.tolist() == want.indptr.tolist()
    assert got.indices.tolist() == want.indices.tolist()
    assert got.data.tobytes() == want.data.tobytes()


class TestTfidfBlocks:
    """The block-wise array vectorizer against the per-doc loop."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(alphabet="abcde ", min_size=1, max_size=15),
                    min_size=1, max_size=8),
           st.lists(st.text(alphabet="abcdefg \t", max_size=30), max_size=12),
           st.integers(1, 4))
    def test_matches_per_doc_loop(self, vocab_docs, docs, block):
        assume(any(d.split() for d in vocab_docs))
        vocab = features.build_vocab(vocab_docs, min_df=1)
        # An empty doc, an all-OOV doc with a repeated term, and a doc of
        # the terms in every vocab doc, whose idf is 0: all empty rows.
        everywhere = set.intersection(*(set(d.split()) for d in vocab_docs))
        docs = docs + ["", "ff g ff", " ".join(sorted(everywhere) * 2)]
        with mock.patch.object(features, "_TFIDF_BLOCK", block):
            got = features.tfidf_vectorize(iter(docs), vocab)
        _assert_same_csr(got, _tfidf_per_doc(docs, vocab))
        assert got.indptr[-1] == got.indptr[-4]

    def test_docs_on_both_sides_of_a_block_boundary(self):
        rng = random.Random(5)
        pool = [f"t{i}" for i in range(300)]
        docs = [" ".join(rng.choices(pool, k=rng.randint(0, 12)))
                for _ in range(2 * features._TFIDF_BLOCK + 7)]
        vocab = features.build_vocab(docs[::3], min_df=2)
        got = features.tfidf_vectorize(docs, vocab)
        _assert_same_csr(got, _tfidf_per_doc(docs, vocab))
        assert features.tfidf_vectorize([], vocab).shape == (0, len(vocab))

def _dense_tfidf(docs, vocab):
    """Oracle: the TF-IDF matrix filled densely, cell by cell."""
    D = np.zeros((len(docs), len(vocab)))
    for r, doc in enumerate(docs):
        tf = Counter(t for t in doc.split() if t in vocab.index)
        for t, c in tf.items():
            i = vocab.index[t]
            D[r, i] = c * math.log((1 + vocab.num_docs) / (1 + vocab.doc_freq[i]))
        norm = np.linalg.norm(D[r])
        if norm > 0:
            D[r] /= norm
    return D


class TestCsrMatrix:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(alphabet="abcde ", min_size=1, max_size=15),
                    min_size=1, max_size=8),
           st.lists(st.text(alphabet="abcdefg ", max_size=20), max_size=8),
           st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
    def test_matches_dense_oracle(self, vocab_docs, docs, m, seed, data):
        assume(any(d.split() for d in vocab_docs))
        vocab = features.build_vocab(vocab_docs, min_df=1)
        docs = docs + ["", "ff g"]  # always an empty and an all-OOV row
        X = features.tfidf_vectorize(docs, vocab)
        D = _dense_tfidf(docs, vocab)
        assert X.shape == D.shape
        np.testing.assert_allclose(np.asarray(X), D, rtol=0, atol=1e-12)
        assert not D[-2:].any() and X.indptr[-1] == X.indptr[-3]

        rows = data.draw(st.lists(st.integers(0, len(docs) - 1), max_size=12))
        taken = X[rows]  # rows may repeat
        np.testing.assert_array_equal(np.asarray(taken), np.asarray(X)[rows])

        rng = np.random.default_rng(seed)
        for A, B in ((X, D), (taken, D[rows])):
            M = rng.normal(size=(A.shape[1], m))
            G = rng.normal(size=(m, A.shape[0]))
            for got, want in ((A @ M, B @ M), (G @ A, G @ B),
                              *((A[i], B[i]) for i in range(-len(B), len(B)))):
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @given(st.one_of(st.none(), st.integers(-6, 6)), st.one_of(st.none(), st.integers(-6, 6)),
           st.sampled_from([None, 1, 2, -1]))
    def test_slices_match_dense(self, start, stop, step):
        X = features.CsrMatrix([1.0, 2.0, 3.0, 4.0], [0, 2, 1, 0], [0, 1, 1, 3, 4], 3)
        got = X[start:stop:step]
        want = np.asarray(X)[start:stop:step]
        assert got.shape == want.shape
        np.testing.assert_array_equal(np.asarray(got), want)

    def test_contiguous_slice_is_a_view(self):
        X = features.CsrMatrix([1.0, 2.0, 3.0, 4.0], [0, 2, 1, 0], [0, 1, 1, 3, 4], 3)
        row = X[2:3]
        assert row.shape == (1, 3) and list(row.indptr) == [0, 2]
        for name in ("data", "indices"):
            assert np.shares_memory(getattr(row, name), getattr(X, name))
        assert list(row.indices) == [2, 1] and list(row.data) == [2.0, 3.0]
        assert X[1:2].data.size == 0 and X[-1:].shape == (1, 3)

    def test_dense_copy_is_a_fresh_writable_array(self):
        X = features.CsrMatrix([1.0, 2.0], [0, 2], [0, 1, 1, 2], 3)
        dense = np.asarray(X, dtype=np.float32)
        assert dense.dtype == np.float32 and dense.flags.writeable
        dense[1, 1] = 5.0
        assert np.asarray(X)[1, 1] == 0.0
        assert np.asarray(X[[]]).shape == (0, 3)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 12), st.integers(1, 9), st.integers(1, 3),
           st.integers(0, 2**32 - 1))
    def test_products_match_stacked_bincounts(self, n, dim, m, seed):
        # The products before the preallocated class-major result: one
        # bincount per column of M (row of D), stacked.
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, dim)) * (rng.random((n, dim)) < 0.4)
        X = csr_from_dense(A)
        M, D = rng.normal(size=(dim, m)), rng.normal(size=(m, n))
        want = np.stack([np.bincount(X._row_of, weights=col[X.indices] * X.data,
                                     minlength=n) for col in M.T], axis=1)
        got = X @ M
        assert got.tobytes() == want.tobytes() and got.T.flags.c_contiguous
        want = np.stack([np.bincount(X.indices, weights=row[X._row_of] * X.data,
                                     minlength=dim) for row in D])
        got = D @ X
        assert got.tobytes() == want.tobytes() and got.flags.c_contiguous

    def test_row_index_built_only_for_products(self):
        X = features.CsrMatrix([1.0, 2.0, 3.0], [0, 2, 1], [0, 1, 1, 3], 3)
        taken = X[[2, 0, 2]]
        assert "_row_of" not in vars(X) and "_row_of" not in vars(taken)
        product = taken @ np.eye(3)
        assert "_row_of" in vars(taken) and "_row_of" not in vars(X)
        np.testing.assert_array_equal(product, np.asarray(X)[[2, 0, 2]])


class TestEmbeddings:
    def _write(self, tmp_path, lines):
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_load_768(self, tmp_path):
        row = " ".join("0.5" for _ in range(768))
        path = self._write(tmp_path, ["# producer: test, layer: -2", row, row, row])
        vecs = features.load_embeddings(path, 768)
        assert vecs.shape == (3, 768)

    def test_dimension_mismatch(self, tmp_path):
        path = self._write(tmp_path, [" ".join("0.1" for _ in range(767))])
        with pytest.raises(DimensionMismatch) as exc:
            features.load_embeddings(path, 768)
        assert exc.value.line_no == 1

    def test_zero_vector_accepted(self, tmp_path):
        path = self._write(tmp_path, [" ".join("0" for _ in range(4))])
        vecs = features.load_embeddings(path, 4)
        assert np.allclose(vecs[0], 0.0)

    def test_non_numeric(self, tmp_path):
        path = self._write(tmp_path, ["0.1 abc 0.3"])
        with pytest.raises(NonNumericValue):
            features.load_embeddings(path, 3)

    def test_width_of_the_first_vector(self, tmp_path):
        path = self._write(tmp_path, ["# producer: test", "1 2 3", "4 5 6"])
        assert features.load_embeddings(path).shape == (2, 3)

    def test_ragged_file_names_its_first_short_line(self, tmp_path):
        path = self._write(tmp_path, ["# producer: test", "1 2 3", "4 5", "6"])
        with pytest.raises(DimensionMismatch, match="line 3: expected 3 values, got 2"):
            features.load_embeddings(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_value_names_its_line(self, tmp_path, value):
        path = self._write(tmp_path, ["1 2", f"3 {value}"])
        with pytest.raises(NonNumericValue, match=f"line 2: '{value}' is not a finite"):
            features.load_embeddings(path)

    def test_row_count_mismatch(self, tmp_path):
        path = self._write(tmp_path, ["1 2", "3 4"])
        with pytest.raises(RowCountMismatch):
            features.load_embeddings(path, 2, n_rows=3)
