"""Text-to-vector layer: a sparse TF-IDF matrix or dense ingested embeddings.

Tokenization is whitespace-only; normalization has already stripped
punctuation. Embedding files are one space-separated vector per line, with
optional ``#`` header lines recording the producer model and layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyCorpus,
    EmptyVocabulary,
    MalformedFile,
    NonNumericValue,
    RowCountMismatch,
)

DEFAULT_EMBEDDING_DIM = 768
DEFAULT_TOKEN_LIMIT = 512
VOCAB_VERSION = "vocab-v1"


@dataclass(frozen=True)
class Vocabulary:
    index: dict[str, int]  # term -> dense index 0..V-1, lexicographic order
    doc_freq: dict[int, int]
    num_docs: int
    min_df: int

    def __len__(self):
        return len(self.index)


class CsrMatrix:
    """Compressed sparse rows: the stored entries of row r are
    ``data[indptr[r]:indptr[r + 1]]`` at the columns in the same slice of
    ``indices``, unique within a row.

    It supports what the linear trainers need of a feature matrix, the same
    way a dense ndarray does: ``X @ M``, ``D @ X``, ``X.shape``, ``X[i]`` (row
    i as a dense vector), ``X[a:b]`` (rows a to b as a view of their stored
    entries) and ``X[rows]`` (the taken rows, duplicates allowed, as a new
    matrix). ``np.asarray(X)`` is the dense matrix.
    """

    # Makes ``ndarray @ CsrMatrix`` return NotImplemented, so Python calls
    # __rmatmul__ instead of numpy densifying the operand.
    __array_ufunc__ = None

    def __init__(self, data, indices, indptr, n_cols: int):
        self.data = np.asarray(data, dtype=float)
        self.indices = np.asarray(indices, dtype=np.intp)
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.shape = (len(self.indptr) - 1, n_cols)

    @cached_property
    def _row_of(self):
        # Row of each stored entry: both products sum over it or by it. Built
        # on first use, as a row take or a transpose may never need it.
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            i = range(self.shape[0])[key]
            lo, hi = self.indptr[i], self.indptr[i + 1]
            row = np.zeros(self.shape[1])
            row[self.indices[lo:hi]] = self.data[lo:hi]
            return row
        if isinstance(key, slice):
            start, stop, step = key.indices(self.shape[0])
            if step == 1:
                # Contiguous rows: a view of their stored entries, no copy.
                stop = max(start, stop)
                lo, hi = self.indptr[start], self.indptr[stop]
                return CsrMatrix(self.data[lo:hi], self.indices[lo:hi],
                                 self.indptr[start:stop + 1] - lo, self.shape[1])
        rows = np.arange(self.shape[0])[key]
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        # Source position of every taken entry, row after row.
        take = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return CsrMatrix(self.data[take], self.indices[take], indptr, self.shape[1])

    def __matmul__(self, other):
        """``X @ M`` for M of shape (n_cols, m)."""
        other = np.asarray(other, dtype=float)
        if other.ndim != 2 or other.shape[0] != self.shape[1]:
            raise ValueError(f"matmul: {self.shape} @ {other.shape}")
        terms = (col[self.indices] * self.data for col in other.T)
        return np.stack([np.bincount(self._row_of, weights=t, minlength=self.shape[0])
                         for t in terms], axis=1)

    def __rmatmul__(self, other):
        """``D @ X`` for D of shape (m, n_rows)."""
        other = np.asarray(other, dtype=float)
        if other.ndim != 2 or other.shape[1] != self.shape[0]:
            raise ValueError(f"matmul: {other.shape} @ {self.shape}")
        terms = (row[self._row_of] * self.data for row in other)
        return np.stack([np.bincount(self.indices, weights=t, minlength=self.shape[1])
                         for t in terms])

    def __array__(self, dtype=None, copy=None):
        dense = np.zeros(self.shape, dtype=float if dtype is None else dtype)
        dense[self._row_of, self.indices] = self.data
        return dense


def build_vocab(docs, min_df: int = 1) -> Vocabulary:
    if not docs:
        raise EmptyCorpus("no documents")
    df: dict[str, int] = {}
    for doc in docs:
        for term in set(doc.split()):
            df[term] = df.get(term, 0) + 1
    kept = sorted(t for t, c in df.items() if c >= min_df)
    if not kept:
        raise EmptyVocabulary(f"no term reaches document frequency {min_df}")
    index = {t: i for i, t in enumerate(kept)}
    return Vocabulary(
        index=index,
        doc_freq={index[t]: df[t] for t in kept},
        num_docs=len(docs),
        min_df=min_df,
    )


def save_vocab(vocab: Vocabulary, path) -> None:
    """Versioned header, then one ``term<TAB>document frequency`` line per
    term in index order (terms hold no whitespace)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {VOCAB_VERSION}\tnum_docs={vocab.num_docs}\tmin_df={vocab.min_df}\n")
        for term, i in vocab.index.items():
            fh.write(f"{term}\t{vocab.doc_freq[i]}\n")


def load_vocab(path) -> Vocabulary:
    """Read a file written by ``save_vocab``. A damaged file raises
    MalformedFile naming the line at fault."""
    line_no = 1
    with open(path, encoding="utf-8") as fh:
        try:
            header = fh.readline().rstrip("\n")
            if not header.startswith(f"# {VOCAB_VERSION}\t"):
                raise ValueError(f"not a {VOCAB_VERSION} header")
            meta = dict(part.split("=", 1) for part in header.split("\t")[1:])
            if meta.keys() != {"num_docs", "min_df"}:
                raise ValueError(f"bad {VOCAB_VERSION} header fields")
            num_docs, min_df = int(meta["num_docs"]), int(meta["min_df"])
            index, doc_freq = {}, {}
            for line_no, line in enumerate(fh, start=2):
                term, df = line.rstrip("\n").split("\t")
                if not term or term in index or not min_df <= int(df) <= num_docs:
                    raise ValueError(f"bad term line {line!r}")
                i = len(index)
                index[term], doc_freq[i] = i, int(df)
        except ValueError as e:
            raise MalformedFile(path, line_no, e) from None
    return Vocabulary(index=index, doc_freq=doc_freq, num_docs=num_docs, min_df=min_df)


def tfidf_vectorize(docs, vocab: Vocabulary) -> CsrMatrix:
    """One row per doc: tf * ln((1+N)/(1+df)), L2-normalized when nonzero.

    OOV terms are ignored; a doc with no weight left is an empty row.
    """
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
        norm = math.sqrt(sum(w * w for w in weights.values()))
        if norm > 0:
            for i in sorted(weights):
                indices.append(i)
                data.append(weights[i] / norm)
        indptr.append(len(indices))
    return CsrMatrix(data, indices, indptr, len(vocab))


def load_embeddings(path, expected_dim: int = DEFAULT_EMBEDDING_DIM,
                    n_rows: int | None = None) -> np.ndarray:
    """One dense vector per line, aligned to dataset row order: rows x dim."""
    vectors: list[list[float]] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != expected_dim:
                raise DimensionMismatch(
                    f"expected {expected_dim} values, got {len(tokens)}", line_no
                )
            try:
                vectors.append([float(t) for t in tokens])
            except ValueError:
                bad = next(t for t in tokens if not _is_float(t))
                raise NonNumericValue(bad, line_no) from None
    if n_rows is not None and len(vectors) != n_rows:
        raise RowCountMismatch(
            f"{path}: {len(vectors)} vectors for {n_rows} dataset rows"
        )
    return np.array(vectors, dtype=float).reshape(len(vectors), expected_dim)


def save_embeddings(vectors, path, header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for vec in vectors:
            fh.write(" ".join(f"{v:.9g}" for v in vec) + "\n")


def validate_token_budget(text: str, limit: int = DEFAULT_TOKEN_LIMIT) -> bool:
    """True iff the whitespace token count fits the embedding producer's window."""
    if limit <= 0:
        raise ValueError(f"limit must be positive, got {limit}")
    return len(text.split()) <= limit


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False
