"""Text-to-vector layer: a sparse TF-IDF matrix or dense ingested embeddings.

Tokenization is whitespace-only; normalization has already stripped
punctuation. Embedding files are one space-separated vector per line, with
optional ``#`` header lines recording the producer model and layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat

import numpy as np

from .corpus import utf8_lines
from .errors import HopedetectError, MalformedFile

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
        """``X @ M`` for M of shape (n_cols, m), as the transpose of a
        C-ordered (m, n_rows) array: row j of it is X times column j of M."""
        other = np.asarray(other, dtype=float)
        if other.ndim != 2 or other.shape[0] != self.shape[1]:
            raise ValueError(f"matmul: {self.shape} @ {other.shape}")
        out = np.empty((other.shape[1], self.shape[0]))
        for j, col in enumerate(other.T):
            terms = col.take(self.indices)
            terms *= self.data
            out[j] = np.bincount(self._row_of, weights=terms, minlength=self.shape[0])
        return out.T

    def __rmatmul__(self, other):
        """``D @ X`` for D of shape (m, n_rows)."""
        other = np.asarray(other, dtype=float)
        if other.ndim != 2 or other.shape[1] != self.shape[0]:
            raise ValueError(f"matmul: {other.shape} @ {self.shape}")
        out = np.empty((other.shape[0], self.shape[1]))
        for j, row in enumerate(other):
            terms = row.take(self._row_of)
            terms *= self.data
            out[j] = np.bincount(self.indices, weights=terms, minlength=self.shape[1])
        return out

    def __array__(self, dtype=None, copy=None):
        dense = np.zeros(self.shape, dtype=float if dtype is None else dtype)
        dense[self._row_of, self.indices] = self.data
        return dense


def build_vocab(docs, min_df: int = 1) -> Vocabulary:
    if not docs:
        raise HopedetectError("no documents")
    df: dict[str, int] = {}
    for doc in docs:
        for term in set(doc.split()):
            df[term] = df.get(term, 0) + 1
    kept = sorted(t for t, c in df.items() if c >= min_df)
    if not kept:
        raise HopedetectError(f"no term reaches document frequency {min_df}")
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
    lines = utf8_lines(path)
    line_no, header = next(lines, (1, ""))
    try:
        if not header.startswith(f"# {VOCAB_VERSION}\t"):
            raise ValueError(f"not a {VOCAB_VERSION} header")
        meta = dict(part.split("=", 1) for part in header.split("\t")[1:])
        if meta.keys() != {"num_docs", "min_df"}:
            raise ValueError(f"bad {VOCAB_VERSION} header fields")
        num_docs, min_df = int(meta["num_docs"]), int(meta["min_df"])
        index, doc_freq = {}, {}
        for line_no, line in lines:
            term, df = line.split("\t")
            if not term or term in index or not min_df <= int(df) <= num_docs:
                raise ValueError(f"bad term line {line!r}")
            i = len(index)
            index[term], doc_freq[i] = i, int(df)
    except ValueError as e:
        raise MalformedFile(path, line_no, e) from None
    return Vocabulary(index=index, doc_freq=doc_freq, num_docs=num_docs, min_df=min_df)


def tfidf_vectorize(docs, vocab: Vocabulary) -> CsrMatrix:
    """One row per doc: tf * ln((1+N)/(1+df)), L2-normalized when nonzero.

    OOV terms are ignored; a doc with no weight left is an empty row. The
    docs are split and their terms looked up in one Python pass, and the
    rest is array work, ``_TFIDF_BLOCK`` docs at a time.
    """
    idf = np.array([math.log((1 + vocab.num_docs) / (1 + vocab.doc_freq[i]))
                    for i in range(len(vocab))])
    docs, parts = iter(docs), []
    while block := [doc.split() for doc in islice(docs, _TFIDF_BLOCK)]:
        parts.append(_tfidf_block(block, vocab.index.get, idf))
    if not parts:
        return CsrMatrix([], [], [0], len(vocab))
    data, indices, row_nnz = map(np.concatenate, zip(*parts))
    return CsrMatrix(data, indices, np.concatenate(([0], np.cumsum(row_nnz))), len(vocab))


# Docs per block of tfidf_vectorize. Its temporaries are a few arrays per
# token of the block; with 128 docs they stay below the per-entry Python
# lists of a per-doc loop on the benchmark's corpora.
_TFIDF_BLOCK = 128


def _tfidf_block(block, get, idf):
    """(data, indices, stored entries per row) of the rows of ``block``,
    each a doc's list of terms, whose ids ``get(term, -1)`` gives (-1 out
    of vocabulary).

    The arithmetic is that of a per-doc loop over Python floats: each
    weight is count * idf, a row's squared weights are added one after
    another from 0.0 in the order its terms first occur, and the row is
    divided by the root unless that is 0, which leaves it empty. Entries are
    sorted by column within their row.
    """
    lengths = np.fromiter(map(len, block), np.intp, len(block))
    ids = np.fromiter(map(get, chain.from_iterable(block), repeat(-1)),
                      np.intp, int(lengths.sum()))
    row = np.repeat(np.arange(len(block)), lengths)
    known = ids >= 0
    # One key per (row, term), so that sorting orders rows, then columns.
    key = row[known] * len(idf) + ids[known]
    key, first, counts = np.unique(key, return_index=True, return_counts=True)
    row, col = np.divmod(key, len(idf))
    weight = counts * idf[col]
    # np.bincount adds each row's weights in the order it meets them.
    order = np.argsort(first)
    norm = np.sqrt(np.bincount(row[order], weights=(weight * weight)[order],
                               minlength=len(block)))
    kept = norm[row] > 0
    row_nnz = np.bincount(row[kept], minlength=len(block))
    return weight[kept] / norm[row[kept]], col[kept], row_nnz


def load_embeddings(path, dim: int | None = None,
                    n_rows: int | None = None) -> np.ndarray:
    """One dense vector of finite values per line, aligned to dataset row
    order: rows x dim. Without ``dim`` the first vector sets the width."""
    vectors: list[list[float]] = []
    for line_no, line in utf8_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if dim is None:
            dim = len(tokens)
        if len(tokens) != dim:
            raise MalformedFile(path, line_no, f"expected {dim} values, got {len(tokens)}")
        try:
            vector = [float(t) for t in tokens]
            if not all(map(math.isfinite, vector)):
                raise ValueError
        except ValueError:
            bad = next(t for t in tokens if not _is_finite(t))
            raise MalformedFile(path, line_no, f"{bad!r} is not a finite number") from None
        vectors.append(vector)
    if n_rows is not None and len(vectors) != n_rows:
        raise HopedetectError(f"{path}: {len(vectors)} vectors for {n_rows} dataset rows")
    return np.array(vectors, dtype=float).reshape(len(vectors), dim or 0)


def _is_finite(token: str) -> bool:
    try:
        return math.isfinite(float(token))
    except ValueError:
        return False
