"""Loading, validation, statistics and splitting of HopeEDI-style TSV data.

Input format: UTF-8, one comment per line, ``text<TAB>label`` (labeled mode)
or bare text (unlabeled mode). Embedded tabs are rejected rather than
guessed around, since the source files never quote fields.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import (
    BadFraction,
    EmptyFile,
    MalformedFile,
    MalformedRow,
    TooFewRows,
    UnknownLabel,
    UnlabeledInput,
)

# PRNG pinned to CPython's Mersenne Twister shuffle; recorded in manifests so
# ensemble members stay reproducible across machines.
SPLIT_PRNG = "python-random-mt19937"


class Label(str, Enum):
    HOPE = "Hope"
    NOT_HOPE = "NotHope"
    NOT_LANGUAGE = "NotLanguage"


class DatasetLang(str, Enum):
    """The HopeEDI datasets: each one's name in manifests (the value), its
    ``--lang`` code, and the alias of its not-in-language class in the
    dataset and in predictions."""

    ENGLISH = "English", "en", "not-English"
    TAMIL = "Tamil", "ta", "not-Tamil"
    MALAYALAM = "Malayalam", "ml", "not-malayalam"

    def __new__(cls, name: str, code: str, not_alias: str):
        lang = str.__new__(cls, name)
        lang._value_, lang.code, lang.not_alias = name, code, not_alias
        return lang


# Closed alias table (matched case-insensitively after trimming): the
# HopeEDI aliases and the canonical names that ensemble-vote writes. Unknown
# strings are errors, never a fourth class.
_LABEL_ALIASES = {
    "hope_speech": Label.HOPE,
    "non_hope_speech": Label.NOT_HOPE,
    **{lang.not_alias.lower(): Label.NOT_LANGUAGE for lang in DatasetLang},
    "not-in-intended-language": Label.NOT_LANGUAGE,
    **{label.value.lower(): label for label in Label},
}


def parse_label(raw: str, line_no: int | None = None) -> Label:
    key = raw.strip().lower()
    try:
        return _LABEL_ALIASES[key]
    except KeyError:
        raise UnknownLabel(raw, line_no) from None


@dataclass(frozen=True)
class LabeledComment:
    id: int
    text: str
    label: Label | None  # None == unlabeled (test data)


@dataclass(frozen=True)
class DatasetStats:
    counts: dict[Label, int]
    total: int
    hope_to_nothope_ratio: Fraction | None


def load_tsv(path, *, labeled: bool | None = True) -> list[LabeledComment]:
    """Read one comment per line, in file order, ids starting at 0.

    ``labeled=None`` decides from the file: labeled when the first data line
    holds a tab, which an unlabeled row never does.
    """
    rows: list[LabeledComment] = []
    try:
        for line_no, line in utf8_lines(path):
            if line == "":
                continue
            if labeled is None:
                labeled = "\t" in line
            if labeled:
                fields = line.split("\t")
                if len(fields) != 2:
                    raise MalformedRow(
                        line_no, f"expected 2 tab-separated fields, got {len(fields)}"
                    )
                text, raw_label = fields
                label = parse_label(raw_label, line_no)
            else:
                if "\t" in line:
                    raise MalformedRow(line_no, "unexpected tab in unlabeled row")
                text, label = line, None
            if text.strip() == "":
                raise MalformedRow(line_no, "empty text field")
            rows.append(LabeledComment(len(rows), text, label))
    except MalformedFile as e:
        raise MalformedRow(e.line_no, "not valid UTF-8") from None
    if not rows:
        raise EmptyFile(f"no data lines in {path}")
    return rows


def utf8_lines(path):
    """(line number, text) of each line of a UTF-8 file, without its line
    break. Lines are decoded one at a time, so that a byte that is not
    UTF-8 raises MalformedFile naming its line."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                yield line_no, raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError:
                raise MalformedFile(path, line_no, "not valid UTF-8") from None


def compute_stats(data: list[LabeledComment]) -> DatasetStats:
    counts = {label: 0 for label in Label}
    for row in data:
        if row.label is None:
            raise UnlabeledInput(f"row {row.id} has no label")
        counts[row.label] += 1
    ratio = None
    if counts[Label.NOT_HOPE] > 0:
        ratio = Fraction(counts[Label.HOPE], counts[Label.NOT_HOPE])
    return DatasetStats(counts=counts, total=len(data), hope_to_nothope_ratio=ratio)


def split_positions(n: int, seed: int, fraction_train) -> tuple[list[int], list[int]]:
    """Deterministic shuffled split of positions 0..n-1: the first
    ceil(fraction*n) positions of the seeded shuffle train. Both parts are
    returned sorted, as (train, validation).
    """
    fraction = Fraction(fraction_train).limit_denominator(10**9)
    if not 0 < fraction < 1:
        raise BadFraction(f"fraction_train must be in (0,1), got {fraction_train}")
    if n < 2:
        raise TooFewRows(f"need at least 2 rows, got {n}")
    order = list(range(n))
    random.Random(seed).shuffle(order)
    n_train = math.ceil(fraction * n)
    n_train = min(max(n_train, 1), n - 1)  # both partitions non-empty
    return sorted(order[:n_train]), sorted(order[n_train:])

