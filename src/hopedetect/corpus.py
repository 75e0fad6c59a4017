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

from .errors import ConfigError, HopedetectError, MalformedFile

# PRNG pinned to CPython's Mersenne Twister shuffle; recorded in manifests so
# ensemble members stay reproducible across machines.
SPLIT_PRNG = "python-random-mt19937"


class _StrEnum(str, Enum):
    """A member is its value in every context, as in ``enum.StrEnum`` (3.11+)."""

    __str__ = str.__str__
    __format__ = str.__format__


class Label(_StrEnum):
    HOPE = "Hope"
    NOT_HOPE = "NotHope"
    NOT_LANGUAGE = "NotLanguage"


class DatasetLang(_StrEnum):
    """The HopeEDI datasets: each one's name in manifests (the value), its
    ``--lang`` code, the alias of its not-in-language class, and
    ``aliases``, how its files spell each class: predictions are written
    so, and ``parse_label`` reads every dataset's spellings."""

    ENGLISH = "English", "en", "not-English"
    TAMIL = "Tamil", "ta", "not-Tamil"
    MALAYALAM = "Malayalam", "ml", "not-malayalam"

    def __new__(cls, name: str, code: str, not_alias: str):
        lang = str.__new__(cls, name)
        lang._value_, lang.code, lang.not_alias = name, code, not_alias
        lang.aliases = {Label.HOPE: "Hope_speech", Label.NOT_HOPE: "Non_hope_speech",
                        Label.NOT_LANGUAGE: not_alias}
        return lang


# Closed alias table (matched case-insensitively after trimming): the
# datasets' aliases and the class names that ensemble-vote writes. Unknown
# strings are errors, never a fourth class.
_LABEL_ALIASES = {
    **{alias.lower(): label for lang in DatasetLang
       for label, alias in lang.aliases.items()},
    "not-in-intended-language": Label.NOT_LANGUAGE,
    **{label.lower(): label for label in Label},
}


def parse_label(raw: str, line_no: int | None = None, path=None) -> Label:
    """The class of a label alias or class name; ``line_no`` and ``path``
    name where it was read, for the error."""
    key = raw.strip().lower()
    try:
        return _LABEL_ALIASES[key]
    except KeyError:
        raise MalformedFile(path, line_no, f"unknown label {raw!r}") from None


@dataclass(frozen=True, slots=True)
class LabeledComment:
    text: str
    label: Label | None  # None == unlabeled (test data)


@dataclass(frozen=True)
class DatasetStats:
    counts: dict[Label, int]
    total: int
    hope_to_nothope_ratio: Fraction | None


def load_tsv(path, *, labeled: bool | None = True) -> list[LabeledComment]:
    """Read one comment per line, in file order.

    ``labeled=None`` decides from the file: labeled when the first data line
    holds a tab, which an unlabeled row never does. Every error names the
    file first.
    """
    rows: list[LabeledComment] = []
    for line_no, line in utf8_lines(path):
        if line == "":
            continue
        if labeled is None:
            labeled = "\t" in line
        if labeled:
            fields = line.split("\t")
            if len(fields) != 2:
                raise MalformedFile(
                    path, line_no,
                    f"expected 2 tab-separated fields, got {len(fields)}")
            text, raw_label = fields
            label = parse_label(raw_label, line_no, path)
        else:
            if "\t" in line:
                raise MalformedFile(path, line_no, "unexpected tab in unlabeled row")
            text, label = line, None
        if text.strip() == "":
            raise MalformedFile(path, line_no, "empty text field")
        rows.append(LabeledComment(text, label))
    if not rows:
        raise HopedetectError(f"{path}: no data lines")
    return rows


# Bytes of whole lines that utf8_lines reads and decodes at a time.
_CHUNK = 1 << 16


def utf8_lines(path):
    """(line number, text) of each line of a UTF-8 file, without its line
    break. Lines are read and decoded about 64 KB at a time; a byte that is
    not UTF-8 raises MalformedFile naming its line."""
    line_no = 0  # lines before the chunk
    with open(path, "rb") as fh:
        while chunk := fh.readlines(_CHUNK):
            try:
                text = b"".join(chunk).decode("utf-8")
            except UnicodeDecodeError:
                # No UTF-8 sequence holds a newline byte, so the chunk fails
                # to decode where one of its lines does.
                for i, raw in enumerate(chunk, start=line_no + 1):
                    try:
                        raw.decode("utf-8")
                    except UnicodeDecodeError:
                        raise MalformedFile(path, i, "not valid UTF-8") from None
            # A line ends at its first "\n", the file's last line maybe at
            # no "\n"; what is left of its break is a run of "\r".
            lines = text.split("\n")
            if text.endswith("\n"):
                lines.pop()
            if "\r" in text:
                lines = [line.rstrip("\r") for line in lines]
            yield from enumerate(lines, start=line_no + 1)
            line_no += len(chunk)


def finite_numbers(tokens: list[str]) -> list[float]:
    """The numbers written in ``tokens``. A ValueError names the first token
    that is not a finite number: a word, a nan or an infinity."""
    try:
        values = list(map(float, tokens))
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    for token in tokens:
        try:
            bad = not math.isfinite(float(token))
        except ValueError:
            bad = True
        if bad:
            raise ValueError(f"{token!r} is not a finite number")


def header_fields(line: str, version: str, keys) -> dict[str, str]:
    """The ``key=value`` fields of a ``# <version>`` header line, exactly ``keys``."""
    if not line.startswith(f"# {version}\t"):
        raise ValueError(f"not a {version} header")
    fields = dict(part.split("=", 1) for part in line.split("\t")[1:])
    if fields.keys() != set(keys):
        raise ValueError(f"bad {version} header fields")
    return fields


def compute_stats(data: list[LabeledComment]) -> DatasetStats:
    counts = {label: 0 for label in Label}
    for i, row in enumerate(data):
        if row.label is None:
            raise HopedetectError(f"row {i} has no label")
        counts[row.label] += 1
    ratio = None
    if counts[Label.NOT_HOPE] > 0:
        ratio = Fraction(counts[Label.HOPE], counts[Label.NOT_HOPE])
    return DatasetStats(counts=counts, total=len(data), hope_to_nothope_ratio=ratio)


def split_fraction(fraction_train) -> Fraction:
    """The share of rows that ``split_positions`` trains on: ``fraction_train``
    rounded to a denominator of at most 10**9, which must lie in (0, 1)."""
    if math.isfinite(fraction_train):
        fraction = Fraction(fraction_train).limit_denominator(10**9)
        if 0 < fraction < 1:
            return fraction
    raise ConfigError(f"fraction_train must be in (0,1), got {fraction_train}")


def split_positions(n: int, seed: int, fraction_train) -> tuple[list[int], list[int]]:
    """Deterministic shuffled split of positions 0..n-1: the first
    ceil(fraction*n) positions of the seeded shuffle train. Both parts are
    returned sorted, as (train, validation).
    """
    fraction = split_fraction(fraction_train)
    if n < 2:
        raise HopedetectError(f"need at least 2 rows, got {n}")
    order = list(range(n))
    random.Random(seed).shuffle(order)
    n_train = math.ceil(fraction * n)
    n_train = min(max(n_train, 1), n - 1)  # both partitions non-empty
    return sorted(order[:n_train]), sorted(order[n_train:])

