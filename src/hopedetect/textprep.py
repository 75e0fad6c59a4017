"""Comment normalization: specials, emoji, lowercasing, whitespace.

The rules and their order are fixed (specials -> emoji -> lowercase ->
collapse whitespace): the order changes outputs, and pinning it keeps tests
exact.
Native-script Indic characters pass through untouched.

``normalize_text`` takes a whole column of comments. The specials and emoji
passes decide each code point once, in a tag table, and run as array passes
over blocks of comments; only lowercasing and the whitespace collapse run
per comment.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .corpus import DatasetLang

# Emoji blocks plus variation selectors and ZWJ. Closed, enumerable set.
_EMOJI_RANGES = (
    (0x1F600, 0x1F64F),  # Emoticons
    (0x1F300, 0x1F5FF),  # Misc Symbols and Pictographs
    (0x1F680, 0x1F6FF),  # Transport and Map
    (0x1F900, 0x1F9FF),  # Supplemental Symbols and Pictographs
    (0x2700, 0x27BF),    # Dingbats
    (0xFE00, 0xFE0F),    # Variation Selectors
    (0x200D, 0x200D),    # Zero Width Joiner
)


def is_emoji(cp: str) -> bool:
    """True iff the code point falls in the configured emoji block list."""
    o = ord(cp)
    return any(lo <= o <= hi for lo, hi in _EMOJI_RANGES)


class IndicScript(NamedTuple):
    name: str
    lang: str  # language code the script shortcut assigns
    lo: int
    hi: int


# The Indic Unicode blocks every stage recognizes. Sorted by name: the
# script shortcut breaks ties between scripts in this order.
INDIC_SCRIPTS = (
    IndicScript("Devanagari", "hi", 0x0900, 0x097F),
    IndicScript("Malayalam", DatasetLang.MALAYALAM.code, 0x0D00, 0x0D7F),
    IndicScript("Tamil", DatasetLang.TAMIL.code, 0x0B80, 0x0BFF),
)


# indic_script(cp): the script whose block holds the character ``cp``, or
# None. A dict lookup rather than a range scan: it runs once per character.
indic_script = {chr(cp): script for script in INDIC_SCRIPTS
                for cp in range(script.lo, script.hi + 1)}.get


def _is_special(cp: str) -> bool:
    # Anything that is not a letter (any script), digit, whitespace, or a
    # native-script Indic code point. Indic blocks are kept wholesale so
    # combining vowel signs and viramas survive the special-character pass.
    if cp.isalpha() or cp.isdigit() or cp.isspace():
        return False
    return indic_script(cp) is None


class CodePointTable:
    """A tag from 1 to 255 for each Unicode code point, decided once.

    ``decide(ch)`` gives the tag of the character ``ch``. The table calls it
    the first time a lookup meets a code point and keeps the answer, 0
    standing for "not decided yet"; ``np.zeros`` leaves the pages of code
    points never seen unwritten.
    """

    def __init__(self, decide):
        self._tags = np.zeros(0x110000, np.uint8)
        self._decide = decide

    def __getitem__(self, cps):
        """The tags of the code points in the integer array ``cps``."""
        tags = self._tags[cps]
        if not tags.all():
            for cp in set(cps[tags == 0].tolist()):
                self._tags[cp] = self._decide(chr(cp))
            tags = self._tags[cps]
        return tags


def _code_points(texts: list[str]):
    """The texts' code points end to end (``<u4``, read-only), and each
    text's length."""
    lengths = np.fromiter(map(len, texts), np.intp, len(texts))
    utf32 = "".join(texts).encode("utf-32-le", "surrogatepass")
    return np.frombuffer(utf32, "<u4"), lengths


_KEEP, _SPACE, _DELETE = 1, 2, 3


def _char_rule(c: str) -> int:
    # The specials pass turns a special into a space, which the emoji pass
    # keeps; the emoji pass deletes what the specials pass kept, such as the
    # dingbat digits (U+2776 and on), which are digits. A surrogate is a
    # special, so none is left to decode.
    if _is_special(c):
        return _SPACE
    if is_emoji(c):
        return _DELETE
    return _KEEP


# The specials and emoji passes in one table, filled as text arrives.
_CHAR_TAGS = CodePointTable(_char_rule)

# Comments per block of normalize_text: a block's temporaries are a few
# arrays the size of its code points.
_BLOCK = 128


def _char_passes(texts: list[str]) -> tuple[str, list[int]]:
    """The specials and emoji passes over ``texts``: their results end to
    end, and the position where each one ends."""
    cps, lengths = _code_points(texts)
    tags = _CHAR_TAGS[cps]
    ends = np.cumsum(lengths)
    out = np.where(tags == _SPACE, np.uint32(0x20), cps)
    deleted = np.flatnonzero(tags == _DELETE)
    if len(deleted):
        out = np.delete(out, deleted)
        # Each end moves back by the deleted code points before it.
        ends -= np.searchsorted(deleted, ends)
    return out.astype("<u4", copy=False).tobytes().decode("utf-32-le"), ends.tolist()


def normalize_text(raws: list[str]) -> list[str]:
    """Each comment of ``raws`` with specials turned to spaces, emoji
    deleted, lowercased, and its whitespace runs collapsed to single spaces
    and trimmed.

    The comments go ``_BLOCK`` at a time through the specials and emoji
    passes; lowercasing, which may change a comment's length, then runs on
    each comment alone."""
    out = []
    for i in range(0, len(raws), _BLOCK):
        text, ends = _char_passes(raws[i : i + _BLOCK])
        start = 0
        for end in ends:
            out.append(" ".join(text[start:end].lower().split()))
            start = end
    return out
