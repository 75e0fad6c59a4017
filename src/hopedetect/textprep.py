"""Comment normalization: specials, emoji, lowercasing, whitespace.

Rule order is fixed (specials -> emoji -> lowercase -> collapse whitespace)
because the order changes outputs and pinning it keeps tests exact.
Native-script Indic characters pass through untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


@dataclass(frozen=True)
class NormalizationConfig:
    strip_specials: bool = True
    strip_emoji: bool = True
    lowercase: bool = True
    collapse_whitespace: bool = True


class IndicScript(NamedTuple):
    name: str
    lang: str  # language code the script shortcut assigns
    lo: int
    hi: int


# The Indic Unicode blocks every stage recognizes. Sorted by name: the
# script shortcut breaks ties between scripts in this order.
INDIC_SCRIPTS = (
    IndicScript("Devanagari", "hi", 0x0900, 0x097F),
    IndicScript("Malayalam", "ml", 0x0D00, 0x0D7F),
    IndicScript("Tamil", "ta", 0x0B80, 0x0BFF),
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


class CodePointTable(dict):
    """A ``str.translate`` table that decides each code point once.

    ``decide(ch)`` gives what the character ``ch`` becomes: a string, or
    None to delete it. The table calls it the first time ``translate`` meets
    a code point and keeps the answer, so it holds one entry per distinct
    code point seen and the per-character work stays in C.
    """

    def __init__(self, decide):
        super().__init__()
        self._decide = decide

    def __missing__(self, cp: int):
        out = self[cp] = self._decide(chr(cp))
        return out


def _char_rule(strip_specials: bool, strip_emoji: bool):
    # The specials pass turns a special into a space, which the emoji pass
    # keeps; the emoji pass deletes what the specials pass kept, such as the
    # dingbat digits (U+2776 and on), which are digits.
    def decide(c: str):
        if strip_specials and _is_special(c):
            return " "
        if strip_emoji and is_emoji(c):
            return None
        return c

    return decide


# One table per (strip_specials, strip_emoji) pair, filled as text arrives.
_CHAR_TABLES = {(s, e): CodePointTable(_char_rule(s, e))
                for s in (False, True) for e in (False, True)}


def normalize_text(raw: str, cfg: NormalizationConfig = NormalizationConfig()) -> str:
    out = raw.translate(_CHAR_TABLES[bool(cfg.strip_specials), bool(cfg.strip_emoji)])
    if cfg.lowercase:
        out = out.lower()
    if cfg.collapse_whitespace:
        out = " ".join(out.split())
    return out
