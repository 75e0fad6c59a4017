"""Latin-to-native-script transliteration via greedy longest-match tables.

Social-media romanization is non-standard, so the mapping ships as a data
file (one ``latin<TAB>native`` entry per line) that users can refine without
code changes. Native-script characters, digits, whitespace, and unmatched
Latin characters all pass through unchanged; noisy text must never abort
the pipeline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

from .corpus import DatasetLang, utf8_lines
from .errors import MalformedFile
from .textprep import indic_script

# The scheme file shipped for each dataset whose comments are transliterated.
BUNDLED_SCHEMES = {DatasetLang.TAMIL: "tamil.tsv", DatasetLang.MALAYALAM: "malayalam.tsv"}


def script_of(cp: str) -> str:
    """Unicode block classification: Latin, Tamil, Malayalam, Devanagari, Other."""
    o = ord(cp)
    if (0x0041 <= o <= 0x005A) or (0x0061 <= o <= 0x007A) or (0x00C0 <= o <= 0x024F):
        return "Latin"
    script = indic_script(cp)
    return script.name if script else "Other"


@dataclass(frozen=True)
class SchemeTable:
    entries: dict[str, str]
    # Matches the longest key at a position where a key starts with a Latin
    # letter; built from ``entries`` by make_scheme_table.
    pattern: re.Pattern = field(compare=False, repr=False)


def make_scheme_table(entries: dict[str, str]) -> SchemeTable:
    if not entries:
        raise ValueError("scheme table has no entries")
    if any(k == "" for k in entries):
        raise ValueError("scheme table keys must be non-empty")
    # One alternation of the keys, grouped by first letter so that the
    # engine tries only one group at a position, and longest first within
    # each group, so the first match is the longest key. A match starts
    # only on a Latin letter, so keys starting otherwise are left out.
    rests: dict[str, list[str]] = {}
    for key in sorted(entries, key=len, reverse=True):
        if script_of(key[0]) == "Latin":
            rests.setdefault(key[0], []).append(re.escape(key[1:]))
    # "(?!)" never matches: a table without Latin keys changes nothing.
    pattern = re.compile("|".join(f"{re.escape(first)}(?:{'|'.join(rest)})"
                                  for first, rest in rests.items()) or "(?!)")
    return SchemeTable(entries=dict(entries), pattern=pattern)


def load_scheme_table(path) -> SchemeTable:
    """Read a scheme file; a line that is not ``latin<TAB>native`` raises
    MalformedFile naming it, as does a file without one entry."""
    entries: dict[str, str] = {}
    for line_no, line in utf8_lines(path):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0]:
            raise MalformedFile(path, line_no, "expected latin<TAB>native")
        entries[fields[0]] = fields[1]
    if not entries:
        raise MalformedFile(path, None, "no latin<TAB>native entries")
    return make_scheme_table(entries)


def scheme_file(lang: DatasetLang, path=None):
    """The scheme file that transliterates ``lang``'s comments: ``path`` when
    given, else the one shipped for ``lang``; None for a dataset outside
    BUNDLED_SCHEMES, whose comments are not transliterated."""
    if lang not in BUNDLED_SCHEMES:
        return None
    return path or resources.files("hopedetect.data").joinpath(BUNDLED_SCHEMES[lang])


def scheme_table(lang: DatasetLang, path=None) -> SchemeTable | None:
    """The table of ``scheme_file(lang, path)``, or None for a dataset
    whose comments are not transliterated."""
    path = scheme_file(lang, path)
    return None if path is None else load_scheme_table(path)


def transliterate(text: str, table: SchemeTable) -> str:
    """Greedy longest-match over table keys, left to right.

    Only Latin characters are candidates for matching; everything else is
    copied through byte-identically.
    """
    entries = table.entries
    return table.pattern.sub(lambda m: entries[m[0]], text)
