"""Hope-speech detection pipeline for code-mixed comment data."""

from .corpus import DatasetLang, Label, LabeledComment, compute_stats, load_tsv
from .metrics import aggregate, confusion, render_report
from .textprep import normalize_text

__version__ = "0.1.0"

__all__ = [
    "DatasetLang",
    "Label",
    "LabeledComment",
    "aggregate",
    "compute_stats",
    "confusion",
    "load_tsv",
    "normalize_text",
    "render_report",
    "__version__",
]
