"""Exception hierarchy shared by all pipeline stages."""


class HopedetectError(Exception):
    """Base class for every error raised by this package."""


def _where(path, line_no) -> str:
    """``PATH: line N: ``, or as much of it as is known."""
    where = f"line {line_no}: " if line_no is not None else ""
    return f"{path}: {where}" if path is not None else where


class UnknownLabel(HopedetectError):
    def __init__(self, raw, line_no=None, path=None):
        super().__init__(f"{_where(path, line_no)}unknown label {raw!r}")
        self.raw = raw
        self.path = path
        self.line_no = line_no


class EmptyFile(HopedetectError):
    pass


class UnlabeledInput(HopedetectError):
    pass


class TooFewRows(HopedetectError):
    pass


class BadFraction(HopedetectError):
    pass


class EmptyCorpus(HopedetectError):
    pass


class EmptyVocabulary(HopedetectError):
    pass


class DimensionMismatch(HopedetectError):
    """Shapes that do not fit; ``path`` and ``line_no`` name the vector file
    and line at fault, when there is one."""

    def __init__(self, detail, line_no=None, path=None):
        super().__init__(_where(path, line_no) + detail)
        self.path = path
        self.line_no = line_no


class NonNumericValue(HopedetectError):
    def __init__(self, path, token, line_no):
        super().__init__(f"{path}: line {line_no}: {token!r} is not a finite number")
        self.path = path
        self.line_no = line_no


class RowCountMismatch(HopedetectError):
    pass


class SingleClass(HopedetectError):
    pass


class EmptyPredictions(HopedetectError):
    pass


class LengthMismatch(HopedetectError):
    pass


class ConfigError(HopedetectError):
    pass


class StageError(HopedetectError):
    """Wraps an error from a pipeline stage with the stage name."""

    def __init__(self, stage, cause):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


class MalformedFile(HopedetectError):
    """A saved model, vocabulary, language profile or scheme table that
    cannot be read; ``line_no`` is None when no one line is at fault."""

    def __init__(self, path, line_no, detail):
        super().__init__(f"{_where(path, line_no)}{detail}")
        self.path = path
        self.line_no = line_no


class MalformedRow(MalformedFile):
    """A line of a data file that is not a comment row."""
