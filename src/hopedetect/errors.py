"""Exception hierarchy shared by all pipeline stages."""


class HopedetectError(Exception):
    """Base class for every error raised by this package."""


class MalformedRow(HopedetectError):
    def __init__(self, line_no, detail):
        super().__init__(f"line {line_no}: {detail}")
        self.line_no = line_no


class UnknownLabel(HopedetectError):
    def __init__(self, raw, line_no=None):
        where = f"line {line_no}: " if line_no is not None else ""
        super().__init__(f"{where}unknown label {raw!r}")
        self.raw = raw
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
    def __init__(self, detail, line_no=None):
        where = f"line {line_no}: " if line_no is not None else ""
        super().__init__(where + detail)
        self.line_no = line_no


class NonNumericValue(HopedetectError):
    def __init__(self, token, line_no):
        super().__init__(f"line {line_no}: {token!r} is not a finite number")
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
        where = f"line {line_no}: " if line_no is not None else ""
        super().__init__(f"{path}: {where}{detail}")
        self.path = path
        self.line_no = line_no
