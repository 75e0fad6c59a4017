"""Exceptions of the package, and the exit code the CLI gives each.

- ``HopedetectError``: input the pipeline cannot use (exit 2, ``input error:``).
  The base of the other two. An input error of a pipeline stage is one,
  its message prefixed ``[stage]``.
- ``MalformedFile``: an input file that cannot be read, naming the file and
  the line at fault where they are known (exit 2).
- ``ConfigError``: a bad setting, config file or bundle (exit 3,
  ``config error:``).
"""


class HopedetectError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(HopedetectError):
    pass


class MalformedFile(HopedetectError):
    """``PATH: line N: detail``, or as much of the prefix as is known;
    ``line_no`` is None when no one line is at fault."""

    def __init__(self, path, line_no, detail):
        where = f"line {line_no}: " if line_no is not None else ""
        super().__init__(f"{path}: {where}{detail}" if path is not None else where + detail)
        self.path = path
        self.line_no = line_no

