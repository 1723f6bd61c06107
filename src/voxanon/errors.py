"""Exception types shared across the package, and the checked text-file reader."""

from pathlib import Path


class ConfigError(Exception):
    """Raised when a run configuration is malformed or incomplete."""


class DataError(Exception):
    """Raised when an input file or data record cannot be used."""


def read_lines(path: Path, what: str) -> list[str]:
    """The lines of the UTF-8 text file ``path``.

    A file that cannot be read, or holds a byte sequence that is not UTF-8,
    raises ``DataError`` naming the file (and the line of the bad byte).
    """
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        lineno = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise DataError(f"{path}, line {lineno}: not UTF-8 text ({exc.reason})") from None
