"""Exception types shared across the package, the two checked readers
(``read_lines`` for text files, ``read_npz`` for the ``.npz`` archives of
feature streams and weights) and their writers ``write_npz`` and
``write_jsonl``."""

import json
import lzma
import zipfile
import zlib
from pathlib import Path

import numpy as np


class ConfigError(Exception):
    """Raised when a run configuration is malformed or incomplete."""


class DataError(Exception):
    """Raised when an input file or data record cannot be used."""


# What numpy and zipfile raise for a damaged archive; a zip entry may claim
# any compression method, or encryption (RuntimeError).
_ARCHIVE_ERRORS = (ValueError, EOFError, zipfile.BadZipFile, zlib.error, lzma.LZMAError,
                   NotImplementedError, RuntimeError)


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


def read_npz(path: Path, entries: tuple[str, ...], what: str) -> list[np.ndarray]:
    """The arrays ``entries`` of the ``.npz`` archive ``path``, in that order.

    Anything but an archive of exactly those entries, holding no pickled
    objects, raises ``DataError`` naming the file.
    """
    try:
        # Given a path, np.load leaks its handle when the zip is truncated.
        with path.open("rb") as fh:
            try:
                archive = np.load(fh, allow_pickle=False)
            except _ARCHIVE_ERRORS as exc:
                # np.load reports any file that is neither zip nor .npy as pickled data.
                raise DataError(f"{path}: not an .npz archive, or a truncated one") from exc
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise DataError(f"{path}: a bare .npy array, not an .npz archive")
            with archive:
                if set(archive.files) != set(entries):
                    raise DataError(f"{path}: missing entries or extra ones: archive holds "
                                    f"{sorted(archive.files)}, expected {sorted(entries)}")
                return [archive[name] for name in entries]
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    except _ARCHIVE_ERRORS as exc:
        raise DataError(f"{path}: unreadable entry: {exc}") from exc


def write_npz(path: Path, **entries: np.ndarray) -> None:
    """Write ``entries`` as an uncompressed ``.npz``; equal entries give equal bytes."""
    # np.savez appends ".npz" to a path it is given; a handle keeps the name.
    with Path(path).open("wb") as fh:
        np.savez(fh, **entries)


# What ``json.dumps(record, sort_keys=True)`` builds anew for every record.
_SORTED_JSON = json.JSONEncoder(sort_keys=True)


def write_jsonl(path: Path, records) -> None:
    """Write ``records`` as JSON lines, one object a line with sorted keys."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(_SORTED_JSON.encode(record) + "\n")
