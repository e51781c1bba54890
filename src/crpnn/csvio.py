"""The one CSV format of the package: datasets, spectra and CLI tables.

A file is a header line and one line per row, cells joined by ``,``, ``\\n``
line ends, UTF-8.  Cells are ``str``, ``int`` or Python ``float`` and are
written with ``str()``, which for a float is its round-trip repr.  Every
string cell the package writes is a fixed header or a variant name, so no
cell needs quoting.  Reading goes through :mod:`csv`, so quoted cells parse
too; blank lines are skipped, and every error names its line.
"""

import csv
import io


class FormatError(ValueError):
    """A CSV file is malformed; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def write_csv(header, rows):
    """CSV bytes of a header and rows of str, int or Python float cells.

    Every row must be as wide as the header; each is formatted with one
    ``%`` of a ``%s`` template, and ``%s`` is ``str()``.
    """
    line = ",".join(["%s"] * len(header))
    lines = [",".join(header)]
    lines.extend(line % tuple(row) for row in rows)
    lines.append("")
    return "\n".join(lines).encode("utf-8")


def decode(data, error):
    """The text of CSV bytes (text passes through); bad UTF-8 raises ``error``."""
    if not isinstance(data, (bytes, bytearray)):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"not valid UTF-8: {exc}") from exc


def read_csv(data, error):
    """Split CSV bytes (or text) into its header and a lazy row iterator.

    The iterator yields ``(lineno, cells)`` for each non-blank row, every row
    as wide as the header.  Malformed input raises ``error``, a
    :class:`FormatError` subclass; rows are checked only as they are read,
    so a caller's header check still comes first.
    """
    records = _records(csv.reader(io.StringIO(decode(data, error))), error)
    header = next(records, None)
    if header is None:
        raise error("missing header", line=1)
    return header, _rows(records, len(header), error)


def _records(reader, error):
    """The reader's records; a :class:`csv.Error` raises ``error`` at its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise error(f"malformed CSV: {exc}", line=reader.line_num) from exc


def _rows(records, width, error):
    for lineno, cells in enumerate(records, start=2):
        if not cells:
            continue
        if len(cells) != width:
            raise error(f"expected {width} cells, got {len(cells)}", line=lineno)
        yield lineno, cells
