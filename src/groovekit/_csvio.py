"""CSV text in blocks: the one writer every sidecar uses, and the row reader.

Writers format up to ``BLOCK_ROWS`` rows with a single ``%`` and write them
with one call. Rows end in ``\\r\\n``, as ``csv.writer`` ends them; a
free-text field goes through :func:`quote` first.

:func:`read_rows` reads any CSV the ``csv`` module reads (quoted fields
included) and numbers each row by its physical line for the caller's error
messages. The annotation reader parses plain files with numpy's C
``loadtxt`` first and re-reads anything it rejects with :func:`read_rows`.
"""

from __future__ import annotations

import csv

from .errors import FormatError

BLOCK_ROWS = 4096


def quote(text: str) -> str:
    """``text`` as ``csv.writer`` writes a field (minimal quoting)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_rows(path, header, fmt: str, columns) -> None:
    """Write ``header`` and then row i of ``columns`` as ``fmt % (row i)``.

    ``fmt`` formats one row, ``\\r\\n`` included. Columns are equal-length
    sequences (lists, tuples or 1-D numpy arrays); they are sliced, never
    copied whole, so memory stays at one block.
    """
    width = len(columns)
    n = len(columns[0])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n, BLOCK_ROWS):
            block = [c[start:start + BLOCK_ROWS] for c in columns]
            m = len(block[0])
            flat = [None] * (m * width)
            for j, part in enumerate(block):
                flat[j::width] = part.tolist() if hasattr(part, "tolist") else part
            fh.write(fmt * m % tuple(flat))


def read_rows(path, header: list[str], kind: str):
    """Yield ``(line number, fields)`` for each non-blank row after ``header``.

    The line number is the file's physical line on which the row ends, so a
    quoted field that spans lines does not shift the numbers after it.

    A different first row, text that is not UTF-8, or a row ``csv.reader``
    rejects raises :class:`FormatError` naming the file.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first != header:
                raise FormatError(f"bad {kind} header in {path!r}: {first}")
            for row in reader:
                if row:
                    yield reader.line_num, row
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path!s}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise FormatError(f"{path!s}:{reader.line_num}: bad {kind} row: {exc}") from None
