"""CSV text in blocks: the one writer every sidecar uses, and the row reader.

:func:`write_rows` writes up to ``BLOCK_ROWS`` rows with one call. Rows end
in ``\\r\\n``, as ``csv.writer`` ends them; a free-text field goes through
:func:`quote` first. When every conversion of the row format is ``%d``,
``%.Nf`` or ``%.Ng``, a block is encoded in numpy, byte for byte as ``%``
writes it and with no Python object per value: the literal text and each
field's bytes go into one byte matrix with a row per CSV row, four digits per
table lookup and NUL before a number's first digit; one ``bytes.translate``
then drops the NULs. ``%.Nf`` rounds ``|x|*10**N`` exactly, half to even as
CPython does, from an error-free product (see :func:`_fixed`). ``%.Ng`` in
fixed notation is ``%.{N-1-X}f`` with trailing zeros and a bare ``.``
stripped, X being the decimal exponent after rounding to N significant
digits; X is decided exactly against the exact powers of ten (see
:func:`_general`). A block is written by ``fmt * rows % values`` instead
(:func:`_percent_block`) when the format holds another conversion, a value is
out of the encoder's range (not finite; ``|x|*10**N >= 2**52`` for ``%.Nf``;
for ``%.Ng``, a value ``%`` writes in exponent notation, or a block whose
values span more than 18 digits between them) or a column's dtype is not the
one its conversion takes (integer or bool for ``%d``, floating for ``%.Nf``
and ``%.Ng``).

:func:`read_rows` reads any CSV the ``csv`` module reads (quoted fields
included), parses each row with the caller's function, and reports a bad row
as ``path:line: bad <kind> row: <problem>`` (:func:`row_error`), the line
being physical. The annotation reader parses plain files with numpy's C
``loadtxt`` first and re-reads anything it rejects with :func:`read_rows`.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

from .errors import FormatError

BLOCK_ROWS = 4096

# a conversion: %d, %.Nf, %.Ng, a literal %%, or (no group) anything else
_CONVERSION = re.compile(r"%(d|\.(\d+)([fg])|%)?")
# |x|*10**N below it: half-integers are floats, and rint's result an exact int64
_ENCODED_LIMIT = 2.0 ** 52
# the largest N of %.Nf and %.Ng: beyond, only |x| < 1 is in range for %.Nf,
# and 10**N reaches _ENCODED_LIMIT for %.Ng
_MAX_DIGITS = 15
_MAX_FIELD_DIGITS = 18  # a field's integer and fraction digits: its int64 stays below 10**18
_LOWEST_FIXED = -4  # %g writes X < -4 in exponent notation, as it does X >= N
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for float64
_MINUS, _POINT, _ZERO = ord("-"), ord("."), ord("0")
_INT64 = np.iinfo(np.int64)


def _whole_words() -> np.ndarray:
    """The words of an integer part, four digits per table lookup: index k
    is k zero-filled ("0000" to "9999"), for a word below the first nonzero
    one, index 10000 + k is k with NUL for its leading zeros, for that first
    word (all NUL for 0), and index 20000 is a lone "0", for the last word of
    an integer part that is 0. Built in place: no temporary as large as a
    table."""
    table = np.zeros((20001, 4), dtype=np.uint8)
    quads = table[:20000].reshape(2, 10, 10, 10, 10, 4)  # [half, d0, d1, d2, d3, byte]
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for j in range(4):
        quads[..., j] = digit.reshape((10,) + (1,) * (3 - j))
        quads[(1,) + (0,) * (j + 1)][..., j] = 0  # byte j is a leading zero
    table[20000, 3] = ord("0")
    return table.view(np.uint32).ravel()


def _fraction_words(whole: np.ndarray) -> np.ndarray:
    """The words of a fraction: index k is k zero-filled, and index
    10000 + k is k with NUL for its trailing zeros, for a ``%g`` word that
    only zero words follow."""
    table = np.tile(whole[:10000].view(np.uint8).reshape(-1, 4), (2, 1))
    tail = table[10000:]
    tail[np.logical_and.accumulate(tail[:, ::-1] == _ZERO, axis=1)[:, ::-1]] = 0
    return table.view(np.uint32).ravel()


_WHOLE = _whole_words()
_FRACTION = _fraction_words(_WHOLE)


def _decade_starts(low: int, high: int) -> np.ndarray:
    """For k = low..high, the smallest float >= 10**k, so that a float is
    >= 10**k exactly when it is >= this one. Decided in integers."""
    starts = []
    for k in range(low, high + 1):
        f = float(f"1e{k}")  # correctly rounded, so at most one float off
        p, q = f.as_integer_ratio()
        if p * 10 ** max(-k, 0) < q * 10 ** max(k, 0):
            f = math.nextafter(f, math.inf)
        starts.append(f)
    return np.array(starts)


# the decades %.Ng can write in fixed notation: one below -4, which may round up into it
_LOWEST_DECADE = _LOWEST_FIXED - 1
_DECADE_STARTS = _decade_starts(_LOWEST_DECADE, _MAX_DIGITS)
# 10**k as exact floats and as int64, for the fraction digits %.Ng takes
_POWERS = np.array([float(10**k) for k in range(_MAX_DIGITS - _LOWEST_DECADE)])
_INT_POWERS = np.array([10**k for k in range(_MAX_FIELD_DIGITS + 1)], dtype=np.int64)
# masks keeping the last k bytes of a word
_KEEP_LAST = {k: np.array([0] * (4 - k) + [255] * k, dtype=np.uint8).view(np.uint32)[0] for k in (1, 2, 3)}


def quote(text: str) -> str:
    """``text`` as ``csv.writer`` writes a field (minimal quoting)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_rows(path, header, fmt: str, columns) -> None:
    """Write ``header`` and then row i of ``columns`` as ``fmt % (row i)``.

    ``fmt`` formats one row, ``\\r\\n`` included. Columns are equal-length
    sequences (lists, tuples, ranges or 1-D numpy arrays); they are sliced,
    never copied whole, so memory stays at one block. Columns of unequal
    length raise :class:`ValueError` before the file is opened.
    """
    plan = _plan(fmt)
    n = len(columns[0])
    if any(len(c) != n for c in columns):  # numpy would broadcast a 1-row column
        raise ValueError(f"columns of {', '.join(str(len(c)) for c in columns)} rows")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, n, BLOCK_ROWS):
            block = [c[start:start + BLOCK_ROWS] for c in columns]
            encoded = None if plan is None else _encode(*plan, block)
            fh.write(_percent_block(fmt, block) if encoded is None else encoded)


def _percent_block(fmt: str, block) -> bytes:
    """The block as ``fmt * rows % values``, encoded as UTF-8."""
    width, m = len(block), len(block[0])
    flat = [None] * (m * width)
    for j, part in enumerate(block):
        flat[j::width] = part.tolist() if hasattr(part, "tolist") else part
    return (fmt * m % tuple(flat)).encode()


def _plan(fmt: str):
    """``(literals, conversions)`` when every conversion in ``fmt`` is ``%d``,
    ``%.Nf`` or ``%.Ng``: the literal bytes before each field and after the
    last, and per field its ``(function, N)`` (N is 0 for ``%d``). None
    otherwise, or when a literal holds a NUL, the encoder's padding byte."""
    literals, conversions, text, pos = [], [], "", 0
    for match in _CONVERSION.finditer(fmt):
        text += fmt[pos:match.start()]
        pos = match.end()
        if match.group(1) == "%":
            text += "%"
            continue
        if match.group(1) is None:
            return None
        kind, n = match.group(3) or "d", int(match.group(2) or 0)
        if n > _MAX_DIGITS or (kind == "g" and n == 0):
            return None
        literals.append(text.encode())
        conversions.append(({"d": _integer, "f": _fixed, "g": _general}[kind], n))
        text = ""
    literals.append((text + fmt[pos:]).encode())
    if any(b"\0" in literal for literal in literals):
        return None
    return literals, conversions


def _encode(literals, conversions, block) -> bytes | None:
    """The block's rows, or None when a column is outside the encoder's range."""
    fields = []
    for column, (convert, n) in zip(block, conversions):
        field = convert(column, n)
        if field is None:
            return None
        fields.append(field)
    width = sum(map(len, literals)) + sum(_width(*field) for field in fields)
    rows = np.zeros((len(block[0]), width), dtype=np.uint8)
    at = 0
    for literal, field in zip(literals, fields + [None]):
        rows[:, at:at + len(literal)] = np.frombuffer(literal, dtype=np.uint8)
        at += len(literal)
        if field is not None:
            at = _put(rows, at, *field)
    return rows.tobytes().translate(None, b"\0")


def _integer(column, n: int = 0):
    """The ``%d`` field of an integer or bool column (see :func:`_field`); ``n`` is 0."""
    values = np.asarray(column)
    if values.dtype.kind == "b":
        return _field(None, values.astype(np.int64), 0)
    if values.dtype.kind not in "iu" or not (_INT64.min < values.min() and values.max() <= _INT64.max):
        return None
    values = values.astype(np.int64, copy=False)
    return _field(values < 0, np.abs(values), 0)


def _fixed(column, n: int):
    """The ``%.nf`` field of a column (see :func:`_field`): ``|x|*10**n``
    rounded half to even, exactly, as CPython rounds it.

    ``hi = fl(|x|*10**n)`` is the product rounded to nearest. If ``hi`` is not
    a half-integer, the exact product lies on the same side of every
    half-integer as ``hi`` (each is a float below 2**52), so ``rint(hi)`` is
    its rounding. If it is one, the product's rounding error (Dekker's
    two-product with Veltkamp splits, since numpy has no fma) says which side
    the exact product lies on; only an exact tie is left to ``rint``'s half
    to even. The sign is ``signbit``'s, so -0.0 and a negative value that
    rounds to zero print ``-0.…``, as ``%`` prints them.
    """
    x = np.asarray(column)
    if x.dtype.kind != "f":
        return None
    x = x.astype(np.float64, copy=False)
    scale = 10.0 ** n
    a = np.abs(x)
    # the largest product, rounded as each is: a Python float overflows to
    # inf without a warning, and inf and NaN fail the comparison
    if not float(a.max()) * scale < _ENCODED_LIMIT:
        return None
    return _field(np.signbit(x), _rounded(a, scale).astype(np.int64), n)


def _rounded(a, scale):
    """``a*scale`` rounded half to even, exactly, as :func:`_fixed` states it,
    for products below ``_ENCODED_LIMIT``; ``scale`` is a float or an array
    like ``a``."""
    hi = a * scale
    rounded = np.rint(hi)
    off = hi - rounded
    tie = np.abs(off) == 0.5
    if tie.any():
        lo = _product_error(a[tie], np.broadcast_to(scale, a.shape)[tie], hi[tie])
        off = off[tie]
        rounded[tie] += ((off > 0) & (lo > 0)).astype(np.float64) - ((off < 0) & (lo < 0))
    return rounded


def _general(column, n: int):
    """The ``%.ng`` field of a floating column (see :func:`_field`), or None
    when a value is not written in fixed notation or the block spans more
    than ``_MAX_FIELD_DIGITS`` digits.

    A nonzero ``|x|`` in decade e (``10**e <= |x| < 10**(e+1)``, decided by
    :func:`_decade_starts`' exact bounds) has ``d = n-1-e`` fraction digits
    at n significant ones: ``|x|*10**d`` is below ``10**n`` and rounded as
    :func:`_fixed` rounds it, the power of ten being an exact float. A
    rounding that reaches ``10**n`` moves x into decade X = e + 1, with one
    fraction digit fewer and ``10**(n-1)`` as its digits. ``%g`` writes X in
    [-4, n) in fixed notation, which this field is: every value is scaled to
    the block's most fraction digits and :func:`_put` strips the trailing
    zeros and a bare point. A zero has no digits and prints ``0`` (``-0``
    with its sign bit).
    """
    x = np.asarray(column)
    if x.dtype.kind != "f":
        return None
    x = x.astype(np.float64, copy=False)
    a = np.abs(x)
    zero = a == 0.0
    # NaN and inf sort after every start, into a decade beyond n - 1
    e = np.searchsorted(_DECADE_STARTS, a, side="right") + (_LOWEST_DECADE - 1)
    if not np.all(zero | ((e >= _LOWEST_DECADE) & (e < n))):
        return None
    digits = np.where(zero, 0, n - 1 - e)
    rounded = _rounded(a, _POWERS[digits])
    up = rounded == _POWERS[n]
    rounded[up] = _POWERS[n - 1]
    digits -= up
    live = digits[~zero]
    top = int(live.max(initial=0))
    low = int(live.min(initial=top))
    # X = n-1-d lies in [-4, n) for each d; the widest value has n + top - low digits
    if top > n - 1 - _LOWEST_FIXED or low < 0 or n + top - low > _MAX_FIELD_DIGITS:
        return None
    scaled = rounded.astype(np.int64) * _INT_POWERS[top - np.where(zero, top, digits)]
    return _field(np.signbit(x), scaled, top, strip=True)


def _product_error(a, b: float, p):
    """``a*b - p`` exactly, for ``p = fl(a*b)`` with no overflow or underflow."""
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _field(negative, scaled, n: int, strip: bool = False):
    """``(negative, scaled, words, n, strip)``: the rows that take a minus
    sign (None if none does), the magnitudes times ``10**n`` as int64, the
    4-byte words the widest integer part needs, the fraction digits ``n``,
    and whether trailing fraction zeros are dropped (``%g``)."""
    if negative is not None and not negative.any():
        negative = None
    return negative, scaled, -(-max(len(str(int(scaled.max()))) - n, 1) // 4), n, strip


def _width(negative, scaled, words: int, n: int, strip: bool) -> int:
    return (negative is not None) + 4 * words + (1 + 4 * -(-n // 4) if n else 0)


def _put(rows, at: int, negative, scaled, words: int, n: int, strip: bool) -> int:
    """Write one field into ``rows`` from column ``at``, four digits per
    table lookup; return the column after it."""
    if negative is not None:
        rows[:, at] = negative.view(np.uint8) * np.uint8(_MINUS)
        at += 1
    whole = scaled // 10**n if n else scaled
    # the integer part: its words zero-filled below the first nonzero one,
    # and that one without leading zeros (a part of 0 is a lone "0")
    rest = whole
    for k in range(words - 1, -1, -1):
        value, rest = rest, rest // 10000
        index = value - rest * 10000 + 10000 * (rest == 0)
        if k == words - 1:
            index += 10000 * (whole == 0)
        _word_column(rows, at + 4 * k)[...] = _WHOLE[index]
    at += 4 * words
    if not n:
        return at
    point, at = at, at + 1
    words = -(-n // 4)
    rest = scaled - whole * 10**n
    # stripped (%g): 10000 while only zero words follow, so that the word's
    # trailing zeros are dropped, and 0 after a nonzero one
    after = 10000 if strip else 0
    for k in range(words - 1, -1, -1):
        value = rest
        if k:
            rest = rest // 10000
            value = value - rest * 10000
        word = _FRACTION[value + after]
        if k == 0 and n % 4:  # the top word holds n % 4 digits
            word &= _KEEP_LAST[n % 4]
        _word_column(rows, at + 4 * k)[...] = word
        if strip:
            after = after * (value == 0)
    rows[:, point] = _POINT
    if strip:  # no point before a fraction with no digits left
        rows[:, point] *= after == 0
    return at + 4 * words


def _word_column(rows, at: int) -> np.ndarray:
    """Bytes ``at..at+3`` of every row of ``rows`` as one (unaligned) uint32."""
    return np.ndarray((len(rows),), np.uint32, rows, at, (rows.strides[0],))


def row_error(path, line: int, kind: str, problem) -> FormatError:
    """The error for a bad row: ``path:line: bad <kind> row: <problem>``."""
    return FormatError(f"{path!s}:{line}: bad {kind} row: {problem}")


def read_rows(path, header: list[str], kind: str, parse):
    """Yield ``(line number, parse(fields))`` for each non-blank row after ``header``.

    The line number is the file's physical line on which the row ends, so a
    quoted field that spans lines does not shift the numbers after it.

    A different first row, text that is not UTF-8, a row ``csv.reader``
    rejects, or a row on which ``parse`` raises :class:`ValueError` raises
    :class:`FormatError` naming the file (and the line, for a row).
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first != header:
                raise FormatError(f"bad {kind} header in {path!r}: {first}")
            for fields in reader:
                if fields:
                    try:
                        value = parse(fields)
                    except ValueError as exc:
                        raise row_error(path, reader.line_num, kind, exc) from exc
                    yield reader.line_num, value
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path!s}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise row_error(path, reader.line_num, kind, exc) from None
