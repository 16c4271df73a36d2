"""JSON files, the ``[re, im]`` pair encoding and the byte-row text
renderer shared by every format.

Writers that lay out the same text around each item's values (a
decomposition term, a Matrix Market entry, a dense gate's [re, im] pair)
render each item as one row of bytes: the fixed text and columns of
values padded with NUL bytes to one width, joined by :func:`join_rows`,
which drops the NULs.  No file holds a NUL byte.

Readers validate the schema as they go and raise ``ValueError`` with a
one-line message on the first mismatch, so malformed input surfaces as an
input error instead of a ``TypeError`` deep inside a constructor.  Numbers
must be finite both ways: NaN and Infinity literals are refused on read and
on write, and so is a decoded value that overflows to infinity (``1e400``).
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

_MISSING = object()

_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list"}
_NUMBER_TYPES = frozenset((int, float))  # exact types: a boolean is no number


def _require_power_of_two(dim: int) -> int:
    """Return log2(dim), raising ValueError if dim is not a power of two."""
    n = dim.bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name} is not allowed")


def read_json(path: str) -> object:
    with open(path, "r", encoding="ascii") as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except RecursionError:
            raise ValueError("JSON nesting too deep") from None


def write_json(path, payload: dict, indent: int | None = None) -> None:
    """Serialize first, so that a non-finite value leaves no partial file."""
    text = json.dumps(payload, indent=indent, allow_nan=False)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text + "\n")


def field(data: object, key: str, kind: type, default=_MISSING):
    """``data[key]`` checked to be of ``kind``; ``data`` must be a JSON
    object.  ``float`` admits integers, and booleans never pass as
    numbers."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    if key not in data:
        if default is _MISSING:
            raise ValueError(f"missing field {key!r}")
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ValueError(f"field {key!r} must be {_TYPE_NAMES[kind]}, got {type(value).__name__}")
    return value


def int_tuple(data: object, key: str, default=_MISSING) -> tuple[int, ...]:
    values = field(data, key, list, default)
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        raise ValueError(f"field {key!r} must be a list of integers")
    return tuple(values)


def complex_field(data: object) -> complex:
    """The ``{"re": ..., "im": ...}`` coefficient of a term."""
    re, im = field(data, "re", float), field(data, "im", float)
    try:
        value = complex(re, im)
    except OverflowError:  # an integer too large for a float
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise ValueError("coefficient out of floating-point range")
    return value


def complex_pairs(values) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in values]


def complex_matrix(pairs: list, dim: int | None = None) -> np.ndarray:
    """Row-major ``[re, im]`` pairs of numbers, as :func:`field` admits
    them, as a ``dim`` x ``dim`` matrix.  Without ``dim`` the side is
    inferred and must be a power of two."""
    if dim is None:
        dim = math.isqrt(len(pairs))
        if dim * dim != len(pairs):
            raise ValueError(f"matrix of {len(pairs)} entries is not square")
        _require_power_of_two(dim)
    elif len(pairs) != dim * dim:
        raise ValueError(f"matrix payload has {len(pairs)} entries, expected {dim * dim}")
    parts = []
    try:
        for re, im in pairs:
            if type(re) not in _NUMBER_TYPES or type(im) not in _NUMBER_TYPES:
                raise TypeError
            parts += re, im
    except (TypeError, ValueError):
        raise ValueError("matrix entries must be [re, im] pairs of numbers") from None
    try:
        flat = np.array(parts, dtype=float).view(complex)
    except OverflowError:  # an integer too large for a float
        flat = np.array([math.inf])
    if not np.isfinite(flat).all():
        raise ValueError("matrix entries out of floating-point range")
    return flat.reshape(dim, dim)


def require_finite(values: np.ndarray) -> None:
    """Refuse the first non-finite part of the complex values, read as
    [re, im] pairs, with the message of ``json.dumps(..., indent=1,
    allow_nan=False)``."""
    parts = np.stack([values.real, values.imag], axis=-1).ravel()
    bad = ~np.isfinite(parts)
    if bad.any():
        raise ValueError(f"Out of range float values are not JSON compliant: {float(parts[bad.argmax()])!r}")


def float_column(values: np.ndarray, render=repr) -> np.ndarray:
    """``render(v)`` of each float64 value, padded with NUL bytes to one
    width: a ``(len, width)`` uint8 array.  Each distinct bit pattern is
    rendered once."""
    bits, at = np.unique(values.view(np.uint64), return_inverse=True)
    texts = np.array([render(v) for v in bits.view(np.float64).tolist()], dtype="S")
    return texts[at][:, None].view(np.uint8)


def _digit_groups() -> np.ndarray:
    """The four decimal digits of each of 0..9999 as the ASCII codes in one
    uint32, at index ``k``: zero-padded at ``10000 + k``, for a group after
    a nonzero group, and with NUL for the zeros before the first digit at
    ``k``, for a number's leading group (0 is all NULs)."""
    k = np.arange(10000)[:, None]
    powers = np.array([1000, 100, 10, 1])
    padded = (k // powers % 10 + ord("0")).astype(np.uint8)
    leading = np.where(k >= powers, padded, 0).astype(np.uint8)
    return np.concatenate([leading, padded]).view(np.uint32).ravel()


_DIGIT_GROUPS = _digit_groups()


def int_column(values: np.ndarray) -> np.ndarray:
    """The decimal text of each positive integer, padded with NUL bytes on
    the left to one width: a ``(len, width)`` uint8 array.  Each group of
    four digits is looked up in a table."""
    values = np.asarray(values, dtype=np.int64)
    groups = np.empty((values.size, (len(str(values.max(initial=1))) + 3) // 4), dtype=np.uint32)
    rest = values
    for k in range(groups.shape[1] - 1, 0, -1):  # lowest group first
        rest, low = np.divmod(rest, 10000)
        np.take(_DIGIT_GROUPS, low + 10000 * (rest > 0), out=groups[:, k])
    np.take(_DIGIT_GROUPS, rest, out=groups[:, 0])
    return groups.view(np.uint8)


def join_rows(columns: list) -> bytes:
    """Row ``i`` of every column in turn, for each ``i``, without the NUL
    padding.  A column is a ``(len, width)`` uint8 array or a ``bytes``
    constant repeated on every row."""
    size = next(c.shape[0] for c in columns if not isinstance(c, bytes))
    widths = [len(c) if isinstance(c, bytes) else c.shape[1] for c in columns]
    rows = np.empty((size, sum(widths)), dtype=np.uint8)
    at = 0
    for column, width in zip(columns, widths):
        rows[:, at : at + width] = np.frombuffer(column, dtype=np.uint8) if isinstance(column, bytes) else column
        at += width
    return rows[rows != 0].tobytes()
