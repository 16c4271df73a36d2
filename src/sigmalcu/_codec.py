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

:func:`read_json` parses with orjson, about 3x faster than json on an
oracle file's 17-digit floats, and leaves every refusal to json.  orjson
reads a shallow ASCII document and the caller's schema, ``build``, makes
the result from its value.  json reads any other document, and again any
document that orjson or ``build`` refuses, and ``build`` then runs on
json's value.  An accepted document therefore yields json's value and a
refused one json's message.  On the documents orjson is given the two
parsers agree, floats bit for bit, but for an integer literal outside
[-2^63, 2^64), which orjson reads as a float: a schema that wants an
integer refuses it, and one that wants a number turns json's integer into
the same float.  Nesting is why a document must be shallow: orjson parses
any depth until its stack overflows and the process dies (a million
brackets do it), while json refuses nesting past Python's recursion limit.
"""

from __future__ import annotations

import cmath
import io
import json
import math
from typing import Callable, TypeVar

import numpy as np

_MISSING = object()

_T = TypeVar("_T")

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


# bytes.translate arguments that keep only a document's brackets, as [ and ],
# its quotes and its backslashes.
_OUTLINE = bytes.maketrans(b"{}", b"[]"), bytes(sorted(set(range(256)) - set(b'[]{}"\\')))

# The deepest nesting that orjson parses; json takes anything deeper.
_ORJSON_DEPTH = 32


def _nests_at_most(data: bytes, depth: int) -> bool:
    """Whether the brackets of ``data`` outside its strings nest at most
    ``depth`` deep.  Without a backslash every quote starts or ends a
    string; with one, or if ``data`` is malformed, the answer is False."""
    outline = data.translate(*_OUTLINE)
    if b"\\" in outline:
        return False
    outline = b"".join(outline.split(b'"')[::2])  # the brackets outside the strings
    for _ in range(depth):  # each pass drops the innermost pairs
        outline = outline.replace(b"[]", b"")
    return not outline


def read_json(path: str, build: Callable[[object], _T]) -> _T:
    """``build`` of the JSON document at ``path``, parsed by orjson if it is
    ASCII and shallow and by json otherwise, or if orjson or ``build``
    refuses orjson's value (see the module docstring)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data.isascii() and _nests_at_most(data, _ORJSON_DEPTH):
        import orjson  # imported here: only the JSON readers need it

        try:
            return build(orjson.loads(data))
        except Exception:
            # Whatever refused, orjson or build: json's value decides, and a
            # true refusal is raised again from it in json's words.
            pass
    # As open(path, encoding="ascii") reads the file: decode errors and line ends alike.
    with io.TextIOWrapper(io.BytesIO(data), encoding="ascii") as fh:
        try:
            value = json.load(fh, parse_constant=_reject_constant)
        except RecursionError:
            raise ValueError("JSON nesting too deep") from None
    return build(value)


def write_json(path, payload: dict | str, indent: int | None = None) -> None:
    """Write ``payload``, serialized by json or, as a str, already rendered,
    and a newline.  Serialize first, so that a non-finite value leaves no
    partial file."""
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=indent, allow_nan=False)
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


def pairs_json(values: np.ndarray) -> str:
    """The text ``json.dumps([[v.real, v.imag] for v in values],
    allow_nan=False)`` writes for complex ``values``, byte for byte, with
    the same refusal of a non-finite part: one row of bytes per value
    (:func:`join_rows`), which ``float.__repr__`` writes as json does."""
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    if not values.size:
        return "[]"
    pairs = join_rows([b"[", float_column(values.real), b", ", float_column(values.imag), b"], "])
    return "[" + pairs[: -len(b", ")].decode("ascii") + "]"


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
