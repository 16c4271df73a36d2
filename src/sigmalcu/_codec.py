"""JSON files and the ``[re, im]`` pair encoding shared by every format.

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

from .matrices import _require_power_of_two

_MISSING = object()

_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list"}


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
    """Row-major ``[re, im]`` pairs as a ``dim`` x ``dim`` matrix.  Without
    ``dim`` the side is inferred and must be a power of two."""
    if dim is None:
        dim = math.isqrt(len(pairs))
        if dim * dim != len(pairs):
            raise ValueError(f"matrix of {len(pairs)} entries is not square")
        _require_power_of_two(dim)
    elif len(pairs) != dim * dim:
        raise ValueError(f"matrix payload has {len(pairs)} entries, expected {dim * dim}")
    try:
        flat = np.array([complex(re, im) for re, im in pairs])
    except (TypeError, ValueError, OverflowError):
        raise ValueError("matrix entries must be [re, im] pairs of numbers") from None
    if not np.isfinite(flat).all():
        raise ValueError("matrix entries out of floating-point range")
    return flat.reshape(dim, dim)
