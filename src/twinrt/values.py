"""Values crossing the runtime's boundaries and their schemas.

A value is a plain Python object drawn from a closed union:
bool, int (64-bit signed), float (finite), str, dict[str, value], list[value].
Schemas are the type names "boolean" | "integer" | "real" | "text" |
"record" | "list". NaN and infinities never cross a boundary: validation
rejects them and the wire codec refuses to encode or decode them.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from .errors import SchemaViolation

Value = Any  # bool | int | float | str | dict[str, Value] | list[Value]

VALUE_TYPES = ("boolean", "integer", "real", "text", "record", "list")

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# How deep a value, a wire line, a journal entry or a YAML document may nest
# (a list or record is one level deeper than its deepest item): far below
# Python's 1 000-frame limit, so no recursive walk of one exhausts the stack.
MAX_DEPTH = 64


def value_type(value: Value) -> str:
    """Return the union tag for ``value``; raise SchemaViolation if outside it."""
    # bool first: it is a subclass of int
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "real"
    if isinstance(value, str):
        return "text"
    if isinstance(value, dict):
        return "record"
    if isinstance(value, list):
        return "list"
    raise SchemaViolation(f"value of type {type(value).__name__} is outside the value union")


def validate_value(value: Value) -> None:
    """Check that ``value`` lies within the union and its bounds, MAX_DEPTH included."""
    _validate(value, MAX_DEPTH)


def _validate(value: Value, room: int) -> None:
    tag = value_type(value)
    if tag == "integer":
        if not (INT64_MIN <= value <= INT64_MAX):
            raise SchemaViolation(f"integer {value} exceeds 64-bit signed range")
    elif tag == "real":
        if value != value or value in (float("inf"), float("-inf")):
            raise SchemaViolation("real value must be finite")
    elif tag == "record" or tag == "list":
        if not room:
            raise SchemaViolation(f"value nests deeper than {MAX_DEPTH} levels")
        if tag == "record" and not all(isinstance(key, str) for key in value):
            raise SchemaViolation("record keys must be text")
        for item in (value.values() if tag == "record" else value):
            _validate(item, room - 1)


def check_value(value: Value, expected: str) -> None:
    """Validate ``value`` and check it against the schema type name ``expected``."""
    if expected not in VALUE_TYPES:
        raise SchemaViolation(f"unknown value type {expected!r}")
    validate_value(value)
    actual = value_type(value)
    if actual != expected:
        raise SchemaViolation(f"expected {expected}, got {actual}")


def fit_value(value: Value, target_type: str | None) -> Value:
    """Fit a number losslessly to a declared schema type: a 64-bit int to a
    real, an integral real to an integer. Anything else is returned as it
    is, for the schema check to judge."""
    if (target_type == "real" and isinstance(value, int) and not isinstance(value, bool)
            and INT64_MIN <= value <= INT64_MAX):
        return float(value)
    if target_type == "integer" and isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def fitted(value: Value, expected: str) -> Value:
    """``value`` fitted to the type ``expected`` and checked: SchemaViolation unless it fits."""
    value = fit_value(value, expected)
    check_value(value, expected)
    return value


def coerce_real(value: Value) -> float:
    """Return ``value`` as a float for arithmetic; rejects non-numeric values."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaViolation(f"expected a numeric value, got {value_type(value)}")
    return float(value)


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False)


def canonical_json(obj: Any) -> str:
    """Deterministic single-line JSON: sorted keys, no spaces, no NaN."""
    return _CANONICAL.encode(obj)


def _refuse_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name!r}")


# built once for every wire line and journal entry; a leading BOM, which
# json.loads names as such, is refused here as an unexpected character
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def _nests_deeper(value: Value) -> bool:
    """Whether ``value`` nests deeper than MAX_DEPTH, walked level by level."""
    level = [value]
    for _ in range(MAX_DEPTH):
        level = [item for c in level for item in (c.values() if isinstance(c, dict) else c)
                 if isinstance(item, (dict, list))]
    return bool(level)


def json_value(text: str) -> Value:
    """Parse one JSON value. Bad JSON, NaN, ±Infinity and nesting deeper than
    MAX_DEPTH raise ValueError."""
    try:
        value = _DECODER.decode(text)
        # a text with no more brackets than the bound cannot nest past it
        deep = text.count("[") + text.count("{") > MAX_DEPTH and _nests_deeper(value)
    except RecursionError:  # the decoder's own limit, far past the bound
        deep = True
    if deep:
        raise ValueError(f"nests deeper than {MAX_DEPTH} levels")
    return value


def strict_loads(raw: bytes) -> dict[str, Any]:
    """Parse one UTF-8 JSON object: the one decoder for wire lines and journal
    entries. Bad UTF-8, what ``json_value`` refuses and any value that is not
    an object raise ValueError; each caller maps it to its own error."""
    obj = json_value(raw.decode("utf-8"))
    if not isinstance(obj, dict):
        raise ValueError("not an object")
    return obj


def digest(obj: Any) -> str:
    """Stable content digest of a JSON-representable object."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
