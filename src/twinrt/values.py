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
    """Recursively check that ``value`` lies within the union and its bounds."""
    tag = value_type(value)
    if tag == "integer":
        if not (INT64_MIN <= value <= INT64_MAX):
            raise SchemaViolation(f"integer {value} exceeds 64-bit signed range")
    elif tag == "real":
        if value != value or value in (float("inf"), float("-inf")):
            raise SchemaViolation("real value must be finite")
    elif tag == "record":
        for key, item in value.items():
            if not isinstance(key, str):
                raise SchemaViolation("record keys must be text")
            validate_value(item)
    elif tag == "list":
        for item in value:
            validate_value(item)


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


def canonical_json(obj: Any) -> str:
    """Deterministic single-line JSON: sorted keys, no spaces, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False, allow_nan=False)


def _refuse_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name!r}")


def strict_loads(raw: bytes) -> dict[str, Any]:
    """Parse one UTF-8 JSON object: the one decoder for wire lines and
    journal entries. Bad UTF-8 or JSON, NaN, ±Infinity and any value that is
    not an object raise ValueError; each caller maps it to its own error."""
    obj = json.loads(raw.decode("utf-8"), parse_constant=_refuse_constant)
    if not isinstance(obj, dict):
        raise ValueError("not an object")
    return obj


def digest(obj: Any) -> str:
    """Stable content digest of a JSON-representable object."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
