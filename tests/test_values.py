import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import nested

from twinrt.errors import SchemaViolation
from twinrt.values import (
    INT64_MAX,
    INT64_MIN,
    MAX_DEPTH,
    canonical_json,
    check_value,
    coerce_real,
    digest,
    json_value,
    strict_loads,
    validate_value,
    value_type,
)


@pytest.mark.parametrize("value,expected", [
    (True, "boolean"),
    (0, "integer"),
    (1.5, "real"),
    ("x", "text"),
    ({"a": 1}, "record"),
    ([1, 2], "list"),
])
def test_value_type_tags(value, expected):
    assert value_type(value) == expected


def test_bool_is_not_integer():
    # bool subclasses int in Python; the union keeps them distinct
    assert value_type(True) == "boolean"
    with pytest.raises(SchemaViolation):
        check_value(True, "integer")


def test_none_is_outside_the_union():
    with pytest.raises(SchemaViolation):
        value_type(None)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_reals_rejected(bad):
    with pytest.raises(SchemaViolation):
        validate_value(bad)


def test_non_finite_inside_containers_rejected():
    with pytest.raises(SchemaViolation):
        validate_value({"x": [1.0, float("nan")]})


def test_int64_bounds():
    validate_value(INT64_MAX)
    validate_value(INT64_MIN)
    with pytest.raises(SchemaViolation):
        validate_value(INT64_MAX + 1)
    with pytest.raises(SchemaViolation):
        validate_value(INT64_MIN - 1)


def test_record_keys_must_be_text():
    with pytest.raises(SchemaViolation):
        validate_value({1: "x"})


def test_check_value_mismatch():
    with pytest.raises(SchemaViolation):
        check_value("open", "real")
    with pytest.raises(SchemaViolation):
        check_value(1, "real")  # strict: integers are not reals


def test_coerce_real():
    assert coerce_real(2) == 2.0
    assert coerce_real(2.5) == 2.5
    with pytest.raises(SchemaViolation):
        coerce_real("2.5")
    with pytest.raises(SchemaViolation):
        coerce_real(True)


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1.5, "x"]}) == '{"a":[1.5,"x"],"b":1}'


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_digest_stability():
    assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})
    assert digest({"a": 1}) != digest({"a": 2})


json_values = st.recursive(
    st.one_of(
        st.booleans(),
        st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=20),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=10,
)


@given(json_values)
def test_every_union_value_validates_and_serializes(value):
    validate_value(value)
    assert not math.isnan(hash(canonical_json(value)))


def test_a_value_nests_at_most_max_depth():
    validate_value(nested(MAX_DEPTH))
    validate_value({"k": nested(MAX_DEPTH - 1)})
    for deep in (nested(MAX_DEPTH + 1), {"k": nested(MAX_DEPTH)}, nested(5000)):
        with pytest.raises(SchemaViolation, match=f"deeper than {MAX_DEPTH} levels"):
            validate_value(deep)


def test_json_nests_at_most_max_depth():
    assert json_value(canonical_json(nested(MAX_DEPTH))) == nested(MAX_DEPTH)
    assert strict_loads(b'{"k":' + canonical_json(nested(MAX_DEPTH - 1)).encode() + b"}")
    # what the decoder itself cannot nest is refused alike
    for text in (canonical_json(nested(MAX_DEPTH + 1)), "[" * 5000 + "]" * 5000):
        with pytest.raises(ValueError, match=f"deeper than {MAX_DEPTH} levels"):
            json_value(text)
    with pytest.raises(ValueError, match=f"deeper than {MAX_DEPTH} levels"):
        strict_loads(b'{"k":' + canonical_json(nested(MAX_DEPTH)).encode() + b"}")
    # brackets in text nest nothing
    assert json_value(f'["{"[" * 200}", {{"k": "{"{" * 200}"}}]') == ["[" * 200, {"k": "{" * 200}]
