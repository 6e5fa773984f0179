"""Copy-on-access transactions against the full-copy reference.

Random operator sequences run through ``ModelRegistry.apply_operator`` and
through ``apply_full_copy`` (tests/reference_transactions.py) on two
identically built registries; after every step both must agree on the model
digests, the changed set, the mutation counter, and, when the step fails, on
the exception class and the failed rules.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_transactions import apply_full_copy

from twinrt.errors import ArgumentMismatch, IntegrityViolation, TwinError
from twinrt.models import (
    CallableRule,
    ModelElement,
    ModelingLanguage,
    ModelProperty,
    ModelRegistry,
    OperatorDef,
    PropertyRule,
)

ELEMENT_IDS = ("a", "b", "c", "p", "ghost")
PROPERTY_NAMES = ("x", "cap", "tag", "rpm", "bogus")
MODEL_IDS = ("plain", "left", "right")


def _total_x(model, context):
    total = sum(element.value("x") or 0.0
                for peer in context.models.values()
                for element in peer.elements.values()
                if isinstance(element.value("x"), (int, float)))
    return [f"total x {total} exceeds 20"] if total > 20 else []


BOUNDED = ModelingLanguage(
    "bounded", frozenset({"Cell", "Pump"}),
    {"Cell": {"x": "real", "cap": "real", "tag": "text"}, "Pump": {"rpm": "integer"}},
    rules=(PropertyRule("x-within-cap", "Cell", "x", "le", other_property="cap"),
           PropertyRule("rpm-max", "Pump", "rpm", "le", bound=100)))

PAIRED = ModelingLanguage(
    "paired", frozenset({"Cell"}), {"Cell": {"x": "real", "tag": "text"}},
    rules=(PropertyRule("x-non-negative", "Cell", "x", "ge", bound=0.0),
           CallableRule("total-bounded", _total_x)))


def _shift(model, args):
    """Touches several elements: adds delta to each one's x."""
    for element_id in args["elements"]:
        if element_id not in model.elements:
            raise ArgumentMismatch(f"no element {element_id!r}")
        element = model.elements[element_id]
        x = element.value("x")
        if isinstance(x, float):
            element.properties["x"] = ModelProperty("x", x + args["delta"])


def _scale_all(model, args):
    """Iterates over every element."""
    for element in model.elements.values():
        x = element.value("x")
        if isinstance(x, float):
            element.properties["x"] = ModelProperty("x", x * args["factor"])


def _rebuild(model, args):
    """Deletes an element and creates it again under another kind."""
    old = model.elements.get(args["element"])
    if old is None:
        raise ArgumentMismatch(f"no element {args['element']!r}")
    del model.elements[args["element"]]
    model.elements[args["element"]] = ModelElement(args["element"], args["kind"],
                                                   dict(old.properties))


def _fork(model, args):
    """Creates an element from an existing one and edits the original."""
    source = model.elements.get(args["element"])
    if source is None or args["new"] in model.elements:
        raise ArgumentMismatch("fork needs an existing source and a free id")
    model.elements[args["new"]] = ModelElement(args["new"], args["kind"],
                                               dict(source.properties))
    source.properties["x"] = ModelProperty("x", args["value"])


def _peek(model, args):
    """Looks without touching: membership, size and keys only."""
    if len(model.elements) != len(list(model.elements)) or "ghost" in model.elements:
        raise ArgumentMismatch("view is inconsistent")


CUSTOM_OPERATORS = (
    OperatorDef("shift", "*", (("elements", "list"), ("delta", "real")), _shift),
    OperatorDef("scale_all", "*", (("factor", "real"),), _scale_all),
    OperatorDef("rebuild", "*", (("element", "text"), ("kind", "text")), _rebuild),
    OperatorDef("fork", "*", (("element", "text"), ("new", "text"), ("kind", "text"),
                              ("value", "any")), _fork),
    OperatorDef("peek", "*", (), _peek),
)


def cell(element_id, **values):
    return ModelElement(element_id, "Cell",
                        {n: ModelProperty(n, v) for n, v in values.items()})


def build() -> ModelRegistry:
    registry = ModelRegistry()
    registry.register_language(BOUNDED)
    registry.register_language(PAIRED)
    registry.create_manager("m")
    for operator in CUSTOM_OPERATORS:
        registry.register_operator("m", operator)
    # initial elements out of id order on purpose
    registry.create_model("m", "plain", "bounded", [
        ModelElement("p", "Pump", {"rpm": ModelProperty("rpm", 5)}),
        cell("c", x=1.0, cap=10.0, tag="t"),
        cell("a", x=2.0, cap=4.0),
    ], track_last_update=True)
    registry.create_model("m", "left", "paired", [cell("b", x=0.5), cell("a", x=5.0)])
    registry.create_model("m", "right", "paired", [cell("a", x=4.0, tag="r")],
                          track_last_update=True)
    return registry


values = st.one_of(
    st.floats(-30, 30, allow_nan=False, width=16),
    st.integers(-5, 150),
    st.text("xyz", max_size=2),
    st.booleans(),
    st.sampled_from([float("nan"), float("inf"), [1.0], {"k": 1}]),
)
element_ids = st.sampled_from(ELEMENT_IDS)
properties = st.dictionaries(st.sampled_from(PROPERTY_NAMES), values, max_size=3)

steps = st.one_of(
    st.tuples(st.just("set_property"), st.fixed_dictionaries(
        {"element": element_ids, "property": st.sampled_from(PROPERTY_NAMES),
         "value": values})),
    st.tuples(st.just("create_element"), st.fixed_dictionaries(
        {"element": element_ids, "kind": st.sampled_from(["Cell", "Pump", "Valve"])},
        optional={"properties": properties})),
    st.tuples(st.just("delete_element"), st.fixed_dictionaries({"element": element_ids})),
    st.tuples(st.just("shift"), st.fixed_dictionaries(
        {"elements": st.lists(element_ids, max_size=3),
         "delta": st.floats(-10, 10, allow_nan=False, width=16)})),
    st.tuples(st.just("scale_all"), st.fixed_dictionaries(
        {"factor": st.sampled_from([0.5, 1.0, 2.0, -1.0])})),
    st.tuples(st.just("rebuild"), st.fixed_dictionaries(
        {"element": element_ids, "kind": st.sampled_from(["Cell", "Pump"])})),
    st.tuples(st.just("fork"), st.fixed_dictionaries(
        {"element": element_ids, "new": element_ids,
         "kind": st.sampled_from(["Cell", "Pump", "Valve"]), "value": values})),
    st.tuples(st.just("peek"), st.just({})),
    # bad argument lists: missing, unknown or mistyped names
    st.tuples(st.sampled_from(["set_property", "create_element", "shift"]),
              st.dictionaries(st.sampled_from(["element", "kind", "value", "delta", "extra"]),
                              values, max_size=3)),
)


def outcome_of(apply, registry, model_id, operator_id, args):
    try:
        outcome = apply(registry, "m", operator_id, model_id, args)
    except TwinError as exc:
        failed = exc.failed_rules if isinstance(exc, IntegrityViolation) else None
        return ("error", type(exc), failed)
    return ("ok", outcome.changed, outcome.tick, outcome.applied_by)


def incremental(registry, manager_id, operator_id, model_id, args):
    return registry.apply_operator(manager_id, operator_id, model_id, args)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(MODEL_IDS), steps), max_size=12))
def test_incremental_path_matches_full_copy(sequence):
    fast, reference = build(), build()
    for tick, (model_id, (operator_id, args)) in enumerate(sequence, start=1):
        fast.tick_supplier = reference.tick_supplier = lambda: tick
        got = outcome_of(incremental, fast, model_id, operator_id, args)
        want = outcome_of(apply_full_copy, reference, model_id, operator_id, args)
        assert got == want, (model_id, operator_id, args)
        assert fast.digests() == reference.digests()
        assert fast.sanctioned_mutations == reference.sanctioned_mutations


class TestCopyOnAccess:
    def test_untouched_elements_are_shared_and_the_touched_one_is_copied(self):
        registry = build()
        before = registry.model("plain")
        registry.apply_operator("m", "set_property", "plain",
                                {"element": "a", "property": "x", "value": 3.0})
        after = registry.model("plain")
        assert after is not before
        assert after.elements["c"] is before.elements["c"]
        assert after.elements["p"] is before.elements["p"]
        assert after.elements["a"] is not before.elements["a"]
        assert before.elements["a"].value("x") == 2.0  # committed state untouched

    def test_membership_length_and_keys_copy_nothing(self):
        registry = build()
        before = registry.model("plain")
        outcome = registry.apply_operator("m", "peek", "plain", {})
        assert outcome.changed == ()
        after = registry.model("plain")
        assert all(after.elements[eid] is before.elements[eid] for eid in before.elements)

    def test_failed_transaction_leaves_the_committed_model_as_it_was(self):
        registry = build()
        before = registry.model("plain")
        digest = before.digest()
        with pytest.raises(IntegrityViolation) as excinfo:
            registry.apply_operator("m", "shift", "plain",
                                    {"elements": ["c", "a"], "delta": 5.0})
        assert excinfo.value.failed_rules == ["x-within-cap"]
        assert registry.model("plain") is before
        assert before.digest() == digest

    def test_every_touched_element_is_checked(self):
        registry = build()
        # a stays at 4.0, b goes below zero
        with pytest.raises(IntegrityViolation) as excinfo:
            registry.apply_operator("m", "shift", "left",
                                    {"elements": ["a", "b"], "delta": -1.0})
        assert excinfo.value.failed_rules == ["x-non-negative"]

    def test_callable_rule_sees_untouched_peers(self):
        registry = build()
        # every model of the manager is a peer: x totals 12.5, and 9.0 more is over 20
        with pytest.raises(IntegrityViolation) as excinfo:
            registry.apply_operator("m", "set_property", "left",
                                    {"element": "a", "property": "x", "value": 14.0})
        assert excinfo.value.failed_rules == ["total-bounded"]

    def test_committed_elements_stay_in_id_order(self):
        registry = build()
        assert list(registry.model("plain").elements) == ["a", "c", "p"]
        registry.apply_operator("m", "create_element", "plain",
                                {"element": "b", "kind": "Pump"})
        assert list(registry.model("plain").elements) == ["a", "b", "c", "p"]
