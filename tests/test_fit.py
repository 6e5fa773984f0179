"""Each value is fitted to its declared type once, where it is checked.

JSON has no int/real split, so twinrt fits ``5`` to ``5.0`` for a real and
``2.0`` to ``2`` for an integer, losslessly, in the code that checks a value
against its type: ``values.fitted`` for every gateway value on both sides
of the wire, and the model registry for every property a transaction
writes and every typed operator argument. Each route below gets an integer
for a real and an integral real for an integer; no caller fits first.
"""

import pytest

from helpers import ECHO_ELEMENTS, control, start_echo

import twinrt.config as config_mod
from twinrt.asset import EchoModel
from twinrt.errors import ArgumentMismatch, IntegrityViolation, SchemaViolation
from twinrt.models import (
    ModelElement,
    ModelingLanguage,
    ModelProperty,
    ModelRegistry,
    OperatorDef,
)
from twinrt.runtime import TwinRuntime
from twinrt.services import ApplyOperator, ServiceDescriptor, ServiceGrant
from twinrt.wire import connect_channel

ECHO_YAML = "\n".join(
    f"      - {{name: {d.name}, kind: {d.kind.value}, "
    + (f"type: {d.value_type}, access: {d.access.value}}}" if d.access
       else f"args: [{', '.join(d.arg_types)}], result: {d.value_type}}}" if d.arg_types is not None
       else f"payload: {d.value_type}}}")
    for d in ECHO_ELEMENTS)

# a real, an integer and a boolean model property, an echo asset whose
# integer count is pulled into the real x, an external service that may
# edit the model, and a guard that calls sum(1, 2) once x passes 0.5
CONFIG = f"""
twin: fit
gateways:
  - id: echo01
    endpoint: tcp://127.0.0.1:0
    simulate: {{model: echo}}
    elements:
{ECHO_YAML}
languages: [{{id: lang, kinds: {{Node: {{x: real, n: integer, lit: boolean}}}}}}]
managers: [{{id: m, models: [mdl]}}]
models:
  - id: mdl
    language: lang
    mode: online
    elements: [{{id: e, kind: Node, properties: {{x: 0.0, n: 0, lit: false}}}}]
mappings:
  - id: m-count
    model: {{model: mdl, element: e, property: x}}
    gateway: {{gateway: echo01, property: count}}
    direction: as-to-dt
    schedule: {{every: 1}}
services:
  - id: editor
    grant: [write-model:mdl, command-gateway:echo01]
  - id: guard
    builtin: threshold_guard
    params: {{model: mdl, element: e, property: x, bound: 0.5, gateway: echo01,
              function: sum, args: [1, 2]}}
    grant: [read-model:mdl, command-gateway:echo01]
"""


@pytest.fixture
def sink():
    return []  # every decision and service notice the twin emits


@pytest.fixture
def twin(sink):
    runtime = TwinRuntime(config_mod.loads(CONFIG), decision_sink=sink.append)
    yield runtime
    runtime.close()


def service_notices(sink) -> list[dict]:
    return [line for line in sink if line.get("kind") == "service"]


def typed(value):
    return value, type(value)


def bare_registry(*operators: OperatorDef) -> ModelRegistry:
    """Model ``mdl`` of Node elements (real ``x``) under manager ``m``, with ``operators``."""
    registry = ModelRegistry()
    registry.register_language(ModelingLanguage("lang", frozenset({"Node"}),
                                                {"Node": {"x": "real"}}))
    registry.create_manager("m")
    for operator in operators:
        registry.register_operator("m", operator)
    registry.create_model("m", "mdl", "lang")
    return registry


class TestModelRoutes:
    def test_ctl_call_apply_operator(self, twin):
        # an integer beyond 64 bits is an error reply, and the next call is answered
        replies = control(twin, *[
            {"op": "ctl.call", "service": "editor", "request": {
                "kind": "apply-operator", "manager": "m", "operator": "set_property",
                "model": "mdl", "args": {"element": "e", "property": prop, "value": value}}}
            for prop, value in (("x", 10**309), ("x", 1), ("n", 2.0))])
        assert [reply["op"] for reply in replies] == ["error", "result", "result"], replies
        assert typed(twin.model_value("mdl", "e", "x")) == (1.0, float)
        assert typed(twin.model_value("mdl", "e", "n")) == (2, int)

    def test_an_in_process_service_apply_operator(self, twin, sink):
        class Editor:
            def on_tick(self, ctx):
                ctx.apply_operator("m", "set_property", "mdl",
                                   {"element": "e", "property": "n", "value": 7.0})
        twin.engine.register_service(
            ServiceDescriptor("inproc", ServiceGrant.parse(["write-model:mdl"])), Editor())
        twin.advance(1)
        assert typed(twin.model_value("mdl", "e", "n")) == (7, int)
        assert service_notices(sink) == []

    def test_model_edit_and_create_element_properties(self, twin):
        twin.model_edit("m", "create_element", "mdl",
                        {"element": "f", "kind": "Node", "properties": {"x": 1, "n": 2.0}})
        twin.model_edit("m", "set_property", "mdl", {"element": "e", "property": "n",
                                                      "value": 3.0})
        assert typed(twin.model_value("mdl", "f", "x")) == (1.0, float)
        assert typed(twin.model_value("mdl", "f", "n")) == (2, int)
        assert typed(twin.model_value("mdl", "e", "n")) == (3, int)

    def test_a_pull_records_the_committed_value(self, twin):
        twin.asset_set("echo01", "count", 3.0)
        twin.advance(1)
        assert typed(twin.asset_state("echo01")["count"]) == (3, int)
        [record] = twin.data.query()
        assert typed(record.value) == typed(twin.model_value("mdl", "e", "x")) == (3.0, float)

    def test_typed_operator_arguments_are_fitted_for_the_effect(self):
        seen = []
        registry = bare_registry(OperatorDef(
            "nudge", "*", (("delta", "real"), ("times", "integer"), ("note", "any")),
            lambda model, args: seen.append(args)))
        args = {"delta": 2, "times": 3.0, "note": 4}
        registry.apply_operator("m", "nudge", "mdl", args)
        assert [typed(seen[0][k]) for k in ("delta", "times", "note")] == [
            (2.0, float), (3, int), (4, int)]
        assert args == {"delta": 2, "times": 3.0, "note": 4}  # the caller's dict is kept
        for bad in ({"delta": "2", "times": 3, "note": 0}, {"delta": 2, "times": 1.5, "note": 0},
                    {"delta": 2, "times": True, "note": 0},
                    {"delta": 10**309, "times": 3, "note": 0}):
            with pytest.raises(ArgumentMismatch):
                registry.apply_operator("m", "nudge", "mdl", bad)

    def test_the_fit_writes_no_element_the_transaction_did_not_make(self):
        shared = ModelElement("s", "Node", {"x": ModelProperty("x", 1)})
        registry = bare_registry(OperatorDef(
            "adopt", "*", (), lambda model, args: model.elements.update(s=shared)))
        registry.apply_operator("m", "adopt", "mdl", {})
        assert typed(registry.property_value("mdl", "s", "x")) == (1.0, float)
        assert typed(shared.properties["x"].value) == (1, int)

    @pytest.mark.parametrize("prop, value", [("n", 1.5), ("lit", 1), ("x", "2"), ("n", True)],
                             ids=["fraction-for-integer", "one-for-boolean", "text-for-real",
                                  "boolean-for-integer"])
    def test_a_value_that_does_not_fit_is_still_refused(self, twin, prop, value):
        for args in ({"element": "e", "property": prop, "value": value},
                     {"element": "g", "kind": "Node", "properties": {prop: value}}):
            operator = "set_property" if "property" in args else "create_element"
            with pytest.raises(IntegrityViolation, match="expected"):
                twin.mediate_operator(ApplyOperator("m", operator, "mdl", args))
        assert "g" not in twin.registry.model("mdl").elements


class TestGatewayRoutes:
    def test_ctl_invoke(self, twin):
        [reply] = control(twin, {"op": "ctl.invoke", "gateway": "echo01", "function": "sum",
                                 "args": [2, 3]})
        assert reply["op"] == "result" and typed(reply["value"]) == (5.0, float)

    def test_a_threshold_guard_with_integer_args(self, twin, sink, monkeypatch):
        handle = twin.engine.gateway("echo01")
        results = []
        invoke = handle.invoke_function
        monkeypatch.setattr(handle, "invoke_function",
                            lambda name, args: results.append(invoke(name, args)))
        twin.asset_set("echo01", "count", 1)
        twin.advance(2)
        assert [typed(r) for r in results] == [(3.0, float)]
        assert service_notices(sink) == []

    def test_handle_writes_and_invokes(self, echo_server, echo_handle):
        assert typed(echo_handle.write_property("gain", 2)) == (2.0, float)
        assert typed(echo_server.state()["gain"]) == (2.0, float)
        assert typed(echo_handle.write_property("count", 3.0)) == (3, int)
        assert typed(echo_handle.read_property("count").value) == (3, int)
        assert typed(echo_handle.invoke_function("sum", [2, 3])) == (5.0, float)

    @pytest.mark.parametrize("prop, value", [("count", 1.5), ("lit", 1), ("gain", "2"),
                                             ("count", True), ("gain", 10**309)],
                             ids=["fraction-for-integer", "one-for-boolean", "text-for-real",
                                  "boolean-for-integer", "too-large-for-real"])
    def test_a_handle_write_that_does_not_fit_is_still_refused(self, echo_handle, prop, value):
        with pytest.raises(SchemaViolation):
            echo_handle.write_property(prop, value)
        assert echo_handle.is_alive

    @pytest.mark.parametrize("args", [["2", 3], [True, 3]], ids=["text", "boolean"])
    def test_invoke_arguments_that_do_not_fit_are_still_refused(self, echo_handle, args):
        with pytest.raises(SchemaViolation):
            echo_handle.invoke_function("sum", args)
        assert echo_handle.is_alive


class TestAssetRoutes:
    def test_wire_writes_sets_and_invokes(self):
        server = start_echo()
        channel = connect_channel(server.endpoint)
        try:
            def ask(msg):
                reply = channel.request(dict(msg, id=1), 5)
                assert reply["op"] != "error", reply
                return reply
            ask({"op": "write", "element": "gain", "value": 2})
            ask({"op": "ctl.set", "element": "count", "value": 3.0})
            assert typed(ask({"op": "invoke", "element": "sum", "args": [2, 3]})["value"]) \
                == (5.0, float)
            state = server.state()
            assert typed(state["gain"]) == (2.0, float) and typed(state["count"]) == (3, int)
            for msg in ({"op": "write", "element": "count", "value": 1.5},
                        {"op": "ctl.set", "element": "lit", "value": 1},
                        {"op": "invoke", "element": "sum", "args": ["2", 3]},
                        {"op": "write", "element": "gain", "value": 10**309},
                        {"op": "ctl.set", "element": "gain", "value": -(10**309)},
                        {"op": "invoke", "element": "sum", "args": [10**309, 1]}):
                reply = channel.request(dict(msg, id=2), 5)
                assert (reply["op"], reply["code"]) == ("error", "SCHEMA")
            ask({"op": "read", "element": "gain"})  # the asset still serves
        finally:
            channel.close()
            server.close()

    def test_raised_payloads_are_fitted(self):
        echo = EchoModel()
        echo.raise_event("pulse", 4.0)
        assert [(name, typed(payload)) for name, payload in echo.pop_events()] == [
            ("pulse", (4, int))]
        with pytest.raises(SchemaViolation):
            echo.raise_event("pulse", 4.5)
