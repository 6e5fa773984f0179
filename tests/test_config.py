import pytest

import twinrt.config as config_mod
from twinrt.engine import Direction, TriggerKind
from twinrt.errors import ConfigParseError
from twinrt.gateway import ElementKind, PropertyAccess
from twinrt.models import ModelMode


class TestParseDemo:
    def test_structure(self, demo_config):
        assert demo_config.twin_id == "demo-tank"
        gw = demo_config.gateways[0]
        assert gw.descriptor.gateway_id == "tank01"
        assert gw.simulate.model == "tank"
        assert gw.simulate.params["valve"] == 0.5
        level = gw.descriptor.element("level")
        assert level.kind is ElementKind.PROPERTY
        assert level.access is PropertyAccess.READ_ONLY
        flush = gw.descriptor.element("flush")
        assert flush.kind is ElementKind.FUNCTION
        assert flush.arg_types == () and flush.result_type == "boolean"

    def test_language_and_model(self, demo_config):
        lang = demo_config.languages[0]
        assert lang.element_kinds == {"Tank"}
        assert lang.property_schemas["Tank"]["level"] == "real"
        assert lang.rules[0].rule_id == "level-within-capacity"
        model = demo_config.models[0]
        assert model.mode is ModelMode.ONLINE
        assert model.last_update is True
        main = model.elements[0]
        assert main.properties["capacity"].value == 10.0

    def test_mappings(self, demo_config):
        by_id = {m.mapping_id: m for m in demo_config.mappings}
        assert by_id["m-level"].direction is Direction.AS_TO_DT
        assert by_id["m-level"].schedule.every == 1
        assert by_id["m-valve"].direction is Direction.BIDIRECTIONAL

    def test_services(self, demo_config):
        kpi = demo_config.services[0]
        assert kpi.builtin == "kpi_monitor"
        assert kpi.grant.allows("read-model", "tank")
        assert kpi.descriptor().hooks[0].kind == "on-tick"


# an otherwise valid mapping, open for its schedule and transform
MAPPING = ("mappings:\n  - {id: m, model: {model: a, element: b, property: c}, "
           "gateway: {gateway: g, property: p}, direction: as-to-dt, ")
SIMULATE = "gateways:\n  - {id: g, endpoint: 'tcp://x:1', simulate: {model: tank, "


class TestParseForms:
    def test_int_valued_reals_are_fitted_to_the_schema(self):
        cfg = config_mod.loads("""
twin: t
languages:
  - id: lang
    kinds: {Node: {x: real, n: integer}}
managers: [{id: m, models: [mdl]}]
models:
  - id: mdl
    language: lang
    elements: [{id: e, kind: Node, properties: {x: 5, n: 5}},
               {id: f, kind: Node, properties: {x: 2.5, n: 2.0}}]
""")
        element = cfg.models[0].elements[0]
        assert element.properties["x"].value == 5.0
        assert isinstance(element.properties["x"].value, float)
        assert element.properties["n"].value == 5
        assert isinstance(element.properties["n"].value, int)
        # an integral real given for an integer is fitted too, losslessly
        other = cfg.models[0].elements[1]
        assert other.properties["x"].value == 2.5
        assert other.properties["n"].value == 2
        assert isinstance(other.properties["n"].value, int)

    def test_trigger_schedules(self):
        cfg = config_mod.loads("""
twin: t
gateways:
  - id: g
    endpoint: tcp://127.0.0.1:0
    elements:
      - {name: p, kind: property, type: real, access: rw}
      - {name: ev, kind: event, payload: real}
languages: [{id: lang, kinds: {Node: {x: real}}}]
managers: [{id: m, models: [mdl]}]
models:
  - id: mdl
    language: lang
    last_update: true
    elements: [{id: e, kind: Node, properties: {x: 0.0}}]
mappings:
  - id: on-change
    model: {model: mdl, element: e, property: x}
    gateway: {gateway: g, property: p}
    direction: as-to-dt
    schedule: {trigger: {gateway: g, property: p}}
  - id: on-event
    model: {model: mdl, element: e, property: x}
    gateway: {gateway: g, property: p}
    direction: as-to-dt
    schedule: {trigger: {gateway: g, event: ev}}
  - id: on-model
    model: {model: mdl, element: e, property: x}
    gateway: {gateway: g, property: p}
    direction: dt-to-as
    schedule: {trigger: {model: mdl, element: e, property: x}}
""")
        kinds = [m.schedule.trigger.kind for m in cfg.mappings]
        assert kinds == [TriggerKind.GATEWAY_CHANGE, TriggerKind.GATEWAY_EVENT,
                         TriggerKind.MODEL_CHANGE]

    def test_transform_parsing(self):
        cfg = config_mod.loads("""
twin: t
gateways:
  - id: g
    endpoint: tcp://127.0.0.1:0
    elements: [{name: p, kind: property, type: real, access: rw}]
languages: [{id: lang, kinds: {Node: {x: real}}}]
managers: [{id: m, models: [mdl]}]
models:
  - id: mdl
    language: lang
    elements: [{id: e, kind: Node, properties: {x: 0.0}}]
mappings:
  - id: scaled
    model: {model: mdl, element: e, property: x}
    gateway: {gateway: g, property: p}
    direction: as-to-dt
    schedule: {every: 2}
    transform: {scale: 0.001, offset: -1.5, unit: km}
""")
        t = cfg.mappings[0].transform
        assert (t.scale, t.offset, t.unit) == (0.001, -1.5, "km")

    @pytest.mark.parametrize("transform,expected", [
        ("{scale: 1e-3}", (0.001, 0.0)),
        ("{scale: 2E-4, offset: 1.5e3}", (0.0002, 1500.0)),
        ("{scale: '2', offset: -3}", (2.0, -3.0)),
    ])
    def test_transform_numbers_written_as_strings(self, transform, expected):
        # YAML 1.1 resolves `1e-3` (no dot) to a string; it still reads as a number
        cfg = config_mod.loads(MAPPING + "schedule: {every: 1}, transform: " + transform + "}")
        t = cfg.mappings[0].transform
        assert (t.scale, t.offset) == expected


class TestParseErrors:
    @pytest.mark.parametrize("text,fragment", [
        ("twin: [1,2]", "twin"),
        ("gateways: {a: 1}", "expected a list"),
        ("gateways:\n  - {id: g}", "endpoint"),
        ("gateways:\n  - {id: g, endpoint: 'tcp://x:1', elements: [{name: p, kind: dial}]}",
         "unknown element kind"),
        ("gateways:\n  - {id: g, endpoint: 'tcp://x:1', elements: [{name: p, kind: property, type: vector}]}",
         "unknown value type"),
        ("mappings:\n  - {id: m}", "missing required field"),
        ("languages:\n  - {id: l, kinds: {N: {}}, rules: [{id: r, kind: N, property: p, op: between, bound: 1}]}",
         "unknown comparison"),
        ("services:\n  - {id: s, grant: [fly]}", "unknown capability"),
        ("services:\n  - {id: s, hooks: [on-fire]}", "unknown hook"),
        pytest.param(MAPPING + "schedule: {every: [1]}}", "mappings[0].schedule.every",
                     id="every-list"),
        pytest.param(MAPPING + "schedule: {every: true}}", "mappings[0].schedule.every",
                     id="every-bool"),
        pytest.param(MAPPING + "schedule: {every: 1.7}}", "mappings[0].schedule.every",
                     id="every-real"),
        pytest.param(MAPPING + "schedule: {every: '2'}}", "mappings[0].schedule.every",
                     id="every-text"),
        pytest.param(MAPPING + "schedule: {every: 1}, transform: {scale: [2]}}",
                     "mappings[0].transform.scale", id="scale-list"),
        pytest.param(MAPPING + "schedule: {every: 1}, transform: {scale: true}}",
                     "mappings[0].transform.scale", id="scale-bool"),
        pytest.param(MAPPING + "schedule: {every: 1}, transform: {offset: fast}}",
                     "mappings[0].transform.offset", id="offset-text"),
        pytest.param(MAPPING + "schedule: {every: 1}, transform: {offset: 1" + "0" * 400 + "}}",
                     "mappings[0].transform.offset", id="offset-out-of-range"),
        pytest.param(SIMULATE + "step_ms: [1]}}", "gateways[0].simulate.step_ms",
                     id="step-ms-list"),
        pytest.param(SIMULATE + "step_ms: true}}", "gateways[0].simulate.step_ms",
                     id="step-ms-bool"),
        pytest.param(SIMULATE + "step_ms: 2.9}}", "gateways[0].simulate.step_ms",
                     id="step-ms-real"),
        pytest.param(SIMULATE + "step_ms: 0}}", "gateways[0].simulate.step_ms",
                     id="step-ms-zero"),
        pytest.param(SIMULATE + "step_ms: -5}}", "gateways[0].simulate.step_ms",
                     id="step-ms-negative"),
        pytest.param(SIMULATE + "seed: [1]}}", "gateways[0].simulate.seed", id="seed-list"),
        pytest.param(SIMULATE + "seed: true}}", "gateways[0].simulate.seed", id="seed-bool"),
        pytest.param(SIMULATE + "seed: 2.9}}", "gateways[0].simulate.seed", id="seed-real"),
        pytest.param(b"twin: caf\xe9\n", "not UTF-8", id="latin-1"),
    ])
    def test_bad_configs(self, text, fragment, tmp_path):
        path = tmp_path / "twin.yaml"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        with pytest.raises(ConfigParseError) as excinfo:
            config_mod.load(path)
        assert fragment in str(excinfo.value)

    def test_bad_yaml(self):
        with pytest.raises(ConfigParseError):
            config_mod.loads("twin: [unclosed")

    def test_root_must_be_mapping(self):
        with pytest.raises(ConfigParseError):
            config_mod.loads("- a\n- b\n")

    def test_duplicate_ids(self):
        with pytest.raises(ConfigParseError) as excinfo:
            config_mod.loads("""
twin: t
languages:
  - {id: lang, kinds: {N: {}}}
  - {id: lang, kinds: {M: {}}}
""")
        assert "duplicate language" in str(excinfo.value)

    def test_bad_direction(self):
        with pytest.raises(ConfigParseError) as excinfo:
            config_mod.loads("""
twin: t
mappings:
  - id: m
    model: {model: a, element: b, property: c}
    gateway: {gateway: g, property: p}
    direction: sideways
    schedule: {every: 1}
""")
        assert "sideways" in str(excinfo.value)

    def test_bad_schedule(self):
        with pytest.raises(ConfigParseError):
            config_mod.loads("""
twin: t
mappings:
  - id: m
    model: {model: a, element: b, property: c}
    gateway: {gateway: g, property: p}
    direction: as-to-dt
    schedule: {whenever: true}
""")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigParseError):
            config_mod.load(tmp_path / "nope.yaml")

    def test_empty_document_is_a_bare_twin(self):
        cfg = config_mod.loads("")
        assert cfg.twin_id == "twin"
        assert cfg.gateways == () and cfg.mappings == ()
