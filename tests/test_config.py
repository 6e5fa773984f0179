import pytest

import twinrt.config as config_mod
from twinrt.engine import Direction, TriggerKind
from twinrt.errors import ConfigParseError
from twinrt.gateway import ElementKind, PropertyAccess
from twinrt.models import ModelMode
from twinrt.services import KpiMonitor, ServiceDescriptor, build_builtin


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
        assert flush.arg_types == () and flush.value_type == "boolean"

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
        # the descriptor declares no hooks; the built-in brings its on_tick
        assert kpi == ServiceDescriptor("kpi", kpi.grant, "kpi_monitor", {
            "window": 4, "model": "tank", "element": "main", "property": "level"})
        assert isinstance(build_builtin(kpi.builtin, kpi.params), KpiMonitor)


# an otherwise valid mapping, open for its schedule and transform
MAPPING = ("mappings:\n  - {id: m, model: {model: a, element: b, property: c}, "
           "gateway: {gateway: g, property: p}, direction: as-to-dt, ")
# an otherwise valid rule, open for its bound or other property
RULE = "languages:\n  - {id: l, kinds: {N: {}}, rules: [{id: r, kind: N, property: p, op: le, "
SIMULATE = "gateways:\n  - {id: g, endpoint: 'tcp://x:1', simulate: {model: tank, "
# an otherwise valid threshold guard, open for its bound
GUARD = ("services:\n  - {id: s, builtin: threshold_guard, params: {model: a, element: b, "
         "property: c, gateway: g, function: f, ")


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
        pytest.param("services:\n  - {id: s, hooks: [on-tick]}", "services[0].hooks",
                     id="hooks"),
        pytest.param("services:\n  - {id: k, builtin: kpi_monitor, hooks: [on-decision], "
                     "params: {model: m, element: e, property: p, window: 1}}",
                     "services[0].hooks", id="hooks-on-a-builtin"),
        pytest.param(MAPPING + "schedule: {every: 1}, transform: {unit: [1]}}",
                     "mappings[0].transform.unit", id="unit-list"),
        pytest.param(MAPPING + "schedule: {every: 1}, transform: {unit: ''}}",
                     "mappings[0].transform.unit", id="unit-empty"),
        pytest.param("managers:\n  - {id: m, delegations: [{operator: o, to: n, model: [1]}]}",
                     "managers[0].delegations[0].model", id="delegation-model-list"),
        pytest.param("managers:\n  - {id: m, delegations: [{operator: o, to: n, model: 5}]}",
                     "managers[0].delegations[0].model", id="delegation-model-int"),
        # YAML 1.1 reads these names as a boolean, null, a number and a date
        pytest.param("languages:\n  - {id: l, kinds: {Node: {x: real, on: boolean}}}",
                     "languages[0]: language 'l': property name of kind 'Node' must be "
                     "non-empty text, got True", id="property-name-on"),
        pytest.param("languages:\n  - {id: l, kinds: {Node: {~: real}}}",
                     "languages[0]: language 'l': property name", id="property-name-null"),
        pytest.param("languages:\n  - {id: l, kinds: {N: {}}}\n  - {id: m, kinds: {1: {}}}",
                     "languages[1]: language 'm': kind name must be non-empty text, got 1",
                     id="kind-name-int"),
        pytest.param("languages:\n  - {id: l, kinds: {2024-01-01: {}}}",
                     "languages[0]: language 'l': kind name", id="kind-name-date"),
        pytest.param(RULE + "other: 5}]}", "languages[0].rules[0].other", id="other-int"),
        pytest.param(RULE + "other: ''}]}", "languages[0].rules[0].other", id="other-empty"),
        pytest.param(RULE + "bound: [1]}]}", "languages[0].rules[0].bound", id="bound-list"),
        pytest.param(RULE + "bound: {a: 1}}]}", "languages[0].rules[0].bound",
                     id="bound-mapping"),
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
        pytest.param(MAPPING + "schedule: {every: 1}, transform: {scale: .nan}}",
                     "mappings[0].transform.scale: expected a finite number, got nan",
                     id="scale-nan"),
        pytest.param(MAPPING + "schedule: {every: 1}, transform: {scale: .inf}}",
                     "mappings[0].transform.scale: expected a finite number, got inf",
                     id="scale-inf"),
        pytest.param(MAPPING + "schedule: {every: 1}, transform: {offset: -.inf}}",
                     "mappings[0].transform.offset: expected a finite number, got -inf",
                     id="offset-minus-inf"),
        pytest.param(MAPPING + "schedule: {every: 1}, transform: {scale: 1e999}}",
                     "mappings[0].transform.scale: expected a finite number, got '1e999'",
                     id="scale-text-overflowing"),
        pytest.param(SIMULATE + "params: {valve: .nan}}}",
                     "gateways[0].simulate: parameter valve must be a finite number, got nan",
                     id="param-nan"),
        pytest.param(SIMULATE + "params: {capacity: .inf}}}",
                     "gateways[0].simulate: parameter capacity must be a finite number",
                     id="param-inf"),
        pytest.param(SIMULATE + "params: {level: 1" + "0" * 400 + "}}}",
                     "gateways[0].simulate: parameter level must be a finite number",
                     id="param-out-of-range"),
        pytest.param(GUARD + "bound: .nan}}", "services[0]: bound must be a finite number",
                     id="guard-bound-nan"),
        pytest.param(GUARD + "bound: -.inf}}", "services[0]: bound must be a finite number",
                     id="guard-bound-minus-inf"),
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
        pytest.param(MAPPING + "schedule: {every: 1}, enabled: 'false'}",
                     "mappings[0].enabled", id="enabled-text"),
        pytest.param(MAPPING + "schedule: {every: 1}, enabled: 0}", "mappings[0].enabled",
                     id="enabled-int"),
        pytest.param("models:\n  - {id: m, language: l, last_update: 1}",
                     "models[0].last_update", id="last-update-int"),
        pytest.param("data: {mandatory_metadata: 'false'}", "data.mandatory_metadata",
                     id="mandatory-metadata-text"),
        pytest.param("data: {model_linkage: []}", "data.model_linkage",
                     id="model-linkage-list"),
        pytest.param("data: {journal: 5}", "data.journal", id="journal-int"),
        pytest.param("data: {journal: [a]}", "data.journal", id="journal-list"),
        pytest.param("data: {journal: ''}", "data.journal", id="journal-empty"),
        pytest.param(b"twin: caf\xe9\n", "not UTF-8", id="latin-1"),
        pytest.param("twin: !!int x", "cannot read 'x' as !!int", id="int-tag"),
        pytest.param("twin: !!bool maybe", "cannot read 'maybe' as !!bool", id="bool-tag"),
        pytest.param("twin: !!timestamp nope", "cannot read 'nope' as !!timestamp",
                     id="timestamp-tag"),
        pytest.param("twin: !!int ''", "cannot read '' as !!int", id="empty-int-tag"),
        pytest.param("twin: !!float x", "cannot read 'x' as !!float", id="float-tag"),
    ])
    def test_bad_configs(self, text, fragment, tmp_path):
        path = tmp_path / "twin.yaml"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        with pytest.raises(ConfigParseError) as excinfo:
            config_mod.load(path)
        assert fragment in str(excinfo.value)

    def test_a_language_name_yaml_reads_as_a_boolean_is_a_usage_error(self, tmp_path, capsys):
        from twinrt.cli import main

        path = tmp_path / "twin.yaml"
        path.write_text("twin: t\nlanguages:\n  - {id: l, kinds: {yes: {x: real}}}\n")
        assert main(["audit", "--config", str(path)]) == 2
        assert "languages[0]: language 'l': kind name must be non-empty text, got True" \
            in capsys.readouterr().err

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
