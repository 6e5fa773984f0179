import copy
import itertools
from dataclasses import replace

import pytest
import yaml

from conftest import DEMO_CONFIG
from mutants import mutate

from twinrt.conformance import (
    Classification,
    RuleStatus,
    TwinCategory,
    audit,
    classify,
)
from twinrt.cli import main as cli_main
from twinrt.config import TwinConfiguration, load, loads
from twinrt.engine import Direction, Mapping, Schedule
from twinrt.errors import (
    IntegrityViolation,
    MissingLastUpdateSupport,
    NotResponsible,
    ReadOnlyTarget,
    TwinError,
    UnknownOperator,
    UnresolvedReference,
)
from twinrt.runtime import TwinRuntime

MINIMAL_CONFIG = """
twin: mini
gateways:
  - id: g1
    endpoint: tcp://127.0.0.1:0
    elements:
      - {name: p1, kind: property, type: real, access: rw}
      - {name: p2, kind: property, type: real, access: rw}
      - {name: p3, kind: property, type: real, access: rw}
languages:
  - id: lang
    kinds:
      Node: {a: real, b: real, c: real}
managers:
  - id: m1
    models: [model]
models:
  - id: model
    language: lang
    last_update: true
    elements:
      - {id: n, kind: Node, properties: {a: 0.0, b: 0.0, c: 0.0}}
"""


def make_mapping(i: int, direction: Direction, enabled: bool = True) -> Mapping:
    prop = f"p{i + 1}"
    model_prop = "abc"[i]
    return Mapping(f"m{i}", "model", "n", model_prop, "g1", prop, direction,
                   Schedule(every=1), enabled=enabled)


def config_with(directions, enabled=None) -> TwinConfiguration:
    base = loads(MINIMAL_CONFIG)
    enabled = enabled or [True] * len(directions)
    mappings = tuple(make_mapping(i, d, e)
                     for i, (d, e) in enumerate(zip(directions, enabled)))
    return replace(base, mappings=mappings)


def taxonomy_oracle(directions) -> TwinCategory:
    """Brute-force data-flow predicate, written directly from the taxonomy:

    no automated flow -> digital model; automated AS-to-digital flow ->
    digital shadow; automated flow back from the digital object as well ->
    digital twin.
    """
    has_to_dt = any(d in (Direction.AS_TO_DT, Direction.BIDIRECTIONAL)
                    for d in directions)
    has_to_as = any(d in (Direction.DT_TO_AS, Direction.BIDIRECTIONAL)
                    for d in directions)
    if has_to_dt and has_to_as:
        return TwinCategory.DIGITAL_TWIN
    if has_to_dt:
        return TwinCategory.DIGITAL_SHADOW
    return TwinCategory.DIGITAL_MODEL


def _tank(doc: dict) -> dict:
    """The one element of the demo's tank model."""
    return doc["models"][0]["elements"][0]


# edits of the demo configuration that load, and the error start-up raises on each
REFUSED_EDITS = [
    pytest.param(lambda doc: doc["models"][0].update(last_update=False),
                 MissingLastUpdateSupport, id="bidirectional-without-last-update"),
    pytest.param(lambda doc: doc["managers"][0].update(
        delegations=[{"operator": "frobnicate", "to": "plant"}]),
                 UnknownOperator, id="delegated-unknown-operator"),
    pytest.param(lambda doc: doc["managers"].append(
        {"id": "ops", "models": [], "delegations": [{"operator": "set_property", "to": "nobody"}]}),
                 NotResponsible, id="delegated-to-no-manager"),
    pytest.param(lambda doc: doc["models"][0]["elements"].append(copy.deepcopy(_tank(doc))),
                 IntegrityViolation, id="second-main"),
    pytest.param(lambda doc: _tank(doc).update(kind="Pump"),
                 IntegrityViolation, id="undeclared-kind"),
    pytest.param(lambda doc: _tank(doc)["properties"].update(level=20.0),
                 IntegrityViolation, id="level-over-capacity"),
    pytest.param(lambda doc: _tank(doc)["properties"].update(colour="red"),
                 IntegrityViolation, id="undeclared-property"),
]


def _text_level(doc: dict) -> None:
    doc["languages"][0]["kinds"]["Tank"]["level"] = "text"
    doc["languages"][0]["rules"] = []
    _tank(doc)["properties"]["level"] = "x"
    doc["services"] = []


def _guard_args(doc: dict) -> None:
    doc["services"][1]["params"].update(args=[1, 2], bound=0.01)


def _misspelt_rule(doc: dict) -> None:
    doc["languages"][0]["rules"][0]["other"] = "capacty"


def _fraction_onto_integer(doc: dict) -> None:
    doc["languages"][0]["kinds"]["Tank"]["level"] = "integer"
    _tank(doc)["properties"]["level"] = 0
    doc["mappings"][0]["transform"] = {"scale": 1.0, "offset": 0.5}


def _kpi_on_text(doc: dict) -> None:
    doc["languages"][0]["kinds"]["Tank"]["label"] = "text"
    _tank(doc)["properties"]["label"] = "x"
    doc["services"][0]["params"]["property"] = "label"


# edits of the demo configuration that load, and the finding the audit
# reports under C7 and start-up raises for each
MISWIRED_EDITS = [
    pytest.param(_text_level, "mapping 'm-level' joins text model property tank/main.level "
                 "to real gateway property tank01/level", id="text-level"),
    pytest.param(_guard_args, "service 'guard' calls tank01/flush: 'flush' takes 0 "
                 "argument(s), got 2", id="guard-args"),
    pytest.param(_misspelt_rule, "rule 'level-within-capacity' reads undeclared property "
                 "Tank.capacty", id="misspelt-rule"),
    pytest.param(_fraction_onto_integer, "mapping 'm-level' can write a fraction to integer "
                 "property tank/main.level through its transform", id="fraction-onto-integer"),
    pytest.param(_kpi_on_text, "service 'kpi' watches text model property tank/main.label, "
                 "not a number", id="kpi-on-text"),
]


class TestClassify:
    def test_no_mappings_is_a_digital_model(self):
        verdict = classify(config_with([]))
        assert verdict.category is TwinCategory.DIGITAL_MODEL
        assert verdict.evidence == ()

    def test_one_as_to_dt_mapping_is_a_digital_shadow(self):
        verdict = classify(config_with([Direction.AS_TO_DT]))
        assert verdict.category is TwinCategory.DIGITAL_SHADOW
        assert verdict.evidence == ("m0",)

    def test_flows_both_ways_is_a_digital_twin(self):
        verdict = classify(config_with([Direction.AS_TO_DT, Direction.DT_TO_AS]))
        assert verdict.category is TwinCategory.DIGITAL_TWIN
        assert set(verdict.evidence) == {"m0", "m1"}

    def test_one_bidirectional_mapping_is_a_digital_twin(self):
        verdict = classify(config_with([Direction.BIDIRECTIONAL]))
        assert verdict.category is TwinCategory.DIGITAL_TWIN

    def test_disabled_mappings_count_as_absent(self):
        verdict = classify(config_with([Direction.AS_TO_DT, Direction.DT_TO_AS],
                                       enabled=[True, False]))
        assert verdict.category is TwinCategory.DIGITAL_SHADOW

    def test_exhaustive_up_to_three_mappings_matches_oracle(self):
        # all 3^k direction assignments for k <= 3: 1 + 3 + 9 + 27 = 40 configs
        count = 0
        for k in range(4):
            for directions in itertools.product(list(Direction), repeat=k):
                verdict = classify(config_with(list(directions)))
                assert verdict.category is taxonomy_oracle(directions), directions
                count += 1
        assert count == 40

    def test_unresolved_reference_raises(self):
        cfg = config_with([Direction.AS_TO_DT])
        ghost = Mapping("mg", "model", "n", "a", "ghost", "p1",
                        Direction.AS_TO_DT, Schedule(every=1))
        with pytest.raises(UnresolvedReference):
            classify(replace(cfg, mappings=cfg.mappings + (ghost,)))

    def test_monotonicity_adding_dt_to_as_never_demotes_a_twin(self):
        for k in range(3):
            for directions in itertools.product(list(Direction), repeat=k):
                base = classify(config_with(list(directions)))
                extended = classify(config_with(list(directions) + [Direction.DT_TO_AS]))
                if base.category is TwinCategory.DIGITAL_TWIN:
                    assert extended.category is TwinCategory.DIGITAL_TWIN

    def test_purity_config_not_mutated(self):
        cfg = config_with([Direction.AS_TO_DT, Direction.BIDIRECTIONAL])
        before = copy.deepcopy(cfg)
        classify(cfg)
        audit(cfg)
        assert cfg == before

    def test_classification_serialization(self):
        verdict = Classification(TwinCategory.DIGITAL_SHADOW, ("m0",))
        assert verdict.to_dict() == {"category": "digital-shadow", "evidence": ["m0"]}


class TestAudit:
    def test_demo_config_fully_satisfied(self, demo_config):
        report = audit(demo_config)
        assert report.violated == []
        assert all(r.status is RuleStatus.SATISFIED for r in report.results)

    def test_report_totality(self, demo_config):
        report = audit(demo_config)
        assert [r.conclusion for r in report.results] == [f"C{i}" for i in range(1, 8)]

    def test_service_without_grant_violates_c6(self, demo_config):
        report = audit(mutate(demo_config, "C6"))
        assert report.violated == ["C6"]
        assert "kpi" in report.result("C6").findings[0]

    def test_unmanaged_model_violates_c3(self, demo_config):
        report = audit(mutate(demo_config, "C3"))
        assert report.violated == ["C3"]
        assert "tank" in report.result("C3").findings[0]

    @pytest.mark.parametrize("conclusion", [f"C{i}" for i in range(1, 8)])
    def test_each_mutant_violates_exactly_its_rule(self, demo_config, conclusion):
        report = audit(mutate(demo_config, conclusion))
        assert report.violated == [conclusion]

    @pytest.mark.parametrize("edit, refusal", REFUSED_EDITS)
    def test_c7_reports_what_start_up_refuses(self, edit, refusal):
        doc = yaml.safe_load(DEMO_CONFIG.read_text())
        edit(doc)
        config = loads(yaml.safe_dump(doc))
        report = audit(config)
        assert report.violated == ["C7"]
        with pytest.raises(refusal):
            TwinRuntime(config)

    @pytest.mark.parametrize("edit, finding", MISWIRED_EDITS)
    def test_audit_and_start_up_refuse_a_miswired_demo(self, edit, finding, tmp_path, capsys):
        doc = yaml.safe_load(DEMO_CONFIG.read_text())
        edit(doc)
        path = tmp_path / "miswired.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert cli_main(["audit", "--config", str(path)]) == 3
        assert finding in capsys.readouterr().out
        assert audit(load(path)).violated == ["C7"]
        with pytest.raises(TwinError) as refused:
            TwinRuntime(load(path))
        assert finding in str(refused.value)

    def test_wiring_is_judged_when_the_model_registry_refuses(self):
        # the misspelt rule makes the registry refuse every model; the
        # dangling and read-only mappings are still named, and classify raises
        doc = yaml.safe_load(DEMO_CONFIG.read_text())
        _misspelt_rule(doc)
        doc["mappings"][0]["gateway"]["property"] = "nope"
        doc["mappings"].append({
            "id": "m-x", "model": {"model": "tank", "element": "main", "property": "valve_target"},
            "gateway": {"gateway": "tank01", "property": "level"},
            "direction": "dt-to-as", "schedule": {"every": 1}})
        config = loads(yaml.safe_dump(doc))
        dangling = "mapping 'm-level' references unresolved gateway property tank01/nope"
        with pytest.raises(UnresolvedReference, match=dangling):
            classify(config)
        report = audit(config)
        assert report.violated == ["C5", "C7"]
        assert report.result("C5").findings == (
            "mapping 'm-x' writes read-only property tank01/level",)
        c7 = report.result("C7").findings
        assert c7[0] == dangling
        assert c7[1].startswith("the model registry refuses the configuration: ")
        assert "Tank.capacty" in c7[1]

    def test_a_mapping_that_writes_a_read_only_property_violates_c5(self):
        doc = yaml.safe_load(DEMO_CONFIG.read_text())
        doc["mappings"].append({
            "id": "m-x", "model": {"model": "tank", "element": "main", "property": "valve_target"},
            "gateway": {"gateway": "tank01", "property": "level"},
            "direction": "dt-to-as", "schedule": {"every": 1}})
        config = loads(yaml.safe_dump(doc))
        report = audit(config)
        assert report.violated == ["C5"]
        assert report.result("C5").findings == (
            "mapping 'm-x' writes read-only property tank01/level",)
        with pytest.raises(ReadOnlyTarget):
            TwinRuntime(config)

    @pytest.mark.parametrize("trigger, stream", [
        ({"gateway": "tank01", "property": "valve"}, "valve"),
        ({"gateway": "tank01", "event": "overflow"}, "overflow"),
    ], ids=["gateway-change", "gateway-event"])
    def test_a_gateway_that_only_a_trigger_observes_satisfies_c5(self, trigger, stream,
                                                                 tmp_path):
        # the demo's one mapping commands the valve, fired by what the engine observes
        doc = yaml.safe_load(DEMO_CONFIG.read_text())
        doc["mappings"] = [dict(doc["mappings"][1], direction="dt-to-as",
                                schedule={"trigger": trigger})]
        path = tmp_path / "triggered.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert audit(load(path)).result("C5").status is RuleStatus.SATISFIED
        assert cli_main(["audit", "--config", str(path)]) == 0
        runtime = TwinRuntime(load(path))
        try:
            assert stream in runtime.engine.gateway("tank01").streams
        finally:
            runtime.close()

    def test_a_gateway_only_commanded_on_a_schedule_violates_c5(self):
        doc = yaml.safe_load(DEMO_CONFIG.read_text())
        doc["mappings"] = [dict(doc["mappings"][1], direction="dt-to-as")]
        report = audit(loads(yaml.safe_dump(doc)))
        assert report.violated == ["C5"]
        assert report.result("C5").findings == (
            "gateway 'tank01' is commanded but never read or observed",)

    def test_no_gateways_is_not_applicable_for_c1(self, demo_config):
        bare = replace(demo_config, gateways=(), mappings=(), services=())
        report = audit(bare)
        assert report.result("C1").status is RuleStatus.NOT_APPLICABLE
        assert report.result("C5").status is RuleStatus.NOT_APPLICABLE
        assert report.result("C6").status is RuleStatus.NOT_APPLICABLE
        assert report.violated == []

    def test_doubly_claimed_model_violates_c3(self, demo_config):
        from twinrt.config import ManagerConfig

        managers = demo_config.managers + (ManagerConfig("rival", models=("tank",)),)
        report = audit(replace(demo_config, managers=managers))
        assert report.violated == ["C3"]
