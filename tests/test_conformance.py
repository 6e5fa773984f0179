import copy
import itertools
from dataclasses import replace

import pytest

from mutants import mutate

from twinrt.conformance import (
    Classification,
    RuleStatus,
    TwinCategory,
    audit,
    classify,
)
from twinrt.config import TwinConfiguration, loads
from twinrt.engine import Direction, Mapping, Schedule
from twinrt.errors import UnresolvedReference

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
