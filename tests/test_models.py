import pytest

from helpers import build_registry, tank_elements, tank_language

from twinrt.data import ModelElementRef, PropertyType
from twinrt.errors import (
    ArgumentMismatch,
    DelegationCycle,
    DuplicateLanguage,
    DuplicateModel,
    IllFormedLanguage,
    IntegrityViolation,
    NotResponsible,
    UnknownLanguage,
    UnknownModel,
    UnknownOperator,
)
from twinrt.models import (
    CallableRule,
    Model,
    ModelElement,
    ModelingLanguage,
    ModelMode,
    ModelProperty,
    ModelRegistry,
    OperatorDef,
    PropertyRule,
)


class TestLanguages:
    def test_register_and_look_up(self):
        registry = ModelRegistry()
        registry.register_language(tank_language())
        assert registry.language("tank-structure").element_kinds == {"Tank"}

    def test_duplicate_language(self):
        registry = ModelRegistry()
        registry.register_language(tank_language())
        with pytest.raises(DuplicateLanguage):
            registry.register_language(tank_language())

    def test_schema_for_undeclared_kind(self):
        registry = ModelRegistry()
        lang = ModelingLanguage("bad", frozenset({"Tank"}),
                                {"Pump": {"rpm": "real"}})
        with pytest.raises(IllFormedLanguage):
            registry.register_language(lang)

    def test_unknown_property_type_in_schema(self):
        registry = ModelRegistry()
        lang = ModelingLanguage("bad", frozenset({"Tank"}),
                                {"Tank": {"level": "quaternion"}})
        with pytest.raises(IllFormedLanguage):
            registry.register_language(lang)

    @pytest.mark.parametrize("kinds, schemas, where", [
        pytest.param({True}, {}, "kind name", id="kind-bool"),
        pytest.param({""}, {}, "kind name", id="kind-empty"),
        pytest.param({"Node"}, {None: {}}, "kind name", id="schema-kind-none"),
        pytest.param({"Node"}, {"Node": {"x": "real", True: "boolean"}},
                     "property name of kind 'Node'", id="property-bool"),
        pytest.param({"Node"}, {"Node": {"": "real"}}, "property name of kind 'Node'",
                     id="property-empty"),
    ])
    def test_a_kind_or_property_name_that_is_not_text_is_ill_formed(self, kinds, schemas,
                                                                    where):
        with pytest.raises(IllFormedLanguage, match=f"language 'bad': {where} must be "
                                                    "non-empty text"):
            ModelingLanguage("bad", frozenset(kinds), schemas)

    def test_rule_for_undeclared_kind(self):
        registry = ModelRegistry()
        lang = ModelingLanguage(
            "bad", frozenset({"Tank"}), {"Tank": {"level": "real"}},
            rules=(PropertyRule("r", "Pump", "rpm", "le", bound=1),))
        with pytest.raises(IllFormedLanguage):
            registry.register_language(lang)

    @pytest.mark.parametrize("rule, name", [
        pytest.param(PropertyRule("r", "Tank", "levl", "le", bound=1), "levl", id="property"),
        pytest.param(PropertyRule("r", "Tank", "level", "le", other_property="capacty"),
                     "capacty", id="other"),
    ])
    def test_rule_reading_an_undeclared_property(self, rule, name):
        # it would pass every element, so it could never fire
        lang = ModelingLanguage("bad", frozenset({"Tank"}),
                                {"Tank": {"level": "real", "capacity": "real"}}, rules=(rule,))
        with pytest.raises(IllFormedLanguage,
                           match=f"rule 'r' reads undeclared property Tank.{name}"):
            ModelRegistry().register_language(lang)

    def test_rule_requires_exactly_one_comparand(self):
        with pytest.raises(IllFormedLanguage):
            PropertyRule("r", "Tank", "level", "le")
        with pytest.raises(IllFormedLanguage):
            PropertyRule("r", "Tank", "level", "le", bound=1, other_property="capacity")
        with pytest.raises(IllFormedLanguage):
            PropertyRule("r", "Tank", "level", "between", bound=1)


class TestCreateModel:
    def test_create_starts_offline(self):
        registry = build_registry(online=False)
        model = registry.model("tank")
        assert model.mode is ModelMode.OFFLINE
        assert len(model.elements) == 1

    def test_create_violating_rule_names_it(self):
        registry = ModelRegistry()
        registry.register_language(tank_language())
        registry.create_manager("plant")
        with pytest.raises(IntegrityViolation) as excinfo:
            registry.create_model("plant", "tank", "tank-structure",
                                  tank_elements(level=12.0, capacity=10.0))
        assert "level-within-capacity" in excinfo.value.failed_rules

    def test_create_empty_model_under_rule_free_language(self):
        registry = ModelRegistry()
        registry.register_language(ModelingLanguage("bare", frozenset({"Thing"}),
                                                    {"Thing": {}}))
        registry.create_manager("m")
        model = registry.create_model("m", "empty", "bare", [])
        assert model.elements == {}

    def test_unknown_language(self):
        registry = ModelRegistry()
        registry.create_manager("m")
        with pytest.raises(UnknownLanguage):
            registry.create_model("m", "x", "nope", [])

    def test_duplicate_model(self):
        registry = build_registry()
        with pytest.raises(DuplicateModel):
            registry.create_model("plant", "tank", "tank-structure", tank_elements())

    def test_undeclared_property_rejected(self):
        registry = ModelRegistry()
        registry.register_language(tank_language())
        registry.create_manager("plant")
        bad = [ModelElement("main", "Tank",
                            {"pressure": ModelProperty("pressure", 1.0)})]
        with pytest.raises(IntegrityViolation):
            registry.create_model("plant", "tank", "tank-structure", bad)


class TestApplyOperator:
    def test_set_property_and_last_update(self):
        registry = build_registry()
        registry.tick_supplier = lambda: 17
        outcome = registry.apply_operator("plant", "set_property", "tank",
                                          {"element": "main", "property": "level",
                                           "value": 3.0})
        assert registry.property_value("tank", "main", "level") == 3.0
        assert registry.model("tank").last_update == 17
        assert outcome.delegation_chain == ()
        assert outcome.changed == (("main", "level"),)
        assert outcome.tick == 17

    def test_integrity_failure_leaves_model_bit_identical(self):
        registry = build_registry()
        before = registry.digest("tank")
        with pytest.raises(IntegrityViolation):
            registry.apply_operator("plant", "set_property", "tank",
                                    {"element": "main", "property": "level",
                                     "value": 99.0})
        assert registry.digest("tank") == before

    def test_create_and_delete_element(self):
        registry = build_registry()
        registry.apply_operator("plant", "create_element", "tank",
                                {"element": "spare", "kind": "Tank",
                                 "properties": {"level": 0.0, "capacity": 5.0}})
        assert "spare" in registry.model("tank").elements
        registry.apply_operator("plant", "delete_element", "tank", {"element": "spare"})
        assert "spare" not in registry.model("tank").elements

    def test_argument_validation(self):
        registry = build_registry()
        with pytest.raises(ArgumentMismatch):
            registry.apply_operator("plant", "set_property", "tank",
                                    {"element": "main", "property": "level"})
        with pytest.raises(ArgumentMismatch):
            registry.apply_operator("plant", "set_property", "tank",
                                    {"element": "main", "property": "level",
                                     "value": 1.0, "bonus": 2})
        with pytest.raises(ArgumentMismatch):
            registry.apply_operator("plant", "create_element", "tank",
                                    {"element": "x", "kind": 7})

    def test_unknown_operator(self):
        registry = build_registry()
        with pytest.raises(UnknownOperator):
            registry.apply_operator("plant", "transmogrify", "tank", {})

    def test_unknown_model(self):
        registry = build_registry()
        with pytest.raises(UnknownModel):
            registry.apply_operator("plant", "set_property", "ghost", {})

    def test_custom_operator_with_language_scope(self):
        registry = build_registry()

        def drain(model: Model, args):
            element = model.elements["main"]
            element.properties["level"] = ModelProperty("level", 0.0)

        registry.register_operator("plant", OperatorDef(
            "drain", "tank-structure", (), drain))
        registry.apply_operator("plant", "set_property", "tank",
                                {"element": "main", "property": "level", "value": 4.0})
        registry.apply_operator("plant", "drain", "tank", {})
        assert registry.property_value("tank", "main", "level") == 0.0

    def test_custom_operator_wrong_language(self):
        registry = build_registry()
        registry.register_language(ModelingLanguage("other", frozenset({"Thing"}),
                                                    {"Thing": {}}))
        registry.create_model("plant", "widget", "other", [])
        registry.register_operator("plant", OperatorDef(
            "drain", "tank-structure", (), lambda m, a: None))
        with pytest.raises(UnknownOperator):
            registry.apply_operator("plant", "drain", "widget", {})

    def test_transactionality_for_any_failing_args(self):
        registry = build_registry()
        before = registry.digest("tank")
        bad_calls = [
            ("set_property", {"element": "ghost", "property": "level", "value": 1.0}),
            ("set_property", {"element": "main", "property": "level", "value": "x"}),
            ("delete_element", {"element": "ghost"}),
            ("create_element", {"element": "main", "kind": "Tank"}),
            ("create_element", {"element": "new", "kind": "Pump"}),
        ]
        for operator_id, args in bad_calls:
            with pytest.raises((ArgumentMismatch, IntegrityViolation)):
                registry.apply_operator("plant", operator_id, "tank", args)
            assert registry.digest("tank") == before, (operator_id, args)


class TestDelegation:
    def make_two_managers(self):
        registry = ModelRegistry()
        registry.register_language(tank_language())
        registry.create_manager("a")
        registry.create_manager("b")
        registry.create_model("a", "tank", "tank-structure", tank_elements())
        return registry

    def test_delegated_apply_records_chain(self):
        registry = self.make_two_managers()
        registry.add_delegation("b", "set_property", target="a")
        outcome = registry.apply_operator("b", "set_property", "tank",
                                          {"element": "main", "property": "level",
                                           "value": 2.0})
        assert outcome.delegation_chain == ("b", "a")
        assert outcome.applied_by == "a"
        assert registry.property_value("tank", "main", "level") == 2.0

    def test_no_delegation_is_not_responsible(self):
        registry = self.make_two_managers()
        with pytest.raises(NotResponsible):
            registry.apply_operator("b", "set_property", "tank",
                                    {"element": "main", "property": "level",
                                     "value": 2.0})

    def test_model_pattern_filters_delegation(self):
        registry = self.make_two_managers()
        registry.add_delegation("b", "set_property", target="a", model_pattern="boiler*")
        with pytest.raises(NotResponsible):
            registry.apply_operator("b", "set_property", "tank",
                                    {"element": "main", "property": "level",
                                     "value": 2.0})

    def test_a_delegation_to_no_manager_is_refused(self):
        registry = self.make_two_managers()
        with pytest.raises(NotResponsible, match="'nobody'"):
            registry.add_delegation("b", "set_property", target="nobody")
        with pytest.raises(NotResponsible, match="declares no matching delegation"):
            registry.apply_operator("b", "set_property", "tank",
                                    {"element": "main", "property": "level", "value": 2.0})

    def test_cycle_detected(self):
        registry = ModelRegistry()
        registry.register_language(tank_language())
        registry.create_manager("a")
        registry.create_manager("b")
        registry.create_manager("c")
        registry.create_model("c", "tank", "tank-structure", tank_elements())
        # a -> b -> a: revisits a before ever reaching c
        registry.add_delegation("a", "set_property", target="b")
        registry.add_delegation("b", "set_property", target="a")
        with pytest.raises(DelegationCycle):
            registry.apply_operator("a", "set_property", "tank",
                                    {"element": "main", "property": "level",
                                     "value": 1.0})

    def test_chain_through_three_managers(self):
        registry = ModelRegistry()
        registry.register_language(tank_language())
        for mid in ("a", "b", "c"):
            registry.create_manager(mid)
        registry.create_model("c", "tank", "tank-structure", tank_elements())
        registry.add_delegation("a", "set_property", target="b")
        registry.add_delegation("b", "set_property", target="c")
        outcome = registry.apply_operator("a", "set_property", "tank",
                                          {"element": "main", "property": "level",
                                           "value": 1.0})
        assert outcome.delegation_chain == ("a", "b", "c")


class TestModeAndSnapshots:
    def test_set_mode_idempotent(self):
        registry = build_registry(online=True)
        registry.set_mode("plant", "tank", ModelMode.ONLINE)
        assert registry.model("tank").mode is ModelMode.ONLINE

    def test_set_mode_not_responsible(self):
        registry = build_registry()
        registry.create_manager("intruder")
        with pytest.raises(NotResponsible):
            registry.set_mode("intruder", "tank", ModelMode.OFFLINE)

    def test_snapshot_restore_round_trip(self):
        registry = build_registry(online=True)
        registry.apply_operator("plant", "set_property", "tank",
                                {"element": "main", "property": "level", "value": 4.0})
        snap = registry.snapshot("tank")
        restored = registry.restore("plant", snap)
        assert restored.model_id == "tank~1"
        assert restored.mode is ModelMode.OFFLINE  # source was Online
        assert registry.snapshot(restored.model_id) == snap

    def test_restore_under_unregistered_language(self):
        registry = build_registry()
        snap = registry.snapshot("tank")
        other = ModelRegistry()
        other.create_manager("plant")
        with pytest.raises(UnknownLanguage):
            other.restore("plant", snap)

    def test_restore_taken_id(self):
        registry = build_registry()
        snap = registry.snapshot("tank")
        with pytest.raises(DuplicateModel):
            registry.restore("plant", snap, model_id="tank")

    def test_restored_copy_is_independent(self):
        registry = build_registry(online=True)
        snap = registry.snapshot("tank")
        restored = registry.restore("plant", snap)
        registry.apply_operator("plant", "set_property", "tank",
                                {"element": "main", "property": "level", "value": 9.0})
        assert registry.property_value(restored.model_id, "main", "level") == 0.0


class TestMediationSurface:
    def test_mutation_counter_tracks_sanctioned_paths(self):
        registry = build_registry(online=False)
        base = registry.sanctioned_mutations
        registry.apply_operator("plant", "set_property", "tank",
                                {"element": "main", "property": "level", "value": 1.0})
        registry.set_mode("plant", "tank", ModelMode.ONLINE)
        registry.restore("plant", registry.snapshot("tank"))
        assert registry.sanctioned_mutations == base + 3

    def test_reads_do_not_bump_the_counter(self):
        registry = build_registry()
        base = registry.sanctioned_mutations
        registry.snapshot("tank")
        registry.property_value("tank", "main", "level")
        registry.digest("tank")
        registry.model("tank")
        assert registry.sanctioned_mutations == base

    def test_noop_mode_switch_does_not_count(self):
        registry = build_registry(online=True)
        base = registry.sanctioned_mutations
        registry.set_mode("plant", "tank", ModelMode.ONLINE)
        assert registry.sanctioned_mutations == base


class TestCrossModelRules:
    def test_callable_rule_sees_peer_models(self):
        registry = ModelRegistry()
        lang = ModelingLanguage(
            "paired", frozenset({"Cell"}), {"Cell": {"x": "real"}},
            rules=(CallableRule("total-bounded", lambda model, ctx: [
                "total exceeds 10"
            ] if sum(e.value("x") or 0.0
                     for m in ctx.models.values()
                     for e in m.elements.values()) > 10 else []),))
        registry.register_language(lang)
        registry.create_manager("m")
        registry.create_model("m", "left", "paired",
                              [ModelElement("c", "Cell", {"x": ModelProperty("x", 4.0)})])
        registry.create_model("m", "right", "paired",
                              [ModelElement("c", "Cell", {"x": ModelProperty("x", 4.0)})])
        with pytest.raises(IntegrityViolation):
            registry.apply_operator("m", "set_property", "right",
                                    {"element": "c", "property": "x", "value": 7.0})
        registry.apply_operator("m", "set_property", "right",
                                {"element": "c", "property": "x", "value": 5.0})


def test_model_dict_round_trip():
    registry = build_registry(online=True)
    model = registry.model("tank")
    clone = Model.from_dict(model.to_dict())
    assert clone.to_dict() == model.to_dict()
    assert clone.digest() == model.digest()


def test_element_ref_resolution():
    registry = build_registry()
    assert registry.resolve(ModelElementRef("tank", "main", "level"))
    assert registry.resolve(ModelElementRef("tank", "main"))
    assert not registry.resolve(ModelElementRef("tank", "main", "pressure"))
    assert not registry.resolve(ModelElementRef("tank", "aux"))
    assert not registry.resolve(ModelElementRef("boiler", "main"))


def test_last_update_property_type():
    registry = build_registry()
    registry.apply_operator("plant", "set_property", "tank",
                            {"element": "main", "property": "level", "value": 1.0})
    prop = registry.model("tank").model_properties["last-update"]
    assert prop.property_type is PropertyType.LAST_UPDATE
