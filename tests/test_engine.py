import pytest

from helpers import (
    Rig,
    build_registry,
    build_rig,
    deep_line,
    late_first_reply,
    level_mapping,
    plain_reply,
    scripted_engine,
    tank_descriptor,
    valve_mapping,
)

from twinrt.asset import AssetServer, TankModel
from twinrt.data import DataManager, PropertyType, Selector
from twinrt.engine import (
    Direction,
    Engine,
    Mapping,
    Schedule,
    SyncAction,
    SyncReason,
    Transform,
    Trigger,
    TriggerKind,
)
from twinrt.errors import (
    Disconnected,
    DuplicateMapping,
    MissingLastUpdateSupport,
    ReadOnlyTarget,
    SchemaViolation,
    TickSequenceError,
    TransformFailure,
    UnresolvedGatewaySide,
    UnresolvedModelSide,
)
from twinrt.gateway import connect
from twinrt.models import ModelMode
from twinrt.services import ApplyOperator


def overflow_trigger_mapping():
    return Mapping("m-overflow", "tank", "main", "level", "tank01", "level",
                   Direction.AS_TO_DT,
                   Schedule(trigger=Trigger(TriggerKind.GATEWAY_EVENT,
                                            gateway_id="tank01", element="overflow")))


def change_trigger_mapping(mapping_id: str = "m-change",
                           transform: Transform = Transform()):
    return Mapping(mapping_id, "tank", "main", "level", "tank01", "level",
                   Direction.AS_TO_DT,
                   Schedule(trigger=Trigger(TriggerKind.GATEWAY_CHANGE,
                                            gateway_id="tank01", element="level")),
                   transform)


class TestAddMapping:
    def test_accepted_mapping_fires_from_next_tick(self):
        rig = build_rig(mappings=[level_mapping(every=1)], valve=1.0)
        try:
            decisions = rig.tick()
            assert [d.mapping_id for d in decisions] == ["m-level"]
        finally:
            rig.close()

    def test_duplicate_mapping(self):
        rig = build_rig(mappings=[level_mapping()])
        try:
            with pytest.raises(DuplicateMapping):
                rig.engine.add_mapping(level_mapping())
        finally:
            rig.close()

    def test_unresolved_model_side(self):
        rig = build_rig()
        try:
            bad = Mapping("m-x", "tank", "main", "pressure", "tank01", "level",
                          Direction.AS_TO_DT, Schedule(every=1))
            with pytest.raises(UnresolvedModelSide):
                rig.engine.add_mapping(bad)
        finally:
            rig.close()

    def test_unresolved_gateway_side(self):
        rig = build_rig()
        try:
            bad = Mapping("m-x", "tank", "main", "level", "tank01", "pressure",
                          Direction.AS_TO_DT, Schedule(every=1))
            with pytest.raises(UnresolvedGatewaySide):
                rig.engine.add_mapping(bad)
        finally:
            rig.close()

    def test_dt_to_as_onto_read_only_property(self):
        rig = build_rig()
        try:
            bad = Mapping("m-x", "tank", "main", "level", "tank01", "level",
                          Direction.DT_TO_AS, Schedule(every=1))
            with pytest.raises(ReadOnlyTarget):
                rig.engine.add_mapping(bad)
        finally:
            rig.close()

    def test_bidirectional_requires_last_update(self):
        rig = build_rig(track_last_update=False)
        try:
            with pytest.raises(MissingLastUpdateSupport):
                rig.engine.add_mapping(valve_mapping())
        finally:
            rig.close()

    def test_trigger_must_resolve(self):
        rig = build_rig()
        try:
            bad = Mapping("m-x", "tank", "main", "level", "tank01", "level",
                          Direction.AS_TO_DT,
                          Schedule(trigger=Trigger(TriggerKind.GATEWAY_EVENT,
                                                   gateway_id="tank01", element="boom")))
            with pytest.raises(UnresolvedGatewaySide):
                rig.engine.add_mapping(bad)
        finally:
            rig.close()

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            Schedule(every=0)
        with pytest.raises(ValueError):
            Schedule()
        with pytest.raises(ValueError):
            Transform(scale=0.0)


class TestTick:
    def test_every_two_ticks_fires_on_even_ticks_only(self):
        rig = build_rig(mappings=[level_mapping(every=2)], valve=1.0)
        try:
            fired_at = []
            for t in range(1, 5):
                for d in rig.tick():
                    fired_at.append(d.tick)
            assert fired_at == [2, 4]
        finally:
            rig.close()

    def test_scheduled_syncs_run_in_id_order_across_periods(self):
        mappings = [Mapping(f"m-{name}", "tank", "main", "level", "tank01", "level",
                            Direction.AS_TO_DT, Schedule(every=every),
                            enabled=name != "e")
                    for name, every in (("d", 6), ("c", 2), ("e", 2), ("a", 3), ("b", 1))]
        rig = build_rig(mappings=mappings)
        try:
            due = {tick: [d.mapping_id for d in rig.tick()] for tick in range(1, 7)}
            # the disabled m-e is skipped whenever it is due
            assert due == {1: ["m-b"], 2: ["m-b", "m-c"], 3: ["m-a", "m-b"],
                           4: ["m-b", "m-c"], 5: ["m-b"], 6: ["m-a", "m-b", "m-c", "m-d"]}
        finally:
            rig.close()

    def test_a_mapping_due_for_several_reasons_syncs_once_with_the_first(self):
        # m-change is triggered and reconciled; m-level is reconciled and scheduled
        rig = build_rig(mappings=[level_mapping(), change_trigger_mapping()])
        try:
            rig.tick(step_asset=False)
            rig.registry.set_mode("plant", "tank", ModelMode.OFFLINE)
            rig.registry.set_mode("plant", "tank", ModelMode.ONLINE)
            rig.server.force_set("level", 1.0)
            assert [(d.mapping_id, d.reason) for d in rig.tick(step_asset=False)] == [
                ("m-change", SyncReason.TRIGGERED), ("m-level", SyncReason.TRIGGERED)]
            assert [(d.mapping_id, d.reason) for d in rig.tick(step_asset=False)] == [
                ("m-level", SyncReason.SCHEDULED)]
        finally:
            rig.close()

    def test_no_mappings_empty_decision_list(self):
        rig = build_rig()
        try:
            assert rig.tick() == []
        finally:
            rig.close()

    def test_tick_sequence_enforced(self):
        rig = build_rig()
        try:
            rig.engine.tick(1)
            with pytest.raises(TickSequenceError):
                rig.engine.tick(3)
            with pytest.raises(TickSequenceError):
                rig.engine.tick(1)
        finally:
            rig.close()

    def test_event_trigger_fires_exactly_once_at_crossing_tick(self):
        rig = build_rig(mappings=[overflow_trigger_mapping()], valve=1.0,
                        overflow_level=0.25)
        try:
            triggered = {}
            for t in range(1, 6):
                decisions = rig.tick()
                triggered[t] = [d for d in decisions
                                if d.reason is SyncReason.TRIGGERED]
            # crossing happens at step 3 (level 0.3 >= 0.25), drained at tick 3
            assert [t for t, ds in triggered.items() if ds] == [3]
            assert len(triggered[3]) == 1
            assert triggered[3][0].action is SyncAction.PULL_AS_TO_DT
        finally:
            rig.close()

    def test_change_trigger_coalesces_multiple_occurrences(self):
        rig = build_rig(mappings=[change_trigger_mapping()])
        try:
            rig.server.force_set("level", 1.0)
            rig.server.force_set("level", 2.0)
            rig.server.force_set("level", 3.0)
            decisions = rig.tick(step_asset=False)
            assert len(decisions) == 1
            assert decisions[0].reason is SyncReason.TRIGGERED
            assert rig.registry.property_value("tank", "main", "level") == 3.0
        finally:
            rig.close()

    def test_model_change_trigger_pushes_edit(self):
        mapping = Mapping(
            "m-push", "tank", "main", "valve_target", "tank01", "valve",
            Direction.DT_TO_AS,
            Schedule(trigger=Trigger(TriggerKind.MODEL_CHANGE, model_id="tank",
                                     element_id="main", property_name="valve_target")))
        rig = build_rig(mappings=[mapping])
        try:
            assert rig.tick(step_asset=False) == []
            rig.engine.mediate_operator_call(ApplyOperator(
                "plant", "set_property", "tank",
                {"element": "main", "property": "valve_target", "value": 0.75}))
            decisions = rig.tick(step_asset=False)
            assert [d.action for d in decisions] == [SyncAction.PUSH_DT_TO_AS]
            assert rig.server.state()["valve"] == 0.75
            assert rig.tick(step_asset=False) == []  # edit consumed
        finally:
            rig.close()


class TestTriggerIndex:
    def test_mappings_on_one_trigger_fire_in_id_order(self):
        mappings = [change_trigger_mapping(m) for m in ("m-c", "m-a", "m-b")]
        rig = build_rig(mappings=mappings + [level_mapping()])
        try:
            rig.server.force_set("level", 1.0)
            decisions = rig.tick(step_asset=False)
            # triggered work first, in mapping-id order, then the scheduled mapping
            assert [d.mapping_id for d in decisions] == ["m-a", "m-b", "m-c", "m-level"]
        finally:
            rig.close()

    def test_mapping_disabled_by_the_operator_does_not_fire(self):
        mappings = [change_trigger_mapping(m) for m in ("m-c", "m-a", "m-b")]
        rig = build_rig(mappings=mappings + [level_mapping()])
        try:
            rig.engine.set_mapping_enabled("m-b", False)
            rig.engine.set_mapping_enabled("m-level", False)
            rig.server.force_set("level", 1.0)
            assert [d.mapping_id for d in rig.tick(step_asset=False)] == ["m-a", "m-c"]
            rig.engine.set_mapping_enabled("m-b", True)
            rig.server.force_set("level", 2.0)
            assert [d.mapping_id for d in rig.tick(step_asset=False)] == ["m-a", "m-b", "m-c"]
        finally:
            rig.close()

    def test_mapping_disabled_by_an_integrity_violation_does_not_fire(self):
        # m-big pulls ten times the level: 2.0 becomes 20.0, above the capacity of 10
        rig = build_rig(mappings=[change_trigger_mapping("m-big", Transform(scale=10.0)),
                                  change_trigger_mapping("m-a")])
        try:
            rig.server.force_set("level", 2.0)
            decisions = rig.tick(step_asset=False)
            assert [(d.mapping_id, d.reason) for d in decisions] == [
                ("m-a", SyncReason.TRIGGERED), ("m-big", SyncReason.SUSPENDED)]
            rig.server.force_set("level", 3.0)
            assert [d.mapping_id for d in rig.tick(step_asset=False)] == ["m-a"]
        finally:
            rig.close()

    def test_add_mapping_observes_a_trigger_element_once(self):
        rig = build_rig()
        observed = []
        observe = rig.handle.observe_property
        rig.handle.observe_property = lambda name: observed.append(name) or observe(name)
        try:
            rig.engine.add_mapping(change_trigger_mapping("m-a"))
            assert observed == ["level"]
            rig.engine.add_mapping(change_trigger_mapping("m-b"))
            assert observed == ["level"]
            rig.engine.add_mapping(valve_mapping())  # bidirectional: observes its property
            assert observed == ["level", "valve"]
        finally:
            rig.close()


def _pull_on(mapping_id: str, gateway_id: str, prop: str, kind: TriggerKind,
             element: str) -> Mapping:
    """An AS->DT mapping of ``prop`` fired by a change or event of ``element``."""
    target = "level" if prop == "level" else "valve_target"
    return Mapping(mapping_id, "tank", "main", target, gateway_id, prop, Direction.AS_TO_DT,
                   Schedule(trigger=Trigger(kind, gateway_id=gateway_id, element=element)))


class TestDrainOrder:
    def test_triggers_fire_by_gateway_then_properties_then_events(self):
        from helpers import build_registry, start_tank, tank_descriptor

        registry = build_registry()
        engine = Engine(registry, DataManager(resolver=registry.resolve))
        servers = {gid: start_tank() for gid in ("g-a", "g-b")}
        try:
            for gid, server in servers.items():
                engine.add_gateway(connect(tank_descriptor(server.endpoint, gateway_id=gid)))
            # added so that neither mapping ids nor opening order match the drain order
            change, event = TriggerKind.GATEWAY_CHANGE, TriggerKind.GATEWAY_EVENT
            for mapping in (_pull_on("m-0", "g-b", "valve", change, "valve"),
                            _pull_on("m-2", "g-b", "level", event, "overflow"),
                            _pull_on("m-1", "g-b", "level", change, "level"),
                            _pull_on("m-3", "g-a", "valve", change, "valve")):
                engine.add_mapping(mapping)
            servers["g-b"].force_set("level", 9.0)  # crosses the overflow level
            servers["g-b"].force_set("valve", 0.5)
            servers["g-a"].force_set("valve", 0.25)
            decisions = engine.tick(1)
            # g-a before g-b; within g-b, level and valve by name, then overflow
            assert [d.mapping_id for d in decisions] == ["m-3", "m-1", "m-0", "m-2"]
            assert {d.action for d in decisions} == {SyncAction.PULL_AS_TO_DT}
            assert registry.property_value("tank", "main", "level") == 9.0
        finally:
            engine.close()
            for server in servers.values():
                server.close()


class TestSyncAsToDt:
    def test_pull_updates_model_and_ingests_exactly_one_record(self):
        rig = build_rig(mappings=[level_mapping()], valve=1.0)
        try:
            rig.tick()
            level = rig.registry.property_value("tank", "main", "level")
            assert level == rig.server.state()["level"]
            records = rig.data.query(Selector(origin_source="actual-system"))
            assert len(records) == 1
            record = records[0]
            assert record.value == level
            assert record.prop(PropertyType.TIMELINESS) == "live"
            assert record.prop(PropertyType.PROCESSING) == "raw"
            assert record.prop(PropertyType.LAST_UPDATE) == 1
            assert record.model_link.property_name == "level"
        finally:
            rig.close()

    def test_transform_applies_on_pull(self):
        mapping = Mapping("m-scaled", "tank", "main", "level", "tank01", "level",
                          Direction.AS_TO_DT, Schedule(every=1),
                          Transform(scale=100.0, offset=0.0, unit="percent"))
        # capacity raised so 100x the level still passes the integrity rule
        rig = build_rig(mappings=[mapping], valve=1.0, capacity=10.0)
        try:
            rig.registry.apply_operator("plant", "set_property", "tank",
                                        {"element": "main", "property": "capacity",
                                         "value": 1000.0})
            rig.tick()
            assert rig.registry.property_value("tank", "main", "level") == pytest.approx(
                100.0 * rig.server.state()["level"], abs=0)
        finally:
            rig.close()

    def test_integrity_violation_disables_mapping_and_surfaces(self):
        rig = build_rig(mappings=[level_mapping()], valve=1.0, capacity=20.0)
        try:
            # asset can reach 20, model capacity rule caps at 10
            rig.server.force_set("level", 15.0)
            decisions = rig.tick(step_asset=False)
            assert decisions[0].reason is SyncReason.SUSPENDED
            assert "integrity" in decisions[0].detail
            assert not [m for m in rig.engine.mappings() if m.enabled]
            # model untouched, and the next tick does not retry
            assert rig.registry.property_value("tank", "main", "level") == 0.0
            assert rig.tick(step_asset=False) == []
            # operator re-enables after fixing the asset
            rig.server.force_set("level", 5.0)
            rig.engine.set_mapping_enabled("m-level", True)
            decisions = rig.tick(step_asset=False)
            assert decisions[0].action is SyncAction.PULL_AS_TO_DT
        finally:
            rig.close()

    def test_a_transform_of_text_is_refused_when_the_mapping_is_added(self):
        from twinrt.asset import AssetServer, EchoModel
        from helpers import echo_descriptor
        from twinrt.models import (ModelElement, ModelingLanguage, ModelProperty,
                                   ModelRegistry)

        registry = ModelRegistry()
        registry.register_language(ModelingLanguage(
            "pad-lang", frozenset({"Pad"}), {"Pad": {"text": "text"}}))
        registry.create_manager("m")
        registry.create_model("m", "pads", "pad-lang",
                              [ModelElement("p", "Pad",
                                            {"text": ModelProperty("text", "")})])
        registry.set_mode("m", "pads", ModelMode.ONLINE)
        data = DataManager(resolver=registry.resolve)
        engine = Engine(registry, data)
        server = AssetServer(EchoModel())
        engine.add_gateway(connect(echo_descriptor(server.endpoint)))
        try:
            mapping = Mapping("m-text", "pads", "p", "text", "echo01", "pad",
                              Direction.AS_TO_DT, Schedule(every=1),
                              Transform(scale=2.0))  # scaling text cannot work
            with pytest.raises(SchemaViolation, match="'m-text' joins text .* through a transform"):
                engine.add_mapping(mapping)
            assert engine.mappings() == []
        finally:
            engine.close()
            server.close()


class TestTransform:
    def test_affine_round_trip_within_float_noise(self):
        from hypothesis import given
        from hypothesis import strategies as st

        @given(
            scale=st.floats(min_value=1e-6, max_value=1e6).filter(lambda s: s != 0),
            offset=st.floats(min_value=-1e6, max_value=1e6),
            value=st.floats(min_value=-1e6, max_value=1e6),
        )
        def round_trip(scale, offset, value):
            t = Transform(scale=scale, offset=offset)
            # float error grows with the conditioning of the affine map
            tolerance = 1e-9 * (abs(value) + abs(offset) / scale + 1.0)
            assert abs(t.invert(t.apply(value)) - value) <= tolerance
            assert abs(t.apply(t.invert(value)) - value) <= tolerance

        round_trip()

    def test_identity_passes_any_value_type(self):
        t = Transform()
        for value in (True, 7, 1.5, "text", {"a": 1}, [1, 2]):
            assert t.apply(value) is value
            assert t.invert(value) is value

    def test_non_identity_rejects_non_numeric(self):
        t = Transform(scale=2.0)
        for value in ("text", True, {"a": 1}, [1]):
            with pytest.raises(TransformFailure):
                t.apply(value)
            with pytest.raises(TransformFailure):
                t.invert(value)

    def test_keeps_integers_forward_and_inverse(self):
        assert Transform().keeps_integers() and Transform().keeps_integers(inverse=True)
        assert Transform(scale=2.0, offset=-3.0).keeps_integers()
        assert not Transform(scale=2.0, offset=-3.0).keeps_integers(inverse=True)
        assert Transform(scale=0.5, offset=1.0).keeps_integers(inverse=True)
        assert not Transform(scale=0.5).keeps_integers()
        assert not Transform(offset=0.5).keeps_integers(inverse=True)

    def test_a_result_that_is_not_finite_is_a_transform_failure(self):
        t = Transform(scale=1.0e308, offset=1.7e308)
        assert t.apply(0.0) == 1.7e308
        with pytest.raises(TransformFailure, match="result inf is not finite"):
            t.apply(2.0)
        with pytest.raises(TransformFailure, match="result -inf is not finite"):
            Transform(scale=1.0e-308).invert(-5.0)

    def test_a_transform_that_overflows_suspends_its_sync_and_the_run_goes_on(self):
        mapping = valve_mapping(Direction.AS_TO_DT,
                                transform=Transform(scale=1.0e308, offset=1.7e308))
        rig = build_rig(mappings=[mapping])
        try:
            assert [d.reason for d in rig.tick(step_asset=False)] == [SyncReason.SCHEDULED]
            rig.server.force_set("valve", 2.0)
            assert [(d.reason, d.detail) for d in rig.tick(step_asset=False)] == [
                (SyncReason.SUSPENDED, "transform failure: result inf is not finite")]
            rig.server.force_set("valve", 0.0)
            assert [d.reason for d in rig.tick(step_asset=False)] == [SyncReason.SCHEDULED]
            assert rig.registry.property_value("tank", "main", "valve_target") == 1.7e308
        finally:
            rig.close()


class TestBidirectional:
    def make_rig(self) -> Rig:
        return build_rig(mappings=[valve_mapping()])

    def test_quiescent_fixpoint_is_noop(self):
        rig = self.make_rig()
        try:
            for _ in range(3):
                decisions = rig.tick(step_asset=False)
                assert [d.action for d in decisions] == [SyncAction.NO_OP]
        finally:
            rig.close()

    def test_asset_change_pulls(self):
        rig = self.make_rig()
        try:
            rig.server.force_set("valve", 0.25)
            decisions = rig.tick(step_asset=False)
            assert decisions[0].action is SyncAction.PULL_AS_TO_DT
            assert rig.registry.property_value("tank", "main", "valve_target") == 0.25
        finally:
            rig.close()

    def test_model_edit_pushes(self):
        rig = self.make_rig()
        try:
            rig.engine.mediate_operator_call(ApplyOperator(
                "plant", "set_property", "tank",
                {"element": "main", "property": "valve_target", "value": 0.5}))
            decisions = rig.tick(step_asset=False)
            assert decisions[0].action is SyncAction.PUSH_DT_TO_AS
            assert rig.server.state()["valve"] == 0.5
        finally:
            rig.close()

    def test_scripted_conflict_dt_wins(self):
        # mapping fires only at tick 10; asset changed at (drained) tick 7,
        # model edited between ticks 8 and 9 (stamped 9): DT is newer
        rig = build_rig(mappings=[valve_mapping(every=10)])
        try:
            for _ in range(6):
                rig.tick(step_asset=False)
            rig.server.force_set("valve", 0.9)      # drained at tick 7
            rig.tick(step_asset=False)               # tick 7
            rig.tick(step_asset=False)               # tick 8
            rig.engine.mediate_operator_call(ApplyOperator(
                "plant", "set_property", "tank",
                {"element": "main", "property": "valve_target", "value": 0.1}))
            rig.tick(step_asset=False)               # tick 9
            decisions = rig.tick(step_asset=False)   # tick 10: the sync
            assert [d.action for d in decisions] == [SyncAction.PUSH_DT_TO_AS]
            assert decisions[0].reason is SyncReason.CONFLICT_DT_WINS
            assert rig.server.state()["valve"] == 0.1
        finally:
            rig.close()

    def test_scripted_conflict_as_wins(self):
        rig = build_rig(mappings=[valve_mapping(every=10)])
        try:
            for _ in range(6):
                rig.tick(step_asset=False)
            rig.engine.mediate_operator_call(ApplyOperator(
                "plant", "set_property", "tank",
                {"element": "main", "property": "valve_target", "value": 0.1}))
            rig.tick(step_asset=False)               # tick 7: edit stamped 7
            rig.tick(step_asset=False)               # tick 8
            rig.server.force_set("valve", 0.9)
            rig.tick(step_asset=False)               # tick 9: drained, stamp 9
            decisions = rig.tick(step_asset=False)   # tick 10
            assert decisions[0].reason is SyncReason.CONFLICT_AS_WINS
            assert decisions[0].action is SyncAction.PULL_AS_TO_DT
            assert rig.registry.property_value("tank", "main", "valve_target") == 0.9
        finally:
            rig.close()

    def test_inexact_transform_inverse_quiesces_after_one_echo(self):
        # scale 3 does not invert exactly in floats; the push writes
        # invert(m), the echo pull stores transform(invert(m)), and the
        # system must then be quiescent rather than oscillate
        rig = build_rig(mappings=[valve_mapping(transform=Transform(scale=3.0))])
        try:
            rig.tick(step_asset=False)
            rig.engine.mediate_operator_call(ApplyOperator(
                "plant", "set_property", "tank",
                {"element": "main", "property": "valve_target", "value": 1.0}))
            decisions = rig.tick(step_asset=False)
            assert decisions[0].action is SyncAction.PUSH_DT_TO_AS
            written = rig.server.state()["valve"]
            assert written == pytest.approx(1.0 / 3.0, abs=0)
            decisions = rig.tick(step_asset=False)  # echo pull
            assert decisions[0].action is SyncAction.PULL_AS_TO_DT
            settled = rig.registry.property_value("tank", "main", "valve_target")
            assert settled == 3.0 * written
            for _ in range(3):
                decisions = rig.tick(step_asset=False)
                assert [d.action for d in decisions] == [SyncAction.NO_OP]
            assert rig.server.state()["valve"] == written
            assert rig.registry.property_value("tank", "main", "valve_target") == settled
        finally:
            rig.close()

    def test_same_window_tie_resolves_for_dt(self):
        rig = self.make_rig()
        try:
            rig.tick(step_asset=False)
            # both sides written in the same inter-tick window
            rig.server.force_set("valve", 0.9)
            rig.engine.mediate_operator_call(ApplyOperator(
                "plant", "set_property", "tank",
                {"element": "main", "property": "valve_target", "value": 0.1}))
            decisions = rig.tick(step_asset=False)
            assert decisions[0].reason is SyncReason.CONFLICT_DT_WINS
            # echo pull next tick keeps both sides at the DT value
            rig.tick(step_asset=False)
            rig.tick(step_asset=False)
            assert rig.server.state()["valve"] == 0.1
            assert rig.registry.property_value("tank", "main", "valve_target") == 0.1
        finally:
            rig.close()


class TestSuspension:
    def test_offline_model_suspends_and_resumes_with_reconciliation(self):
        rig = build_rig(mappings=[level_mapping(every=5)], valve=1.0)
        try:
            rig.registry.set_mode("plant", "tank", ModelMode.OFFLINE)
            model_digest = rig.registry.digest("tank")
            for _ in range(5):
                rig.tick()  # asset keeps filling; mapping fires at tick 5
            suspended = [d for d in rig.engine.decisions
                         if d.reason is SyncReason.SUSPENDED]
            assert len(suspended) == 1 and suspended[0].tick == 5
            assert rig.registry.digest("tank") == model_digest  # model untouched
            assert rig.data.count() == 0                        # no records either
            rig.registry.set_mode("plant", "tank", ModelMode.ONLINE)
            decisions = rig.tick()  # tick 6: forced reconciliation, off schedule
            assert [d.action for d in decisions] == [SyncAction.PULL_AS_TO_DT]
            assert decisions[0].reason is SyncReason.TRIGGERED
            assert (rig.registry.property_value("tank", "main", "level")
                    == rig.server.state()["level"])
        finally:
            rig.close()

    def test_offline_experimentation_never_touches_the_asset(self):
        # editing an offline model is the sanctioned experimentation path;
        # nothing may reach the asset until the model goes online again
        rig = build_rig(mappings=[valve_mapping()])
        try:
            rig.tick(step_asset=False)
            rig.registry.set_mode("plant", "tank", ModelMode.OFFLINE)
            rig.engine.mediate_operator_call(ApplyOperator(
                "plant", "set_property", "tank",
                {"element": "main", "property": "valve_target", "value": 0.8}))
            for _ in range(3):
                decisions = rig.tick(step_asset=False)
                assert [d.reason for d in decisions] == [SyncReason.SUSPENDED]
            assert rig.server.state()["valve"] == 0.0  # asset untouched
            rig.registry.set_mode("plant", "tank", ModelMode.ONLINE)
            decisions = rig.tick(step_asset=False)
            assert [d.action for d in decisions] == [SyncAction.PUSH_DT_TO_AS]
            assert rig.server.state()["valve"] == 0.8
        finally:
            rig.close()

    def test_offline_asset_changes_reconcile_on_reonline(self):
        # set offline, change the asset, observe the model unchanged;
        # set online -> reconciled on the next tick
        rig = build_rig(mappings=[valve_mapping()])
        try:
            rig.tick(step_asset=False)
            rig.registry.set_mode("plant", "tank", ModelMode.OFFLINE)
            rig.server.force_set("valve", 0.6)
            rig.tick(step_asset=False)
            assert rig.registry.property_value("tank", "main", "valve_target") == 0.0
            rig.registry.set_mode("plant", "tank", ModelMode.ONLINE)
            decisions = rig.tick(step_asset=False)
            assert [d.action for d in decisions] == [SyncAction.PULL_AS_TO_DT]
            assert rig.registry.property_value("tank", "main", "valve_target") == 0.6
        finally:
            rig.close()

    def test_dead_gateway_yields_suspended_decisions(self):
        rig = build_rig(mappings=[level_mapping()], valve=1.0)
        try:
            rig.server.close()
            decisions = rig.tick(step_asset=False)
            assert [d.reason for d in decisions] == [SyncReason.SUSPENDED]
            assert "gateway" in decisions[0].detail
            # the tick loop keeps running
            assert rig.tick(step_asset=False)[0].reason is SyncReason.SUSPENDED
        finally:
            rig.close()


class TestGatewayFaults:
    """A fault on the gateway side ends in a suspended decision, never in an exception."""

    def test_late_reply_suspends_the_sync(self):
        server, handle, engine = scripted_engine(late_first_reply())
        try:
            with pytest.raises(Disconnected):
                handle._request({"op": "ping"}, timeout=0.1)
            decisions = engine.tick(1)
            assert [d.reason for d in decisions] == [SyncReason.SUSPENDED]
            assert engine.tick(2)[0].reason is SyncReason.SUSPENDED
        finally:
            engine.close()
            server.close()

    def test_a_connection_that_dies_before_a_read_suspends_the_sync(self):
        def hang_up_on_reads(msg):
            if msg["op"] == "read":
                raise Disconnected("the asset hangs up")  # closes the connection
            return plain_reply(msg)

        server, handle, engine = scripted_engine(hang_up_on_reads)
        try:
            first, second = engine.tick(1), engine.tick(2)  # neither raises
        finally:
            engine.close()
            server.close()
        # the detail names the cause the twin saw: its peer closed
        assert [(d.reason, d.detail) for d in first] == [
            (SyncReason.SUSPENDED, "gateway disconnected: peer closed the connection")]
        assert [(d.reason, d.detail) for d in second] == [
            (SyncReason.SUSPENDED, "gateway unavailable")]

    def test_asset_error_reply_suspends_the_sync(self):
        def failing_reads(msg):
            if msg["op"] == "read":
                return {"op": "error", "id": msg["id"], "code": "ASSET_FAULT",
                        "message": "sensor offline"}
            return plain_reply(msg)

        server, handle, engine = scripted_engine(failing_reads)
        try:
            decisions = engine.tick(1)
            assert [d.reason for d in decisions] == [SyncReason.SUSPENDED]
            assert "sensor offline" in decisions[0].detail
            assert handle.is_alive  # a refused request does not end the connection
        finally:
            engine.close()
            server.close()

    def test_push_naming_an_unhashable_element_suspends_the_sync(self):
        def bad_push_before_pong(msg):
            if msg["op"] == "ping":
                return [{"op": "update", "element": [1], "value": 1.0, "ts": 0, "seq": 1},
                        plain_reply(msg)]
            return plain_reply(msg)

        server, handle, engine = scripted_engine(bad_push_before_pong)
        try:
            handle.observe_property("level")
            decisions = engine.tick(1)  # the ping reads the push: must return, not raise
            assert not handle.is_alive
            with pytest.raises(Disconnected, match="malformed push: unhashable"):
                handle.ping()
            assert [(d.reason, d.detail) for d in decisions] == [
                (SyncReason.SUSPENDED, "gateway unavailable")]
        finally:
            engine.close()
            server.close()

    def test_a_push_nested_too_deep_suspends_the_sync(self):
        def deep_push_before_pong(msg):
            if msg["op"] == "ping":
                return [deep_line(3000), plain_reply(msg)]
            return plain_reply(msg)

        server, handle, engine = scripted_engine(deep_push_before_pong)
        try:
            handle.observe_property("level")
            decisions = engine.tick(1)  # the ping reads the push: must return, not raise
            assert not handle.is_alive
            with pytest.raises(Disconnected, match="malformed message: nests deeper"):
                handle.ping()
            assert [(d.reason, d.detail) for d in decisions] == [
                (SyncReason.SUSPENDED, "gateway unavailable")]
        finally:
            engine.close()
            server.close()

    def test_a_mistyped_read_suspends_every_sync_and_keeps_the_mapping(self):
        class LyingTank(TankModel):
            def state(self):
                return dict(super().state(), level="high")

        server = AssetServer(LyingTank())
        registry = build_registry()
        engine = Engine(registry, DataManager(resolver=registry.resolve))
        try:
            engine.add_gateway(connect(tank_descriptor(server.endpoint)))
            engine.add_mapping(level_mapping())
            for tick in range(1, 4):
                assert [(d.reason, d.detail) for d in engine.tick(tick)] == [
                    (SyncReason.SUSPENDED, "gateway error: expected real, got text")]
            assert engine.mappings()[0].enabled
            assert engine.gateway("tank01").is_alive
            assert engine.data.count() == 0
        finally:
            engine.close()
            server.close()

    def test_a_mistyped_update_ends_the_connection(self):
        def mistyped_push_before_pong(msg):
            if msg["op"] == "ping":
                return [{"op": "update", "element": "level", "value": "high", "ts": 0,
                         "seq": 1}, plain_reply(msg)]
            return plain_reply(msg)

        server, handle, engine = scripted_engine(mistyped_push_before_pong)
        try:
            handle.observe_property("level")
            decisions = engine.tick(1)
            assert not handle.is_alive
            with pytest.raises(Disconnected, match="malformed push"):
                handle.ping()
            assert [(d.reason, d.detail) for d in decisions] == [
                (SyncReason.SUSPENDED, "gateway unavailable")]
        finally:
            engine.close()
            server.close()


class TestInvariants:
    def test_direction_safety_over_a_mixed_run(self):
        rig = build_rig(mappings=[level_mapping(), valve_mapping()], valve=0.5)
        try:
            rig.engine.mediate_operator_call(ApplyOperator(
                "plant", "set_property", "tank",
                {"element": "main", "property": "valve_target", "value": 1.0}))
            for _ in range(10):
                rig.tick()
            rig.server.force_set("valve", 0.25)
            for _ in range(5):
                rig.tick()
            for decision in rig.engine.decisions:
                mapping = {m.mapping_id: m for m in rig.engine.mappings()}[decision.mapping_id]
                if decision.action is SyncAction.PULL_AS_TO_DT:
                    assert mapping.direction in (Direction.AS_TO_DT, Direction.BIDIRECTIONAL)
                if decision.action is SyncAction.PUSH_DT_TO_AS:
                    assert mapping.direction in (Direction.DT_TO_AS, Direction.BIDIRECTIONAL)
        finally:
            rig.close()

    def test_mediation_totality_counts_match(self):
        rig = build_rig(mappings=[level_mapping(), valve_mapping()], valve=0.5)
        try:
            rig.engine.mediate_operator_call(ApplyOperator(
                "plant", "set_property", "tank",
                {"element": "main", "property": "valve_target", "value": 0.75}))
            for _ in range(12):
                rig.tick()
            as_records = rig.data.query(Selector(origin_source="actual-system"))
            assert len(as_records) == rig.engine.sync_model_updates
        finally:
            rig.close()

    def test_convergence_for_constant_asset_with_period_n(self):
        rig = build_rig(mappings=[level_mapping(every=3)], level=4.5)
        try:
            for _ in range(6):
                rig.tick(step_asset=False)  # asset holds level constant
            assert rig.registry.property_value("tank", "main", "level") == 4.5
        finally:
            rig.close()

    def test_decision_log_is_append_only_and_deterministic(self):
        def run():
            rig = build_rig(mappings=[level_mapping(), valve_mapping()], valve=0.5)
            try:
                for t in range(1, 9):
                    if t == 3:
                        rig.server.force_set("valve", 0.75)
                    if t == 5:
                        rig.engine.mediate_operator_call(ApplyOperator(
                            "plant", "set_property", "tank",
                            {"element": "main", "property": "valve_target",
                             "value": 0.25}))
                    rig.tick()
                return [d.to_dict() for d in rig.engine.decisions]
            finally:
                rig.close()

        assert run() == run()
