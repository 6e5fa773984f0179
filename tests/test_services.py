import pytest

from helpers import build_registry, level_mapping, tank_descriptor

from twinrt.asset import AssetServer, TankModel
from twinrt.data import DataManager, ModelElementRef, Selector
from twinrt.engine import Engine
from twinrt.errors import DanglingGrantTarget, DuplicateService, PermissionDenied
from twinrt.gateway import connect
from twinrt.services import (
    ALL_REQUEST_TYPES,
    ApplyOperator,
    Hook,
    IngestProcessed,
    InvokeFunction,
    KpiMonitor,
    QueryData,
    ReadGatewayProperty,
    ReadModelProperty,
    ServiceDescriptor,
    ServiceGrant,
    ThresholdGuard,
    build_builtin,
    required_capability,
)

LEVEL_REF = ModelElementRef("tank", "main", "level")


class CountingTank(TankModel):
    def __init__(self, **kw):
        super().__init__(**kw)
        self.flush_count = 0

    def _invoke(self, name, args):
        self.flush_count += 1
        return super()._invoke(name, args)


def make_rig(tank=None, mappings=(), **tank_params):
    registry = build_registry()
    data = DataManager(resolver=registry.resolve)
    engine = Engine(registry, data)
    server = AssetServer(tank or TankModel(**tank_params))
    engine.add_gateway(connect(tank_descriptor(server.endpoint)))
    for mapping in mappings:
        engine.add_mapping(mapping)
    return registry, data, engine, server


class Recorder:
    """Test service capturing every hook call."""

    def __init__(self, log, name):
        self.log = log
        self.name = name

    def on_tick(self, ctx):
        self.log.append((self.name, "tick"))

    def on_decision(self, ctx, decision):
        self.log.append((self.name, "decision", decision.mapping_id, decision.tick))

    def on_event(self, ctx, occurrence):
        self.log.append((self.name, "event", occurrence.name, occurrence.payload))


class TestGrants:
    def test_parse_and_allows(self):
        grant = ServiceGrant.parse(["read-model:tank", "ingest-data",
                                    "command-gateway:*"])
        assert grant.allows("read-model", "tank")
        assert not grant.allows("read-model", "boiler")
        assert grant.allows("ingest-data", "*")
        assert grant.allows("command-gateway", "anything")
        assert not grant.allows("write-model", "tank")

    def test_parse_rejects_unknown_or_malformed(self):
        with pytest.raises(ValueError):
            ServiceGrant.parse(["fly"])
        with pytest.raises(ValueError):
            ServiceGrant.parse(["read-model"])  # needs a target
        with pytest.raises(ValueError):
            ServiceGrant.parse(["read-data:tank"])  # takes none

    def test_round_trip(self):
        items = ["command-gateway:tank01", "ingest-data", "read-model:*"]
        assert ServiceGrant.parse(items).entries == {
            ("command-gateway", "tank01"), ("ingest-data", "*"), ("read-model", "*")}

    def test_required_capability_covers_every_request_type(self):
        requests = [
            ReadModelProperty("tank", "main", "level"),
            ApplyOperator("plant", "set_property", "tank", {}),
            QueryData(),
            IngestProcessed(1.0),
            ReadGatewayProperty("tank01", "level"),
            InvokeFunction("tank01", "flush"),
        ]
        assert {type(r) for r in requests} == set(ALL_REQUEST_TYPES)
        kinds = [required_capability(r)[0] for r in requests]
        assert kinds == ["read-model", "write-model", "read-data", "ingest-data",
                         "read-gateway", "command-gateway"]


class TestRegistration:
    def test_hooked_service_called_each_tick(self):
        registry, data, engine, server = make_rig()
        try:
            log = []
            engine.register_service(
                ServiceDescriptor("probe", ServiceGrant(), hooks=(Hook("on-tick"),)),
                Recorder(log, "probe"))
            for t in range(1, 6):
                engine.tick(t)
            assert log == [("probe", "tick")] * 5  # call-count oracle
        finally:
            engine.close()
            server.close()

    def test_duplicate_service(self):
        registry, data, engine, server = make_rig()
        try:
            engine.register_service(ServiceDescriptor("kpi", ServiceGrant()), object())
            with pytest.raises(DuplicateService):
                engine.register_service(ServiceDescriptor("kpi", ServiceGrant()), object())
        finally:
            engine.close()
            server.close()

    def test_dangling_grant_target(self):
        registry, data, engine, server = make_rig()
        try:
            with pytest.raises(DanglingGrantTarget):
                engine.register_service(ServiceDescriptor(
                    "kpi", ServiceGrant.parse(["read-gateway:ghost"])), object())
            with pytest.raises(DanglingGrantTarget):
                engine.register_service(ServiceDescriptor(
                    "kpi2", ServiceGrant.parse(["read-model:ghost"])), object())
        finally:
            engine.close()
            server.close()

    def test_wildcard_targets_are_fine(self):
        registry, data, engine, server = make_rig()
        try:
            engine.register_service(ServiceDescriptor(
                "kpi", ServiceGrant.parse(["read-model:*", "command-gateway:*"])), object())
        finally:
            engine.close()
            server.close()


class TestMediation:
    def grant_service(self, engine, items):
        engine.register_service(
            ServiceDescriptor("svc", ServiceGrant.parse(items)), object())

    def test_read_model_with_grant(self):
        registry, data, engine, server = make_rig()
        try:
            self.grant_service(engine, ["read-model:*"])
            value = engine.mediate_service_call(
                "svc", ReadModelProperty("tank", "main", "level"))
            assert value == 0.0
        finally:
            engine.close()
            server.close()

    def test_denied_invoke_leaves_asset_unchanged(self):
        registry, data, engine, server = make_rig(level=5.0)
        try:
            self.grant_service(engine, ["read-model:*"])
            before = server.state()
            with pytest.raises(PermissionDenied) as excinfo:
                engine.mediate_service_call("svc", InvokeFunction("tank01", "flush"))
            assert excinfo.value.capability == "command-gateway:tank01"
            assert server.state() == before
        finally:
            engine.close()
            server.close()

    def test_empty_grant_denies_every_request_type(self):
        registry, data, engine, server = make_rig(level=5.0)
        try:
            self.grant_service(engine, [])
            requests = [
                ReadModelProperty("tank", "main", "level"),
                ApplyOperator("plant", "set_property", "tank",
                              {"element": "main", "property": "level", "value": 1.0}),
                QueryData(Selector()),
                IngestProcessed(1.0),
                ReadGatewayProperty("tank01", "level"),
                InvokeFunction("tank01", "flush"),
            ]
            model_before = registry.digest("tank")
            journal_before = data.count()
            asset_before = server.state()
            for request in requests:
                with pytest.raises(PermissionDenied):
                    engine.mediate_service_call("svc", request)
            assert registry.digest("tank") == model_before
            assert data.count() == journal_before
            assert server.state() == asset_before
        finally:
            engine.close()
            server.close()

    def test_unregistered_service_denied(self):
        registry, data, engine, server = make_rig()
        try:
            with pytest.raises(PermissionDenied):
                engine.mediate_service_call("ghost", QueryData())
        finally:
            engine.close()
            server.close()

    def test_service_origin_is_stamped_by_engine(self):
        registry, data, engine, server = make_rig()
        try:
            self.grant_service(engine, ["ingest-data"])
            rid = engine.mediate_service_call("svc", IngestProcessed(2.5, link=LEVEL_REF))
            record = data.get(rid)
            from twinrt.data import PropertyType

            assert record.prop(PropertyType.ORIGIN) == {"source": "service", "id": "svc"}
            assert record.prop(PropertyType.PROCESSING) == "processed"
            assert record.prop(PropertyType.TIMELINESS) == "historical"
        finally:
            engine.close()
            server.close()


class Asker:
    """Test service that asks one question through its client each tick."""

    def __init__(self, ask):
        self.ask = ask
        self.answers = []

    def on_tick(self, ctx):
        try:
            self.answers.append(self.ask(ctx))
        except PermissionDenied as exc:
            self.answers.append(exc)


class TestServiceClientReads:
    """query_data and read_gateway_property, called as a registered service calls them."""

    def ask_each_tick(self, engine, grant, ask, ticks=2):
        asker = Asker(ask)
        engine.register_service(ServiceDescriptor(
            "asker", ServiceGrant.parse(grant), hooks=(Hook("on-tick"),)), asker)
        for t in range(1, ticks + 1):
            engine.tick(t)
        return asker.answers

    def test_query_data_with_the_read_data_grant(self):
        registry, data, engine, server = make_rig(mappings=[level_mapping()], valve=1.0)
        try:
            actual = Selector(origin_source="actual-system")
            service = Selector(origin_source="service")
            answers = self.ask_each_tick(engine, ["read-data"], lambda ctx: (
                ctx.query_data(actual), ctx.query_data(), ctx.query_data(service)))
            # each tick's hook runs after that tick's pull was recorded
            assert [len(pulled) for pulled, _, _ in answers] == [1, 2]
            assert answers[-1] == (data.query(actual), data.query(Selector()), [])
        finally:
            engine.close()
            server.close()

    def test_query_data_without_the_read_data_grant_is_denied(self):
        registry, data, engine, server = make_rig(mappings=[level_mapping()])
        try:
            answers = self.ask_each_tick(engine, ["read-model:*"],
                                         lambda ctx: ctx.query_data(), ticks=1)
            assert [type(a) for a in answers] == [PermissionDenied]
            assert answers[0].capability == "read-data"
        finally:
            engine.close()
            server.close()

    def test_read_gateway_property_with_its_grant(self):
        registry, data, engine, server = make_rig(level=5.0)
        try:
            answers = self.ask_each_tick(engine, ["read-gateway:tank01"],
                                         lambda ctx: ctx.read_gateway_property("tank01", "level"))
            assert [a.value for a in answers] == [5.0, 5.0]
            assert {a.element_name for a in answers} == {"level"}
        finally:
            engine.close()
            server.close()

    def test_read_gateway_property_without_its_grant_is_denied(self):
        registry, data, engine, server = make_rig(level=5.0)
        try:
            answers = self.ask_each_tick(engine, ["read-model:*", "read-data"],
                                         lambda ctx: ctx.read_gateway_property("tank01", "level"),
                                         ticks=1)
            assert [type(a) for a in answers] == [PermissionDenied]
            assert answers[0].capability == "read-gateway:tank01"
        finally:
            engine.close()
            server.close()


class TestKpiMonitor:
    def register_kpi(self, engine, window=4, grant=("read-model:tank", "ingest-data")):
        engine.register_service(
            ServiceDescriptor("kpi", ServiceGrant.parse(list(grant)),
                              hooks=(Hook("on-tick"),)),
            KpiMonitor(window=window, ref=LEVEL_REF))

    def test_constant_property_yields_constant_means(self):
        registry, data, engine, server = make_rig()
        try:
            registry.apply_operator("plant", "set_property", "tank",
                                    {"element": "main", "property": "level",
                                     "value": 2.0})
            self.register_kpi(engine, window=4)
            for t in range(1, 9):
                engine.tick(t)
            records = data.query(Selector(origin_source="service", origin_id="kpi"))
            assert [r.value for r in records] == [2.0, 2.0]
        finally:
            engine.close()
            server.close()

    def test_window_mean_matches_arithmetic_oracle(self):
        registry, data, engine, server = make_rig(mappings=[level_mapping()])
        try:
            self.register_kpi(engine, window=4)
            trace = [1.0, 2.0, 3.0, 4.0]
            for t, value in enumerate(trace, start=1):
                server.force_set("level", value)
                engine.tick(t)
            records = data.query(Selector(origin_source="service", origin_id="kpi"))
            assert len(records) == 1
            assert records[0].value == sum(trace) / len(trace)  # 2.5
            assert records[0].model_link == LEVEL_REF
        finally:
            engine.close()
            server.close()

    def test_missing_ingest_grant_disables_after_first_denial(self):
        registry, data, engine, server = make_rig(level=2.0)
        try:
            self.register_kpi(engine, window=2, grant=("read-model:tank",))
            for t in range(1, 7):
                engine.tick(t)
            assert data.query(Selector(origin_source="service")) == []
            assert not engine.service_enabled("kpi")
            disabled = [n for n in engine.notices if n.get("event") == "disabled"]
            assert len(disabled) == 1 and disabled[0]["service"] == "kpi"
            assert disabled[0]["detail"].startswith("permission denied: ingest-data")
            # disabled at tick 2 (first window close); no hook ran afterwards
            assert disabled[0]["tick"] == 2
        finally:
            engine.close()
            server.close()


class TestThresholdGuard:
    def make_guarded_rig(self, grant=("read-model:tank", "command-gateway:tank01"),
                         bound=8.0):
        tank = CountingTank(valve=1.0)
        registry, data, engine, server = make_rig(tank=tank,
                                                  mappings=[level_mapping()])
        engine.register_service(
            ServiceDescriptor("guard", ServiceGrant.parse(list(grant)),
                              hooks=(Hook("on-tick"),)),
            ThresholdGuard(ref=LEVEL_REF, bound=bound, gateway_id="tank01",
                           function="flush"))
        return registry, data, engine, server, tank

    def test_exactly_one_flush_per_excursion(self):
        registry, data, engine, server, tank = self.make_guarded_rig()
        try:
            for t in range(1, 200):
                server.step(1)
                engine.tick(t)
            # refill takes 81 steps to re-cross 8.0; two full excursions fit
            assert tank.flush_count == 2
        finally:
            engine.close()
            server.close()

    def test_no_crossing_no_invocations(self):
        registry, data, engine, server, tank = self.make_guarded_rig(bound=1000.0)
        try:
            for t in range(1, 30):
                server.step(1)
                engine.tick(t)
            assert tank.flush_count == 0
        finally:
            engine.close()
            server.close()

    def test_missing_command_grant_denies_and_asset_untouched(self):
        registry, data, engine, server, tank = self.make_guarded_rig(
            grant=("read-model:tank",))
        try:
            for t in range(1, 120):
                server.step(1)
                engine.tick(t)
            assert tank.flush_count == 0
            assert not engine.service_enabled("guard")
            # level kept rising to capacity; the guard never touched it
            assert server.state()["level"] == 10.0
        finally:
            engine.close()
            server.close()


class TestHookOrdering:
    def test_on_tick_runs_after_sync_in_service_id_order(self):
        registry, data, engine, server = make_rig(mappings=[level_mapping()],
                                                  valve=1.0)
        try:
            log = []

            class SyncProbe(Recorder):
                def on_tick(self, ctx):
                    # all of this tick's decisions are already recorded
                    log.append((self.name, "tick", engine.decisions[-1].tick))

            for name in ("zeta", "alpha", "mid"):
                engine.register_service(
                    ServiceDescriptor(name, ServiceGrant(), hooks=(Hook("on-tick"),)),
                    SyncProbe(log, name))
            server.step(1)
            engine.tick(1)
            assert log == [("alpha", "tick", 1), ("mid", "tick", 1), ("zeta", "tick", 1)]
        finally:
            engine.close()
            server.close()

    def test_on_event_and_on_decision_hooks_deliver(self):
        registry, data, engine, server = make_rig(mappings=[level_mapping()],
                                                  valve=1.0, overflow_level=0.25)
        try:
            log = []
            engine.register_service(
                ServiceDescriptor("probe", ServiceGrant(),
                                  hooks=(Hook("on-decision"),
                                         Hook("on-event", gateway_id="tank01",
                                              event="overflow"))),
                Recorder(log, "probe"))
            for t in range(1, 5):
                server.step(1)
                engine.tick(t)
            events = [entry for entry in log if entry[1] == "event"]
            decisions = [entry for entry in log if entry[1] == "decision"]
            assert len(events) == 1 and events[0][2] == "overflow"
            assert len(decisions) == 4  # one per tick from the level mapping
        finally:
            engine.close()
            server.close()


class TestNoBackChannel:
    def test_every_service_effect_appears_in_the_mediated_log(self, tmp_path):
        # cross-check two independent records: journal entries with service
        # origin and asset commands must each match an allowed mediated call
        import twinrt.config as config_mod
        from conftest import DEMO_CONFIG
        from twinrt.runtime import TwinRuntime

        runtime = TwinRuntime(config_mod.load(DEMO_CONFIG))
        try:
            for _ in range(9):
                runtime.advance(1)
            runtime.asset_set("tank01", "level", 8.5)  # trips the guard
            for _ in range(3):
                runtime.advance(1)
            log = runtime.engine.mediated_log
            kpi_records = runtime.data.query(Selector(origin_source="service",
                                                      origin_id="kpi"))
            kpi_ingests = [e for e in log if e["service"] == "kpi"
                           and e["capability"] == "ingest-data" and e["allowed"]]
            assert len(kpi_records) == len(kpi_ingests) > 0
            guard_commands = [e for e in log if e["service"] == "guard"
                              and e["capability"] == "command-gateway" and e["allowed"]]
            assert len(guard_commands) == 1  # exactly the one flush
            # reads are logged too: one model read per enabled service per tick
            assert all(e["capability"] in ("read-model", "ingest-data",
                                           "command-gateway") for e in log)
        finally:
            runtime.close()

    def test_denied_requests_are_logged_as_denied(self):
        registry, data, engine, server = make_rig()
        try:
            engine.register_service(ServiceDescriptor("mute", ServiceGrant()), object())
            with pytest.raises(PermissionDenied):
                engine.mediate_service_call("mute", QueryData())
            assert engine.mediated_log == [
                {"tick": 1, "service": "mute", "capability": "read-data",
                 "target": "*", "allowed": False}]
        finally:
            engine.close()
            server.close()


def test_build_builtin_validation():
    kpi = build_builtin("kpi_monitor", {"window": 3, "model": "tank",
                                        "element": "main", "property": "level"})
    assert isinstance(kpi, KpiMonitor) and kpi.window == 3
    guard = build_builtin("threshold_guard", {"model": "tank", "element": "main",
                                              "property": "level", "bound": 8,
                                              "gateway": "tank01", "function": "flush"})
    assert isinstance(guard, ThresholdGuard) and guard.bound == 8.0
    with pytest.raises(ValueError):
        build_builtin("oracle", {})
    with pytest.raises(ValueError):
        build_builtin("kpi_monitor", {"window": 3})
    with pytest.raises(ValueError):
        KpiMonitor(window=0, ref=LEVEL_REF)
