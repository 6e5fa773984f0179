"""What a twin holds in memory, and that closing it lets all of it go.

A closed and dropped twin must be freed by reference counting alone, with
no reference cycle left for the garbage collector: these tests run with the
collector disabled and watch the twin's parts through weak references. A
slotted dataclass carries no per-instance ``__dict__``, which matters for
the objects built per record, per decision and per element.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib
import inspect
import pkgutil
import tracemalloc
import weakref

import pytest
import yaml

import twinrt
import twinrt.config as config_mod
from conftest import DEMO_CONFIG
from helpers import start_tank
from test_config_loader import fleet_yaml
from twinrt.data import (
    HISTORICAL,
    LIVE,
    RAW,
    DataManager,
    DataRecord,
    ModelElementRef,
    PropertyType,
    last_update,
    origin_actual_system,
    processing,
    timeliness,
)
from twinrt.engine import SyncDecision, SyncReason
from twinrt.errors import IntegrityViolation, PermissionDenied
from twinrt.runtime import DecisionLog, TwinRuntime, build_registry, inspect_config
from twinrt.services import ServiceDescriptor, ServiceGrant


@pytest.fixture
def no_gc():
    """The collector stays off for the test, so only reference counts free."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def watch(runtime: TwinRuntime, **more) -> dict[str, weakref.ref]:
    """Weak references to the runtime, its engine, registry and data manager,
    every gateway handle, every asset it hosts, and ``more``."""
    engine = runtime.engine
    parts = {"runtime": runtime, "engine": engine, "registry": runtime.registry,
             "data": runtime.data, **more}
    parts.update({f"gateway {gid}": engine.gateway(gid) for gid in engine.gateways()})
    parts.update({f"asset {gid}": server for gid, server in runtime._assets.items()})
    return {name: weakref.ref(part) for name, part in parts.items()}


def alive(watched: dict[str, weakref.ref]) -> list[str]:
    return [name for name, ref in watched.items() if ref() is not None]


class KeepsItsClient:
    def on_tick(self, ctx):
        self.ctx = ctx


class TestClosedTwinIsFreed:
    def test_demo_twin_with_services_journal_and_control_socket(self, no_gc, tmp_path):
        log = DecisionLog(tmp_path / "decisions.log")
        runtime = TwinRuntime(config_mod.load(DEMO_CONFIG),
                              journal_path=tmp_path / "j.ndjson", decision_sink=log)
        runtime.start_control("tcp://127.0.0.1:0")
        watched = watch(runtime)
        assert len(watched) == 6
        runtime.advance(3)
        runtime.model_edit("plant", "set_property", "tank",
                           {"element": "main", "property": "valve_target", "value": 0.25})
        runtime.advance(2)  # the bidirectional valve mapping pushes, the KPI ingests
        assert runtime.data.count() > 5 and runtime.engine.services() == ["guard", "kpi"]
        runtime.close()
        log.close()
        del runtime
        assert alive(watched) == []

    def test_fleet_shaped_twin(self, no_gc):
        runtime = TwinRuntime(config_mod.loads(fleet_yaml(50, simulate=True)))
        watched = watch(runtime)
        runtime.advance(3)
        assert len(runtime.last_decisions) == 50
        runtime.close()
        del runtime
        assert alive(watched) == []

    def test_twin_whose_asset_died(self, no_gc):
        server = start_tank()
        doc = yaml.safe_load(DEMO_CONFIG.read_text())
        gateway = doc["gateways"][0]
        gateway["endpoint"] = server.endpoint
        del gateway["simulate"]
        runtime = TwinRuntime(config_mod.loads(yaml.safe_dump(doc)))
        watched = watch(runtime, asset=server)
        runtime.advance(2)
        server.close()
        decisions = runtime.tick()
        assert decisions and {d.reason for d in decisions} == {SyncReason.SUSPENDED}
        assert not runtime.engine.gateway("tank01").is_alive
        runtime.close()
        del runtime, server, decisions
        assert alive(watched) == []

    def test_a_service_client_is_refused_after_close(self):
        runtime = TwinRuntime(config_mod.load(DEMO_CONFIG))
        keeper = KeepsItsClient()
        runtime.engine.register_service(
            ServiceDescriptor("keeper", ServiceGrant.parse(["read-model:tank"])), keeper)
        runtime.advance(1)
        assert keeper.ctx.read_model_property("tank", "main", "capacity") == 10.0
        runtime.close()
        with pytest.raises(PermissionDenied, match="not registered"):
            keeper.ctx.read_model_property("tank", "main", "capacity")
        with pytest.raises(PermissionDenied, match="not registered"):
            keeper.ctx.report("after close")


def twinrt_dataclasses() -> list[type]:
    found = []
    for info in pkgutil.iter_modules(twinrt.__path__):
        module = importlib.import_module(f"twinrt.{info.name}")
        found += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                  if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__]
    return found


class TestEveryDataclassIsSlotted:
    def test_every_twinrt_dataclass_defines_slots_and_no_instance_dict(self):
        classes = twinrt_dataclasses()
        assert {DataRecord, ModelElementRef, SyncDecision} <= set(classes)
        unslotted = [cls.__qualname__ for cls in classes
                     if "__slots__" not in vars(cls) or cls.__dictoffset__ != 0]
        assert unslotted == []

    def test_records_and_decisions_have_no_instance_dict(self):
        runtime = TwinRuntime(config_mod.load(DEMO_CONFIG))
        try:
            runtime.advance(1)
            decision = runtime.last_decisions[0]
            record = runtime.data.query()[0]
        finally:
            runtime.close()
        link = record.model_link
        assert link is not None and record.prop(PropertyType.ORIGIN) is not None
        for obj in (decision, record, link, *record.properties):
            assert not hasattr(obj, "__dict__"), type(obj).__name__


def container_sizes(obj) -> dict[str, int]:
    return {name: len(value) for name, value in vars(obj).items()
            if isinstance(value, (list, dict, set))}


class TestEngineGrowth:
    def test_of_the_engines_containers_only_decisions_grow_with_ticks(self):
        # services act through mediated requests, and the decision sink, not
        # the engine, keeps what they did
        runtime = TwinRuntime(config_mod.load(DEMO_CONFIG))
        try:
            assert runtime.engine.services() == ["guard", "kpi"]
            runtime.advance(20)
            before = container_sizes(runtime.engine)
            runtime.advance(200)
            after = container_sizes(runtime.engine)
        finally:
            runtime.close()
        assert [name for name in after if after[name] > before[name]] == ["decisions"]


def bytes_per_record(ingest, n: int = 20_000) -> float:
    """The bytes a store retains per record after ``ingest(dm, i)`` for i < n."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dm = DataManager()
        for i in range(n):
            ingest(dm, i)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert dm.count() == n
    return retained / n


class TestRecordCost:
    def test_history_records_sharing_metadata_retain_at_most_200_bytes_each(self):
        # the shape of a primed history: one property list, and a new but
        # equal link per record for each of 1 000 elements
        props = [origin_actual_system("g1"), timeliness(HISTORICAL), last_update(0)]
        assert bytes_per_record(lambda dm, i: dm.ingest(
            i / 7, props, model_link=ModelElementRef("fleet", f"e{i % 1000:04d}", "level"))) <= 200

    def test_sync_records_one_per_tick_retain_at_most_330_bytes_each(self):
        # every record starts a run of its own in the tick index
        def sync(dm, tick):
            dm.ingest(tick / 7, [origin_actual_system("g0"), timeliness(LIVE), processing(RAW),
                                 last_update(tick)],
                      model_link=ModelElementRef("tank", "main", "level"))
        assert bytes_per_record(sync) <= 330


class TestReloadCost:
    def test_reload_peaks_less_than_1_mib_above_the_store_it_leaves(self, tmp_path):
        # a journal of 20 000 sync records is about 4 MiB; read one line at a
        # time, only the line being replayed is held beside the store
        n = 20_000
        path = tmp_path / "journal.ndjson"
        dm = DataManager(journal_path=path)
        for tick in range(n):
            dm.ingest(tick / 7, [origin_actual_system("g0"), timeliness(LIVE), processing(RAW),
                                 last_update(tick)],
                      model_link=ModelElementRef("tank", "main", "level"))
        dm.close()
        assert path.stat().st_size > 3 << 20
        tracemalloc.start()
        try:
            reloaded = DataManager.reload(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reloaded.count() == n
        assert peak - retained < 1 << 20


class TestConfigurationCost:
    def test_fleet_configuration_and_registry_bytes_per_element(self):
        # each element repeats a kind, a property name and a number, and
        # each mapping five names; built once each, the whole fleet costs
        # about 2 200 B per element at peak and 900 B per element held
        n = 2000
        text = fleet_yaml(n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            config = config_mod.loads(text)
            peak = tracemalloc.get_traced_memory()[1]
            registry = build_registry(config)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(registry.model("fleet").elements) == len(config.mappings) == n
        assert (peak - base) / n <= 3000
        assert (retained - base) / n <= 1200


CONFIGURED_MAIN = {"level": 0.0, "capacity": 10.0, "valve_target": 0.0}


def configured_main(config) -> dict:
    (element,) = config.models[0].elements
    return {name: prop.value for name, prop in element.properties.items()}


class TestRegistryHoldsTheConfiguredElements:
    def test_until_a_write_copies_them(self):
        config = config_mod.load(DEMO_CONFIG)
        runtime = TwinRuntime(config)
        try:
            (element,) = config.models[0].elements
            assert runtime.registry.model("tank").elements["main"] is element
            runtime.advance(3)  # the level mapping pulls a rising level
            runtime.model_edit("plant", "set_property", "tank",
                               {"element": "main", "property": "valve_target", "value": 0.25})
            runtime.advance(1)
            live = runtime.registry.model("tank").elements["main"]
            assert live is not element
            assert live.value("level") > 0.0 and live.value("valve_target") == 0.25
        finally:
            runtime.close()
        assert configured_main(runtime.config) == CONFIGURED_MAIN
        properties = inspect_config(config)["models"]["tank"]["elements"]["main"]["properties"]
        assert {name: p["value"] for name, p in properties.items()} == CONFIGURED_MAIN

    def test_a_refused_write_leaves_them_as_configured(self):
        config = config_mod.load(DEMO_CONFIG)
        registry = build_registry(config)
        with pytest.raises(IntegrityViolation):
            registry.apply_operator("plant", "set_property", "tank",
                                    {"element": "main", "property": "level", "value": 11.0})
        assert configured_main(config) == CONFIGURED_MAIN
        assert registry.model("tank").elements["main"] is config.models[0].elements[0]
