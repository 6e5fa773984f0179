"""Pulls served from drained updates, against the read-every-time reference.

For a property the engine observes, a pull takes the newest update drained
behind the tick's ping barrier and reads the property only on a miss.
``ReadingEngine`` (tests/reference_pull.py) reads on every pull, as the
engine did before. Random sequences of asset steps, forced asset values,
model edits and mode switches run against two identical tank rigs, one per
engine; both must make the same decisions, write the same journal bytes and
end with the same model and asset state.
"""

import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    level_mapping,
    plain_reply,
    scripted_engine,
    start_tank,
    tank_descriptor,
)
from reference_pull import ReadingEngine

from twinrt.data import DataManager
from twinrt.engine import (
    Direction,
    Engine,
    Mapping,
    Schedule,
    SyncAction,
    SyncReason,
    Trigger,
    TriggerKind,
)
from twinrt.gateway import connect
from twinrt.models import (
    ModelElement,
    ModelingLanguage,
    ModelMode,
    ModelProperty,
    ModelRegistry,
    PropertyRule,
)
from twinrt.services import ApplyOperator
from twinrt.values import canonical_json

VALUES = (0.0, 0.25, 0.5, 1.0)


def _registry() -> ModelRegistry:
    registry = ModelRegistry()
    registry.register_language(ModelingLanguage(
        "tank-structure", frozenset({"Tank"}),
        {"Tank": {"level": "real", "capacity": "real", "valve_target": "real",
                  "valve_alt": "real", "valve_seen": "real"}},
        rules=(PropertyRule("level-within-capacity", "Tank", "level", "le",
                            other_property="capacity"),)))
    registry.create_manager("plant")
    registry.create_model("plant", "tank", "tank-structure", [ModelElement("main", "Tank", {
        "level": ModelProperty("level", 0.0),
        "capacity": ModelProperty("capacity", 10.0),
        "valve_target": ModelProperty("valve_target", 0.0),
        "valve_alt": ModelProperty("valve_alt", 0.0),
        "valve_seen": ModelProperty("valve_seen", 0.0),
    })], track_last_update=True)
    registry.set_mode("plant", "tank", ModelMode.ONLINE)
    return registry


def _mapping(mapping_id: str, prop: str, gateway_prop: str, direction: Direction,
             every: int | None) -> Mapping:
    """``every`` None schedules the mapping on a change of its gateway property."""
    schedule = (Schedule(every=every) if every is not None else
                Schedule(trigger=Trigger(TriggerKind.GATEWAY_CHANGE, gateway_id="tank01",
                                         element=gateway_prop)))
    return Mapping(mapping_id, "tank", "main", prop, "tank01", gateway_prop, direction,
                   schedule)


def _mappings(level_every=1, valve_every=1, seen_every=1, alt=None) -> list[Mapping]:
    """The rig's mappings, and m-valve-alt if ``alt`` gives its (every, direction).

    The ids sort m-valve, m-valve-alt, m-valve-seen, so a tick's pushes to
    the valve come before the pull that mirrors it.
    """
    mappings = [_mapping("m-level", "level", "level", Direction.AS_TO_DT, level_every),
                _mapping("m-valve", "valve_target", "valve", Direction.BIDIRECTIONAL,
                         valve_every),
                _mapping("m-valve-seen", "valve_seen", "valve", Direction.AS_TO_DT,
                         seen_every)]
    if alt is not None:
        mappings.append(_mapping("m-valve-alt", "valve_alt", "valve", alt[1],
                                 alt[0]))
    return mappings


class _Twin:
    """One engine on its own in-process tank, with a journal."""

    def __init__(self, engine_type: type[Engine], mappings: list[Mapping],
                 journal: Path | None = None):
        self.registry = _registry()
        self.data = DataManager(journal_path=journal, resolver=self.registry.resolve)
        self.engine = engine_type(self.registry, self.data)
        self.server = start_tank(valve=0.5)
        self.engine.add_gateway(connect(tank_descriptor(self.server.endpoint)))
        for mapping in mappings:
            self.engine.add_mapping(mapping)

    def tick(self):
        return self.engine.tick(self.engine.tick_count + 1)

    def apply(self, step: tuple) -> None:
        op = step[0]
        if op == "step":
            self.server.step(step[1])
        elif op == "force":
            self.server.force_set(step[1], step[2])
        elif op == "edit":
            self.engine.mediate_operator_call(ApplyOperator(
                "plant", "set_property", "tank",
                {"element": "main", "property": step[1], "value": step[2]}))
        elif op == "mode":
            self.registry.set_mode("plant", "tank", step[1])
        else:
            for _ in range(step[1]):
                self.tick()

    def value(self, prop: str):
        return self.registry.property_value("tank", "main", prop)

    def close(self) -> None:
        self.engine.close()
        self.server.close()
        self.data.close()


schedules = st.sampled_from([1, 2, 3, None])
steps = st.one_of(
    st.tuples(st.just("step"), st.integers(1, 3)),
    st.tuples(st.just("force"), st.sampled_from(["level", "valve"]), st.sampled_from(VALUES)),
    st.tuples(st.just("edit"), st.sampled_from(["valve_target", "valve_alt"]),
              st.sampled_from(VALUES)),
    st.tuples(st.just("mode"), st.sampled_from([ModelMode.OFFLINE, ModelMode.ONLINE])),
    st.tuples(st.just("tick"), st.integers(1, 2)),
)


@settings(max_examples=80, deadline=None)
@given(schedules, schedules, schedules,
       st.none() | st.tuples(schedules, st.sampled_from([Direction.BIDIRECTIONAL,
                                                         Direction.DT_TO_AS])),
       st.lists(steps, max_size=10))
def test_pulls_match_the_reading_engine(level_every, valve_every, seen_every, alt, script):
    mappings = _mappings(level_every, valve_every, seen_every, alt)
    with tempfile.TemporaryDirectory() as tmp:
        twins = [_Twin(engine_type, mappings, Path(tmp) / f"{engine_type.__name__}.ndjson")
                 for engine_type in (Engine, ReadingEngine)]
        try:
            for step in script + [("mode", ModelMode.ONLINE), ("tick", 2)]:
                for twin in twins:
                    twin.apply(step)
            served, read = twins
            assert ([canonical_json(d.to_dict()) for d in served.engine.decisions]
                    == [canonical_json(d.to_dict()) for d in read.engine.decisions])
            assert served.registry.model("tank").to_dict() == read.registry.model("tank").to_dict()
            assert served.server.state() == read.server.state()
        finally:
            for twin in twins:
                twin.close()
        journals = [(Path(tmp) / f"{t.__name__}.ndjson").read_bytes()
                    for t in (Engine, ReadingEngine)]
        assert journals[0] == journals[1]


class TestServedPulls:
    def test_first_pull_seeds_no_recency(self):
        # a bidirectional mapping sharing the property sees no asset change
        twin = _Twin(Engine, _mappings())
        try:
            for _ in range(3):
                actions = {d.mapping_id: d.action for d in twin.tick()}
                assert actions["m-valve"] is SyncAction.NO_OP
                assert actions["m-valve-seen"] is SyncAction.PULL_AS_TO_DT
            assert twin.value("valve_seen") == 0.5
        finally:
            twin.close()

    def test_pull_after_a_push_in_the_same_tick_sees_the_pushed_value(self):
        twin = _Twin(Engine, _mappings())
        try:
            twin.server.force_set("valve", 0.25)
            twin.tick()
            assert twin.value("valve_seen") == 0.25
            twin.apply(("edit", "valve_target", 1.0))
            decisions = {d.mapping_id: d for d in twin.tick()}
            assert decisions["m-valve"].action is SyncAction.PUSH_DT_TO_AS
            assert twin.value("valve_seen") == 1.0
        finally:
            twin.close()

    def test_served_pull_follows_every_asset_step(self):
        twin = _Twin(Engine, _mappings(level_every=None))
        try:
            for _ in range(5):
                twin.server.step(1)
                twin.tick()
                assert twin.value("level") == twin.server.state()["level"]
        finally:
            twin.close()


class TestPullRequests:
    """What a pull asks of the asset, counted on the scripted tank's wire."""

    def run(self, mappings, respond=plain_reply) -> Counter:
        requests = Counter()
        server, handle, engine = scripted_engine(respond, requests, mappings)
        try:
            for tick in range(1, 4):
                decisions = {d.mapping_id: d for d in engine.tick(tick)}
                assert decisions["m-level"].action is SyncAction.PULL_AS_TO_DT
        finally:
            engine.close()
            server.close()
        return requests

    def test_observed_property_is_read_once(self):
        # the change trigger observes level; the scripted tank never pushes
        requests = self.run([level_mapping(), _mapping("m-change", "level", "level",
                                                       Direction.AS_TO_DT, None)])
        assert requests == Counter(observe=1, ping=3, read=1)

    def test_property_the_asset_will_not_let_be_observed_is_read_on_every_pull(self):
        def refuse_observe(msg):
            if msg["op"] == "observe":
                return {"op": "error", "id": msg["id"], "code": "ASSET_FAULT",
                        "message": "no change notification"}
            return plain_reply(msg)

        requests = self.run([level_mapping(), _mapping("m-change", "level", "level",
                                                       Direction.AS_TO_DT, None)],
                            refuse_observe)
        assert requests == Counter(observe=1, ping=3, read=3)

    def test_property_nothing_observes_is_read_on_every_pull(self):
        # observing it only to save the read would add a push per change
        assert self.run([level_mapping()]) == Counter(ping=3, read=3)
