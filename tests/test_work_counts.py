"""A tick's work follows what changed, not what is configured.

The scale-fleet shape at two sizes: one model of N tank elements, one
AS->DT mapping per element, four of them following a moving tank and the
rest an idle one, and one kpi_monitor. In the triggered shape each mapping
fires on a gateway-change trigger; in the scheduled shape the four run
every one or two ticks and the idle ones every 1 000 000. Each tick's work
is counted, not timed, so the check is exact on any host: syncs, entries
read from the engine's mapping table, elements checked against a property
rule, trigger keys built, service hooks called, and gateway requests by
gateway and op. So is a tick-window query's: the records whose link it
tests, over two sizes of history.

The same counts hold the benchmark's actuation shape, the demo twin with
a valve edit before each tick, to one ping and one write per tick.

A check that cannot fail shows nothing, so each count test is also run
against a mutant that does the work of the whole configuration or history,
or reads each pulled property instead of observing it, and must fail there.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import twinrt.config as config_mod
from twinrt import data as data_mod
from twinrt.data import DataManager, ModelElementRef, Selector
from twinrt.engine import Direction, Engine, Mapping, SyncReason, Trigger
from twinrt.gateway import GatewayHandle
from twinrt.models import PropertyRule
from twinrt.runtime import TwinRuntime

from conftest import DEMO_CONFIG

_TANK = """\
  - id: {gateway}
    endpoint: tcp://127.0.0.1:0
    simulate:
      model: tank
      params: {{valve: {valve}, capacity: 1000000.0, inflow: 1.0, outflow: 0.0,
               overflow_level: 1000000.0}}
    elements:
      - {{name: level, kind: property, type: real, access: ro}}
      - {{name: valve, kind: property, type: real, access: rw}}
      - {{name: overflow, kind: event, payload: real}}
      - {{name: flush, kind: function, args: [], result: boolean}}
"""


def active_elements(n: int) -> list[int]:
    return [0, n // 3, 2 * n // 3, n - 1]


def fleet_yaml(n: int, scheduled: bool = False) -> str:
    """The scale-fleet configuration with ``n`` elements: g0 moves, g1 is
    idle. With ``scheduled``, the mappings on g0 run every 1, 2, 1 and 2
    ticks and those on g1 every 1 000 000, instead of on a trigger."""
    active = active_elements(n)
    out = ["twin: fleet\n", "gateways:\n",
           _TANK.format(gateway="g0", valve=0.5), _TANK.format(gateway="g1", valve=0.0),
           "languages:\n",
           "  - id: tank-structure\n",
           "    kinds: {Tank: {level: real, capacity: real}}\n",
           "    rules: [{id: level-within-capacity, kind: Tank, property: level, op: le, "
           "other: capacity}]\n",
           "managers: [{id: plant, models: [fleet]}]\n",
           "models:\n",
           "  - id: fleet\n",
           "    language: tank-structure\n",
           "    last_update: true\n",
           "    elements:\n"]
    out += [f"      - {{id: e{i}, kind: Tank, properties: {{level: 0.0, capacity: 1000000.0}}}}\n"
            for i in range(n)]
    out.append("mappings:\n")
    for i in range(n):
        gw = "g0" if i in active else "g1"
        if not scheduled:
            schedule = f"{{trigger: {{gateway: {gw}, property: level}}}}"
        else:
            schedule = f"{{every: {1 + active.index(i) % 2 if i in active else 1000000}}}"
        out.append(f"  - {{id: m{i}, model: {{model: fleet, element: e{i}, property: level}}, "
                   f"gateway: {{gateway: {gw}, property: level}}, direction: as-to-dt, "
                   f"schedule: {schedule}}}\n")
    out += ["services:\n",
            "  - id: kpi\n",
            "    builtin: kpi_monitor\n",
            "    params: {window: 4, model: fleet, element: e0, property: level}\n",
            "    grant: [read-model:fleet, ingest-data]\n"]
    return "".join(out)


class CountedTable(dict):
    """A mapping table that counts each entry read from it, by key or by
    walking it."""

    def __init__(self, table: dict, counts: Counter):
        super().__init__(table)
        self._counts = counts

    def __getitem__(self, key):
        self._counts["mapping lookup"] += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._counts["mapping lookup"] += 1
        return super().get(key, default)

    def __iter__(self):
        for key in super().__iter__():
            self._counts["mapping lookup"] += 1
            yield key

    def values(self):
        return (self[key] for key in super().__iter__())

    def items(self):
        return ((key, self[key]) for key in super().__iter__())


def count_work(monkeypatch, counts: Counter) -> None:
    """Count each call of the methods a tick's work goes through."""
    def counted(cls, name, key=None):
        original = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            counts[key(self, *args) if key else name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counted(Engine, "sync_mapping")
    counted(PropertyRule, "check_element")
    counted(Trigger, "key")
    counted(Engine, "_call_hook")
    counted(GatewayHandle, "_request",
            key=lambda handle, msg, *_: ("request", handle.gateway_id, msg["op"]))


def work_per_tick(monkeypatch, n: int, scheduled: bool = False,
                  ticks: int = 8) -> list[Counter]:
    """The work of each of ``ticks`` ticks after a warm-up tick."""
    runtime = TwinRuntime(config_mod.loads(fleet_yaml(n, scheduled)))
    try:
        runtime.advance()  # warm-up: each observed property is read once
        counts: Counter = Counter()
        with monkeypatch.context() as patch:
            count_work(patch, counts)
            patch.setattr(runtime.engine, "_mappings",
                          CountedTable(runtime.engine._mappings, counts))
            per_tick = []
            for _ in range(ticks):
                runtime.advance()
                per_tick.append(+counts)
                counts.clear()
        # each of the ticks + 1 ticks syncs 4 mappings, but in the scheduled
        # shape two of them skip the (ticks + 2) // 2 odd ticks; the kpi
        # records its mean every 4 ticks
        syncs = 4 * (ticks + 1) - (2 * ((ticks + 2) // 2) if scheduled else 0)
        assert runtime.data.count() == syncs + (ticks + 1) // 4
        return per_tick
    finally:
        runtime.close()


def test_a_ticks_work_is_the_same_at_50_and_1000_mappings(monkeypatch):
    small = work_per_tick(monkeypatch, 50)
    large = work_per_tick(monkeypatch, 1000)
    assert small == large
    for tick, counts in enumerate(large, start=2):
        assert counts == Counter({
            # the four mappings of the moving tank sync; the idle ones do not
            "sync_mapping": 4,
            # the table is read once for each sync
            "mapping lookup": 4,
            # each sync checks its one element; the kpi's mean is a record
            "check_element": 4,
            # triggers are matched by key lookup, with no key built per tick
            # (Counter equality ignores a zero count)
            "key": 0,
            # one service, one on_tick
            "_call_hook": 1,
            # the barrier pings each gateway once; the moving tank's level
            # arrives as a push, so no sync reads it
            ("request", "g0", "ping"): 1,
            ("request", "g1", "ping"): 1,
        }), f"tick {tick}"


def scan_every_scheduled_mapping(engine: Engine, now_tick: int) -> dict[str, SyncReason]:
    """A mutant of ``Engine._collect_fired`` that finds the scheduled
    mappings due by testing the period of each on every tick."""
    scheduled, engine._scheduled = engine._scheduled, {}
    try:
        fired = _COLLECT_FIRED(engine, now_tick)
    finally:
        engine._scheduled = scheduled
    for mapping_id in sorted(m for ids in scheduled.values() for m in ids):
        if now_tick % engine._mappings[mapping_id].schedule.every == 0:
            fired.setdefault(mapping_id, SyncReason.SCHEDULED)
    return fired


_COLLECT_FIRED = Engine._collect_fired


def scheduled_work_is_flat(monkeypatch) -> bool:
    """Whether each tick's work in the scheduled shape is the same at 50
    and 1 000 mappings."""
    small = work_per_tick(monkeypatch, 50, scheduled=True)
    large = work_per_tick(monkeypatch, 1000, scheduled=True)
    assert [c["sync_mapping"] for c in small] == [c["sync_mapping"] for c in large]
    return small == large


def unexpected_scheduled_work(monkeypatch) -> list[tuple[int, Counter]]:
    """The ticks of the scheduled shape at 50 mappings whose work is not
    the count below, each with the work it did."""
    unexpected = []
    for tick, counts in enumerate(work_per_tick(monkeypatch, 50, scheduled=True), start=2):
        due = 4 if tick % 2 == 0 else 2  # two mappings every tick, two every other
        if counts != Counter({
            "sync_mapping": due, "mapping lookup": due, "check_element": due,
            "_call_hook": 1,
            # each pulled property is observed, so the moving tank's level
            # arrives as a push and no sync reads it
            ("request", "g0", "ping"): 1,
            ("request", "g1", "ping"): 1,
        }):
            unexpected.append((tick, counts))
    return unexpected


def test_a_ticks_work_is_the_same_at_50_and_1000_scheduled_mappings(monkeypatch):
    assert scheduled_work_is_flat(monkeypatch)
    assert unexpected_scheduled_work(monkeypatch) == []


def test_the_check_sees_a_scan_of_every_scheduled_mapping(monkeypatch):
    monkeypatch.setattr(Engine, "_collect_fired", scan_every_scheduled_mapping)
    assert not scheduled_work_is_flat(monkeypatch)


_STREAMS = Mapping.streams


def observe_only_bidirectional_properties(mapping: Mapping) -> list[tuple[str, str, str]]:
    """A mutant of ``Mapping.streams`` that opens no stream for an as-to-dt
    mapping's own property, so each of its pulls reads it."""
    streams = _STREAMS(mapping)
    if mapping.direction is Direction.AS_TO_DT:
        streams.remove((mapping.gateway_id, mapping.gateway_property, "observe_property"))
    return streams


def test_the_check_sees_a_read_per_scheduled_pull(monkeypatch):
    monkeypatch.setattr(Mapping, "streams", observe_only_bidirectional_properties)
    assert unexpected_scheduled_work(monkeypatch) != []


def commanded_tick_requests(monkeypatch, ticks: int = 8) -> list[Counter]:
    """The requests to tank01 of each of ``ticks`` ticks of the demo twin,
    after a first tick, each tick behind an edit of the valve target: the
    benchmark's actuation shape."""
    runtime = TwinRuntime(config_mod.load(DEMO_CONFIG))
    try:
        def command(value: float) -> None:
            runtime.model_edit("plant", "set_property", "tank",
                               {"element": "main", "property": "valve_target",
                                "value": value})
            runtime.advance()

        command(0.75)  # first tick: the first pulls may read
        counts: Counter = Counter()
        per_tick = []
        with monkeypatch.context() as patch:
            count_work(patch, counts)
            for tick in range(ticks):
                command(0.25 if tick % 2 == 0 else 0.75)
                per_tick.append(Counter({key[2]: n for key, n in counts.items()
                                         if key[:2] == ("request", "tank01")}))
                counts.clear()
        assert runtime.asset_state("tank01")["valve"] == 0.75
        return per_tick
    finally:
        runtime.close()


def test_a_commanded_tick_pings_and_writes_once(monkeypatch):
    # the level's change arrives with the barrier's pong, m-valve writes
    # the edit, and the write's echo, which arrives with its ack, is
    # drained the next tick, so no pull reads
    assert commanded_tick_requests(monkeypatch) == [Counter(ping=1, write=1)] * 8


def history(records: int, per_tick: int = 4) -> DataManager:
    """A store of ``records`` synced records, ``per_tick`` a tick, each linked
    to the level of one of ``per_tick`` fleet elements."""
    data = DataManager()
    origin, live, raw = (data_mod.origin_actual_system("g0"),
                         data_mod.timeliness(data_mod.LIVE), data_mod.processing(data_mod.RAW))
    for i in range(records):
        tick, element = divmod(i, per_tick)
        data.ingest(float(i), [origin, live, raw, data_mod.last_update(tick + 1)],
                    model_link=ModelElementRef("fleet", f"e{element}", "level"))
    return data


def links_tested(monkeypatch, records: int) -> int:
    """How many records a last-10-ticks query for one element tests the link
    of, over a history of ``records`` records."""
    data = history(records)
    last = records // 4
    selector = Selector(model_id="fleet", element_id="e1", tick_from=last - 9, tick_to=last)
    counts: Counter = Counter()
    matches_link = Selector.matches_link

    def counted(self, link):
        counts["matches_link"] += 1
        return matches_link(self, link)

    with monkeypatch.context() as patch:
        patch.setattr(Selector, "matches_link", counted)
        found = data.query(selector)
    assert [r.value for r in found] == [float(4 * tick + 1) for tick in range(last - 10, last)]
    return counts["matches_link"]


_QUERY = DataManager.query


def scan_every_record(self: DataManager, selector: Selector, *, after_id: int = 0,
                      limit: int | None = None) -> list:
    """A mutant of ``DataManager.query`` that answers a tick window by a
    query without its bounds, over the whole history, then keeps the records
    whose last-update lies inside the window."""
    scanned = _QUERY(self, replace(selector, tick_from=None, tick_to=None), after_id=after_id)
    return [r for r in scanned
            if selector.tick_from <= r.prop(data_mod.PropertyType.LAST_UPDATE)
            <= selector.tick_to][:limit]


def test_a_tick_window_reads_the_same_records_over_1000_and_20000(monkeypatch):
    # 10 ticks of 4 records each
    assert links_tested(monkeypatch, 1000) == links_tested(monkeypatch, 20000) == 40


def test_the_check_sees_a_tick_window_answered_by_a_full_scan(monkeypatch):
    monkeypatch.setattr(DataManager, "query", scan_every_record)
    assert links_tested(monkeypatch, 1000) != links_tested(monkeypatch, 20000)
