"""A tick's work follows what changed, not what is configured.

The scale-fleet shape at two sizes: one model of N tank elements, one
AS->DT mapping per element on a gateway-change trigger, four of them
following a moving tank and the rest an idle one, and one kpi_monitor.
Each tick's work is counted, not timed, so the check is exact on any host:
syncs, elements checked against a property rule, trigger keys built,
service hooks called, and gateway requests by gateway and op.
"""

from __future__ import annotations

from collections import Counter

import twinrt.config as config_mod
from twinrt.engine import Engine, Trigger
from twinrt.gateway import GatewayHandle
from twinrt.models import PropertyRule
from twinrt.runtime import TwinRuntime

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


def fleet_yaml(n: int) -> str:
    """The scale-fleet configuration with ``n`` elements: g0 moves, g1 is idle."""
    active = set(active_elements(n))
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
        out.append(f"  - {{id: m{i}, model: {{model: fleet, element: e{i}, property: level}}, "
                   f"gateway: {{gateway: {gw}, property: level}}, direction: as-to-dt, "
                   f"schedule: {{trigger: {{gateway: {gw}, property: level}}}}}}\n")
    out += ["services:\n",
            "  - id: kpi\n",
            "    builtin: kpi_monitor\n",
            "    params: {window: 4, model: fleet, element: e0, property: level}\n",
            "    grant: [read-model:fleet, ingest-data]\n"]
    return "".join(out)


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


def work_per_tick(monkeypatch, n: int, ticks: int = 8) -> list[Counter]:
    runtime = TwinRuntime(config_mod.loads(fleet_yaml(n)))
    try:
        runtime.advance()  # warm-up: each observed property is read once
        counts: Counter = Counter()
        with monkeypatch.context() as patch:
            count_work(patch, counts)
            per_tick = []
            for _ in range(ticks):
                runtime.advance()
                per_tick.append(+counts)
                counts.clear()
        assert runtime.data.count() == 4 * (ticks + 1) + (ticks + 1) // 4
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
