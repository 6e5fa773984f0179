"""Deterministic inputs for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the same
bytes. The program under test only ever receives what these functions
produce (a YAML file, records to ingest, values to command), never the seed.
Standard library only, so the generators can be tested without the runtime.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class FleetSize:
    """Shape of the scale-fleet configuration and its prefilled history."""

    elements: int = 1000
    active: int = 4
    prefill: int = 20000


FULL_FLEET = FleetSize()

# far above any level the g0 tank reaches in a run (it gains 0.05 per step)
FAR_ABOVE = 1000000.0

_TANK_ELEMENTS = """\
      - {name: level, kind: property, type: real, access: ro}
      - {name: valve, kind: property, type: real, access: rw}
      - {name: overflow, kind: event, payload: real}
      - {name: flush, kind: function, args: [], result: boolean}
"""


def element_id(index: int) -> str:
    return f"e{index:04d}"


def mapping_id(index: int) -> str:
    return f"m{index:04d}"


def active_elements(seed: int, size: FleetSize = FULL_FLEET) -> list[int]:
    """Indices of the elements whose mappings follow the moving tank g0."""
    rng = random.Random(f"scale-fleet/active/{seed}")
    return sorted(rng.sample(range(size.elements), size.active))


def active_mapping_ids(seed: int, size: FleetSize = FULL_FLEET) -> set[str]:
    return {mapping_id(i) for i in active_elements(seed, size)}


def _gateway(gateway_id: str, valve: float) -> str:
    return (f"  - id: {gateway_id}\n"
            f"    endpoint: tcp://127.0.0.1:0\n"
            f"    simulate:\n"
            f"      model: tank\n"
            f"      step_ms: 100\n"
            f"      seed: 0\n"
            f"      params: {{valve: {valve}, capacity: {FAR_ABOVE}, inflow: 1.0, "
            f"outflow: 0.0, overflow_level: {FAR_ABOVE}}}\n"
            f"    elements:\n" + _TANK_ELEMENTS)


def fleet_yaml(seed: int, size: FleetSize = FULL_FLEET) -> str:
    """The scale-fleet twin configuration.

    Two in-process tanks: g0 (valve 0.5) changes level on every step, g1
    (valve 0) never changes. One model of ``size.elements`` Tank elements
    with the level <= capacity rule, and one AS->DT mapping per element on
    a gateway-change trigger: ``size.active`` of them follow g0.level, the
    rest follow g1.level and stay idle.
    """
    active = set(active_elements(seed, size))
    out = [f"# scale-fleet workload, seed {seed}: generated by perfbench/generate.py\n",
           "twin: scale-fleet\n",
           "gateways:\n", _gateway("g0", 0.5), _gateway("g1", 0.0),
           "languages:\n",
           "  - id: tank-structure\n",
           "    kinds:\n",
           "      Tank: {level: real, capacity: real}\n",
           "    rules:\n",
           "      - {id: level-within-capacity, kind: Tank, property: level, op: le, "
           "other: capacity}\n",
           "managers:\n",
           "  - {id: plant, models: [fleet], delegations: []}\n",
           "models:\n",
           "  - id: fleet\n",
           "    language: tank-structure\n",
           "    mode: online\n",
           "    last_update: true\n",
           "    elements:\n"]
    for i in range(size.elements):
        out.append(f"      - {{id: {element_id(i)}, kind: Tank, "
                   f"properties: {{level: 0.0, capacity: {FAR_ABOVE}}}}}\n")
    out.append("mappings:\n")
    for i in range(size.elements):
        gw = "g0" if i in active else "g1"
        out.append(f"  - {{id: {mapping_id(i)}, "
                   f"model: {{model: fleet, element: {element_id(i)}, property: level}}, "
                   f"gateway: {{gateway: {gw}, property: level}}, direction: as-to-dt, "
                   f"schedule: {{trigger: {{gateway: {gw}, property: level}}}}}}\n")
    out.append("data:\n  journal: null\n  mandatory_metadata: true\n  model_linkage: true\n")
    return "".join(out)


def fleet_prefill(seed: int, size: FleetSize = FULL_FLEET) -> bytes:
    """Imported history, one canonical JSON object per line.

    Each line names the element the record links to and the record's value;
    the benchmark ingests it with origin actual-system:g1, timeliness
    historical and last-update 0, so no dashboard query window matches it.
    """
    rng = random.Random(f"scale-fleet/prefill/{seed}")
    lines = []
    for _ in range(size.prefill):
        entry = {"element": element_id(rng.randrange(size.elements)),
                 "value": round(rng.uniform(0.0, 10.0), 6)}
        lines.append(json.dumps(entry, sort_keys=True, separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def valve_commands(seed: int) -> Iterator[float]:
    """Operator valve targets for twin-command; each differs from the one before."""
    rng = random.Random(f"twin-command/valve/{seed}")
    previous = None
    while True:
        value = round(rng.uniform(0.05, 1.0), 4)
        if value != previous:
            previous = value
            yield value
