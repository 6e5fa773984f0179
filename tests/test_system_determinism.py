"""Whole-system determinism under a randomized mixed workload.

Exercises the cross-thread drain barrier, mode churn, service toggling, and
trigger traffic together: the same seeded operation sequence must reproduce
identical decision logs, data journals, and final model state.
"""

import random

from helpers import build_rig, level_mapping, valve_mapping

from twinrt.data import ModelElementRef
from twinrt.engine import Direction, Mapping, Schedule, Trigger, TriggerKind
from twinrt.models import ModelMode
from twinrt.services import (
    ApplyOperator,
    KpiMonitor,
    ServiceDescriptor,
    ServiceGrant,
)


def overflow_mapping():
    return Mapping("m-overflow", "tank", "main", "level", "tank01", "level",
                   Direction.AS_TO_DT,
                   Schedule(trigger=Trigger(TriggerKind.GATEWAY_EVENT,
                                            gateway_id="tank01", element="overflow")))


def run_workload(seed: int):
    rng = random.Random(seed)
    lines = []
    rig = build_rig(mappings=[level_mapping(every=2), valve_mapping(),
                              overflow_mapping()], valve=0.4, sink=lines.append)
    rig.engine.register_service(
        ServiceDescriptor("kpi", ServiceGrant.parse(["read-model:tank", "ingest-data"])),
        KpiMonitor(window=3, ref=ModelElementRef("tank", "main", "level")))
    try:
        online = True
        for _ in range(60):
            roll = rng.random()
            if roll < 0.40:
                rig.tick()
            elif roll < 0.50:
                rig.tick(step_asset=False)
            elif roll < 0.62:
                rig.server.force_set("valve", round(rng.random(), 3))
            elif roll < 0.70:
                rig.server.force_set("level", round(rng.random() * 9, 3))
            elif roll < 0.80:
                rig.engine.mediate_operator_call(ApplyOperator(
                    "plant", "set_property", "tank",
                    {"element": "main", "property": "valve_target",
                     "value": round(rng.random(), 3)}))
            elif roll < 0.86:
                rig.server.raise_event("overflow", round(rng.random() * 10, 3))
            elif roll < 0.94:
                online = not online
                rig.registry.set_mode("plant", "tank",
                                      ModelMode.ONLINE if online else ModelMode.OFFLINE)
            else:
                rig.engine.set_service_enabled("kpi", rng.random() < 0.5)
        decisions = [d.to_dict() for d in rig.engine.decisions]
        notices = [line for line in lines if line["kind"] == "service"]
        journal = [r.to_dict() for r in rig.data.query()]
        state = rig.registry.digests()
        return decisions, notices, journal, state
    finally:
        rig.close()


def test_same_seed_reproduces_everything():
    assert run_workload(1234) == run_workload(1234)


def test_different_seeds_follow_different_paths():
    # guards against the workload degenerating into a fixed trace
    assert run_workload(1)[0] != run_workload(2)[0]
