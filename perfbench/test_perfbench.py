"""Tests of the benchmark itself: generators, oracles, tracing and smoke runs.

Run from the root of the checkout:  python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import socket

import pytest

import run

run.ensure_src()

import generate  # noqa: E402
import oracles  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer  # noqa: E402

TINY_FLEET = generate.FleetSize(elements=40, active=4, prefill=200)


# --- generators ---------------------------------------------------------------

def test_fleet_inputs_are_the_same_bytes_for_the_same_seed():
    assert generate.fleet_yaml(7) == generate.fleet_yaml(7)
    assert generate.fleet_prefill(7) == generate.fleet_prefill(7)
    assert generate.fleet_prefill(7) != generate.fleet_prefill(8)


def test_different_seeds_give_different_active_sets():
    sets = {tuple(generate.active_elements(seed)) for seed in range(1, 11)}
    assert len(sets) == 10
    assert all(len(s) == 4 for s in sets)


def test_fleet_yaml_is_the_configured_shape():
    from twinrt import config

    cfg = config.loads(generate.fleet_yaml(3))
    assert len(cfg.models[0].elements) == 1000
    assert len(cfg.mappings) == 1000
    on_g0 = {m.mapping_id for m in cfg.mappings if m.schedule.trigger.gateway_id == "g0"}
    assert on_g0 == generate.active_mapping_ids(3)
    assert len(generate.fleet_prefill(3).splitlines()) == 20000


def test_valve_commands_never_repeat_the_previous_value():
    first = [v for _, v in zip(range(500), generate.valve_commands(5))]
    again = [v for _, v in zip(range(500), generate.valve_commands(5))]
    assert first == again
    assert all(a != b for a, b in zip(first, first[1:]))


# --- oracles ------------------------------------------------------------------

def test_decision_digest_catches_an_altered_line():
    lines = ['{"action":"pull-as-to-dt","kind":"sync","mapping":"m-level",'
             '"reason":"scheduled","tick":1}']
    altered = [lines[0].replace("scheduled", "triggered")]
    digest = oracles.decision_digest(lines)
    assert oracles.check_digest(digest, digest, "pinned").passed
    assert not oracles.check_digest(oracles.decision_digest(altered), digest, "pinned").passed


@pytest.mark.parametrize("args", [
    (10, 9, 1.5, 1.5),  # a record missing
    (10, 10, 1.5, 1.55),  # model level differs from the last pull
])
def test_shadow_oracle_catches_planted_faults(args):
    assert all(c.passed for c in oracles.check_shadow(10, 10, 1.5, 1.5))
    assert not all(c.passed for c in oracles.check_shadow(*args))


@pytest.mark.parametrize("args", [
    (9, 10, 0.3, 0.3, 25, 25),  # an edit that was never pushed
    (10, 10, 0.2, 0.3, 25, 25),  # asset valve is not the last command
    (10, 10, 0.3, 0.3, 24, 25),  # a record missing from the journal
])
def test_command_oracle_catches_planted_faults(args):
    assert all(c.passed for c in oracles.check_command(10, 10, 0.3, 0.3, 25, 25))
    assert not all(c.passed for c in oracles.check_command(*args))


def test_fleet_query_oracle_derives_the_count_from_the_tick():
    assert oracles.check_fleet_query(3, 12, active=4).passed
    assert oracles.check_fleet_query(25, 40, active=4).passed
    assert not oracles.check_fleet_query(25, 41, active=4).passed


def test_fleet_idle_oracle_catches_an_idle_mapping_deciding():
    active = {"m0001", "m0002"}
    assert oracles.check_fleet_idle(["m0001", "m0002", "m0001"], active).passed
    assert not oracles.check_fleet_idle(["m0001", "m0500"], active).passed


# --- statistics and tracing ---------------------------------------------------

def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    t = stats.tail(values)
    assert (t.value, t.percentile, t.samples) == (90.0, 90.0, 100)
    assert stats.tail([3.0, 1.0]).value == 3.0
    assert stats.windowed_tail(values * 3).value == 90.0


def test_self_time_subtracts_only_what_children_cover():
    spans = [
        Span(1, "engine.tick", 0.0, 10.0),
        Span(2, "gateway.ping", 1.0, 3.0, parent=1),
        Span(3, "engine.sync", 4.0, 8.0, parent=1),
        Span(4, "models.apply", 5.0, 6.0, parent=3),
        Span(5, "wire.decode", 2.0, 2.5, thread="Thread-1 (_read_loop)"),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 0.5}


def test_overlapping_children_are_not_subtracted_twice():
    spans = [Span(1, "p", 0.0, 10.0), Span(2, "a", 2.0, 6.0, parent=1),
             Span(3, "b", 4.0, 12.0, parent=1)]
    assert tracing.self_times(spans)[1] == pytest.approx(2.0)


class _Target:
    def double(self, x):
        return 2 * x

    def fail(self):
        raise KeyError("boom")


def test_tracer_wrappers_pass_through_and_uninstall():
    original = _Target.__dict__["double"]
    tracer = Tracer()
    tracer.install([(_Target, "double", "t.double", lambda args, result: result),
                    (_Target, "fail", "t.fail", None)])
    target = _Target()
    tracer.trace_id = 7
    assert target.double(21) == 42
    with pytest.raises(KeyError, match="boom"):
        target.fail()
    tracer.uninstall()
    assert _Target.__dict__["double"] is original
    assert [(s.name, s.trace, s.size, s.error) for s in tracer.spans] == [
        ("t.double", 7, 42, None), ("t.fail", 7, None, "KeyError")]


# --- workload drivers ---------------------------------------------------------

def test_asset_process_is_stopped_on_failure():
    simulate = {"model": "tank", "step_ms": 100, "seed": 1, "params": {"valve": 0.5}}
    with pytest.raises(RuntimeError):
        with workloads.AssetProcess(run.SRC, simulate) as asset:
            endpoint = asset.endpoint
            proc = asset._proc
            raise RuntimeError("driver failed")
    assert proc.poll() is not None
    host, port = endpoint[len("tcp://"):].rsplit(":", 1)
    with pytest.raises(OSError):
        socket.create_connection((host, int(port)), timeout=1.0).close()


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_each_workload_passes_a_smoke_run(name):
    first = workloads.run(name, run.ROOT, seed=3, seconds=0.2, trace=False, size=TINY_FLEET)
    again = workloads.run(name, run.ROOT, seed=3, seconds=0.2, trace=False, size=TINY_FLEET)
    assert first.correct, first.problems
    assert first.attempted > workloads.DIGEST_TICKS
    assert first.digest == again.digest
    assert set(first.metrics) == {m["name"] for m in _benchmark()["end_to_end"]}
    assert all(value > 0 for value, _ in first.metrics.values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_default_seed_reproduces_the_pinned_digest(name):
    pinned = run.pinned_digest(name, 1)
    result = workloads.run(name, run.ROOT, seed=1, seconds=0.1, trace=False, pinned=pinned)
    assert pinned is not None
    assert result.correct, result.problems


def test_traced_smoke_run_reports_every_layer_metric():
    result = workloads.run("scale-fleet", run.ROOT, seed=3, seconds=0.2, trace=True,
                           size=TINY_FLEET)
    assert result.correct, result.problems
    assert list(result.metrics) == [m["name"] for m in _benchmark()["per_layer"]]
    assert result.metrics["engine.syncs_per_tick"][0] == TINY_FLEET.active
    assert result.metrics["data.scanned_per_query"][0] > TINY_FLEET.prefill


def _benchmark() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
