"""The three benchmark workloads and the closed loop that drives them.

One driver thread advances the assets, then calls TwinRuntime.tick(), and
sends nothing until that call returns. Set-up follows the ``twin run``
start-up path: config.load, conformance.audit, then TwinRuntime(...).

- demo-shadow: demo/tank.yaml as shipped, asset in process, no journal.
  Each iteration is step_assets(1) then tick().
- twin-command: the same rig with the asset in its own process and the
  journal and decision log on. Each iteration steps the asset, edits the
  valve target through model_edit, then ticks, so every tick pushes.
- scale-fleet: a generated config of 1000 elements and 1000 triggered
  mappings, 4 of them active, over a 20 000-record history. Each iteration
  steps, ticks, then makes one dashboard query for the last 10 ticks.
"""

from __future__ import annotations

import json
import os
import resource
import select
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import yaml

from twinrt import conformance, config
from twinrt.data import HISTORICAL, ModelElementRef, Selector
from twinrt.data import last_update, origin_actual_system, timeliness
from twinrt.engine import SyncAction, SyncReason
from twinrt.runtime import DecisionLog, TwinRuntime
from twinrt.services import QueryData
from twinrt.values import canonical_json

import generate
import oracles
import stats
from oracles import Check
from tracing import LAYER_METRICS, Tracer, layer_metrics

DIGEST_TICKS = 20  # decisions of the first ticks are digested; every run reaches them
# Set-up is timed in two bursts, before the loop (at least SETUP_BEFORE times)
# and after it (at least SETUP_AFTER), each until SETUP_BUDGET_S has passed
# and at most SETUP_MAX times: host CPU speed drifts over seconds, and a
# single burst sampled only one state of it.
SETUP_BEFORE, SETUP_AFTER, SETUP_MAX, SETUP_BUDGET_S = 2, 1, 50, 1.5
# Peak RSS is read after this many ticks (or at the end of a shorter loop):
# the runtime keeps every decision and record, so memory read after a fixed
# time would charge a faster program for the extra ticks it kept.
RSS_TICKS = 1000


class SetupFailed(Exception):
    pass


@dataclass
class Tally:
    """Timings and failure accounting of one phase of a run."""

    tick_ms: list[float] = field(default_factory=list)
    op_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, check: Check) -> None:
        self.attempted += 1
        if not check.passed:
            self.fail(f"{check.name}: {check.detail}")


class Twin:
    """One set-up twin: the runtime plus what the run opened beside it."""

    def __init__(self, runtime: TwinRuntime, sink: DecisionLog | None, journal: Path | None):
        self.runtime = runtime
        self.sink = sink
        self.journal = journal

    def close(self) -> None:
        self.runtime.close()
        if self.sink is not None:
            self.sink.close()


class AssetProcess:
    """A tank asset served by ``python -m twinrt.asset`` in its own process.

    The endpoint is read from the process's ``listening`` line. The process
    is terminated on exit from the context, whether the run passed or not.
    """

    def __init__(self, src: Path, simulate: dict):
        self._args = [sys.executable, "-m", "twinrt.asset", "--listen", "tcp://127.0.0.1:0",
                      "--model", str(simulate["model"]),
                      "--step-ms", str(simulate.get("step_ms", 100)),
                      "--seed", str(simulate.get("seed", 0))]
        for key, value in simulate.get("params", {}).items():
            self._args.append(f"--param={key}={value}")
        path = os.environ.get("PYTHONPATH")
        self._env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
        self._proc: subprocess.Popen | None = None
        self.endpoint = ""

    def __enter__(self) -> "AssetProcess":
        self._proc = subprocess.Popen(self._args, stdout=subprocess.PIPE, text=True,
                                      env=self._env)
        try:
            ready, _, _ = select.select([self._proc.stdout], [], [], 30.0)
            line = self._proc.stdout.readline() if ready else ""
            if not line.startswith("listening "):
                raise SetupFailed(f"asset process did not report its endpoint: {line!r}")
            self.endpoint = line.split()[1]
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._stop()

    def _stop(self) -> None:
        proc = self._proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
        self._proc = None


class Rig:
    """Inputs, set-up, one loop iteration and the final oracles of a workload."""

    name = ""
    decision_log = False
    journal = False

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.config_path = root / "demo" / "tank.yaml"
        self._setups = 0

    def __enter__(self) -> "Rig":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def setup(self) -> tuple[Twin, float]:
        """The ``twin run`` start-up path, timed."""
        self._setups += 1
        journal = self.work / f"journal-{self._setups}.ndjson" if self.journal else None
        start = perf_counter()
        cfg = config.load(self.config_path)
        report = conformance.audit(cfg)
        if report.violated:
            raise SetupFailed(f"audit violated {report.violated}")
        sink = (DecisionLog(self.work / f"decisions-{self._setups}.log")
                if self.decision_log else None)
        try:
            runtime = TwinRuntime(cfg, journal_path=journal, decision_sink=sink)
        except BaseException:
            if sink is not None:
                sink.close()
            raise
        return Twin(runtime, sink, journal), perf_counter() - start

    def prime(self, twin: Twin) -> None:
        """Work done after set-up and before timing starts."""

    def iterate(self, twin: Twin, tally: Tally) -> None:
        raise NotImplementedError

    def final_checks(self, twin: Twin) -> list[Check]:
        return []


def _timed_tick(runtime: TwinRuntime, tally: Tally):
    """tick() with failure accounting; returns its end time, or None if it raised."""
    tally.attempted += 1
    start = perf_counter()
    try:
        decisions = runtime.tick()
    except Exception as exc:  # the run goes on; the failure is counted and reported
        tally.fail(f"tick {runtime.engine.tick_count} raised {exc!r}")
        return None
    end = perf_counter()
    tally.tick_ms.append((end - start) * 1e3)
    suspended = [d for d in decisions if d.reason is SyncReason.SUSPENDED]
    if suspended:
        tally.fail(f"tick {runtime.engine.tick_count}: {len(suspended)} suspended decision(s), "
                   f"first {suspended[0].mapping_id}: {suspended[0].detail}")
    return end


class DemoShadow(Rig):
    name = "demo-shadow"

    def iterate(self, twin: Twin, tally: Tally) -> None:
        start = perf_counter()
        twin.runtime.step_assets(1)
        end = _timed_tick(twin.runtime, tally)
        if end is not None:
            tally.op_ms.append((end - start) * 1e3)  # asset change -> model holds it

    def final_checks(self, twin: Twin) -> list[Check]:
        runtime = twin.runtime
        pulls = sum(d.action is SyncAction.PULL_AS_TO_DT for d in runtime.engine.decisions)
        actual = runtime.data.query(Selector(origin_source="actual-system"))
        level = [r for r in actual if r.model_link == ModelElementRef("tank", "main", "level")]
        return oracles.check_shadow(pulls, len(actual),
                                    runtime.model_value("tank", "main", "level"),
                                    level[-1].value if level else None)


class TwinCommand(Rig):
    name = "twin-command"
    decision_log = True
    journal = True

    def __enter__(self) -> "TwinCommand":
        doc = yaml.safe_load(self.config_path.read_text(encoding="utf-8"))
        gateway = doc["gateways"][0]
        self._asset = AssetProcess(self.root / "src", gateway.pop("simulate")).__enter__()
        try:
            gateway["endpoint"] = self._asset.endpoint
            self.config_path = self.work / "twin-command.yaml"
            self.config_path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
        except BaseException:
            self._asset.__exit__(None, None, None)
            raise
        self._valves = generate.valve_commands(self.seed)
        self.edits = 0
        self.last_commanded = None
        return self

    def __exit__(self, *exc) -> None:
        self._asset.__exit__(*exc)

    def iterate(self, twin: Twin, tally: Tally) -> None:
        runtime = twin.runtime
        runtime.step_assets(1)
        value = next(self._valves)
        tally.attempted += 1
        start = perf_counter()
        try:
            runtime.model_edit("plant", "set_property", "tank",
                               {"element": "main", "property": "valve_target", "value": value})
        except Exception as exc:  # counted; the tick still runs
            tally.fail(f"edit before tick {runtime.engine.tick_count + 1} raised {exc!r}")
            _timed_tick(runtime, tally)
            return
        self.edits += 1
        self.last_commanded = value
        end = _timed_tick(runtime, tally)
        if end is not None:
            tally.op_ms.append((end - start) * 1e3)  # edit start -> pushing tick end

    def final_checks(self, twin: Twin) -> list[Check]:
        runtime = twin.runtime
        pushes = sum(d.action is SyncAction.PUSH_DT_TO_AS for d in runtime.engine.decisions)
        with open(twin.journal, "rb") as fh:
            journal_lines = sum(1 for _ in fh)
        return oracles.check_command(pushes, self.edits, runtime.asset_state("tank01")["valve"],
                                     self.last_commanded, journal_lines, runtime.data.count())


class ScaleFleet(Rig):
    name = "scale-fleet"

    def __init__(self, root: Path, work: Path, seed: int,
                 size: generate.FleetSize = generate.FULL_FLEET):
        super().__init__(root, work, seed)
        self.size = size
        self.active_ids = generate.active_mapping_ids(seed, size)

    def __enter__(self) -> "ScaleFleet":
        self.config_path = self.work / "scale-fleet.yaml"
        self.config_path.write_text(generate.fleet_yaml(self.seed, self.size), encoding="utf-8")
        self._prefill = generate.fleet_prefill(self.seed, self.size)
        return self

    def prime(self, twin: Twin) -> None:
        props = [origin_actual_system("g1"), timeliness(HISTORICAL), last_update(0)]
        for line in self._prefill.splitlines():
            entry = json.loads(line)
            twin.runtime.data.ingest(entry["value"], props,
                                     model_link=ModelElementRef("fleet", entry["element"],
                                                                "level"))

    def iterate(self, twin: Twin, tally: Tally) -> None:
        runtime = twin.runtime
        runtime.step_assets(1)
        if _timed_tick(runtime, tally) is None:
            return
        tick = runtime.engine.tick_count
        selector = Selector(origin_source="actual-system", tick_from=max(1, tick - 9),
                            tick_to=tick)
        tally.attempted += 1
        start = perf_counter()
        try:
            records = runtime.mediate_operator(QueryData(selector))
        except Exception as exc:  # counted; the run goes on
            tally.fail(f"query at tick {tick} raised {exc!r}")
            return
        tally.op_ms.append((perf_counter() - start) * 1e3)
        tally.check(oracles.check_fleet_query(tick, len(records), self.size.active))

    def final_checks(self, twin: Twin) -> list[Check]:
        decided = (d.mapping_id for d in twin.runtime.engine.decisions)
        return [oracles.check_fleet_idle(decided, self.active_ids)]


RIGS = {rig.name: rig for rig in (DemoShadow, TwinCommand, ScaleFleet)}


@dataclass
class Phase:
    tally: Tally
    setup_s: list[float]
    ticks: int
    wall_s: float
    digest: str
    journal_bytes: int
    peak_rss_mb: float


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def decision_lines(twin: Twin, limit: int = DIGEST_TICKS) -> list[str]:
    return [canonical_json(d.to_dict()) for d in twin.runtime.engine.decisions
            if d.tick <= limit]


def timed_setups(rig: Rig, minimum: int, budget_s: float) -> tuple[Twin, list[float]]:
    """Set up ``minimum`` times and until ``budget_s`` has passed; keep the last twin."""
    times: list[float] = []
    twin = None
    started = perf_counter()
    while True:
        if twin is not None:
            twin.close()
        twin, took = rig.setup()
        times.append(took)
        if len(times) >= SETUP_MAX or (len(times) >= minimum
                                       and perf_counter() - started >= budget_s):
            return twin, times


def run_phase(rig: Rig, seconds: float, tracer: Tracer | None = None) -> Phase:
    """Set up, prime, drive for ``seconds`` (and DIGEST_TICKS), check, set up again.

    A traced phase sets up once, so its set-up spans are one set-up's.
    """
    tally = Tally()
    twin = None
    if tracer is not None:
        tracer.trace_id = 0
    try:
        if tracer is None:
            twin, times = timed_setups(rig, SETUP_BEFORE, SETUP_BUDGET_S)
        else:
            twin, times = timed_setups(rig, 1, 0.0)
            tracer.trace_id = None
        rig.prime(twin)
        journal_start = twin.journal.stat().st_size if twin.journal else 0
        ticks = 0
        rss = None
        start = perf_counter()
        deadline = start + seconds
        while ticks < DIGEST_TICKS or perf_counter() < deadline:
            if tracer is not None:
                tracer.trace_id = twin.runtime.engine.tick_count + 1
            rig.iterate(twin, tally)
            ticks += 1
            if ticks == RSS_TICKS:
                rss = _peak_rss_mb()
        wall = perf_counter() - start
        if rss is None:
            rss = _peak_rss_mb()
        if tracer is not None:
            tracer.trace_id = None
        journal_bytes = (twin.journal.stat().st_size - journal_start) if twin.journal else 0
        for check in rig.final_checks(twin):
            tally.check(check)
        digest = oracles.decision_digest(decision_lines(twin))
        twin.close()
        twin = None
        if tracer is None:
            twin, more = timed_setups(rig, SETUP_AFTER, SETUP_BUDGET_S)
            times += more
        return Phase(tally, times, ticks, wall, digest, journal_bytes, rss)
    finally:
        if tracer is not None:
            tracer.trace_id = None
        if twin is not None:
            twin.close()


def _fresh(directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def make_rig(name: str, root: Path, work: Path, seed: int,
             size: generate.FleetSize = generate.FULL_FLEET) -> Rig:
    if name == "scale-fleet":
        return ScaleFleet(root, work, seed, size)
    return RIGS[name](root, work, seed)


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    attempted: int
    failed: int
    problems: list[str]
    digest: str
    pinned: str | None
    metrics: dict[str, tuple[float, str]]
    notes: dict[str, str]

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _tail_note(t: stats.Tail, what: str) -> str:
    if t.samples >= 2 * stats.TAIL_WINDOW:
        return (f"p{t.percentile:.2f}, median over windows of {stats.TAIL_WINDOW} "
                f"of {t.samples} {what}")
    return f"p{t.percentile:.2f} of {t.samples} {what}"


def _end_to_end(phase: Phase) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
    tally = phase.tally
    tick_tail = stats.windowed_tail(tally.tick_ms)
    op_tail = stats.windowed_tail(tally.op_ms)
    metrics = {
        "setup_s": (stats.median(phase.setup_s), "s"),
        "tick_p50_ms": (stats.median(tally.tick_ms), "ms"),
        "tick_tail_ms": (tick_tail.value, "ms"),
        "ticks_per_s": (len(tally.tick_ms) / phase.wall_s, "1/s"),
        "op_p50_ms": (stats.median(tally.op_ms), "ms"),
        "op_tail_ms": (op_tail.value, "ms"),
        "peak_rss_mb": (phase.peak_rss_mb, "MiB"),
    }
    notes = {
        "setup_s": f"median of {len(phase.setup_s)} set-ups",
        "tick_p50_ms": f"{len(tally.tick_ms)} ticks",
        "tick_tail_ms": _tail_note(tick_tail, "ticks"),
        "ticks_per_s": f"{len(tally.tick_ms)} ticks in {phase.wall_s:.2f} s",
        "op_p50_ms": f"{len(tally.op_ms)} operations",
        "op_tail_ms": _tail_note(op_tail, "operations"),
        "peak_rss_mb": f"after {min(phase.ticks, RSS_TICKS)} ticks",
    }
    return metrics, notes


def run(name: str, root: Path, seed: int, seconds: float, trace: bool,
        pinned: str | None = None, size: generate.FleetSize = generate.FULL_FLEET,
        trace_dump: Path | None = None) -> Result:
    """One benchmark run of one workload; never raises for a failed oracle."""
    work = root / "perfbench" / ".work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if not trace:
            with make_rig(name, root, _fresh(work / "plain"), seed, size) as rig:
                phase = run_phase(rig, seconds)
            metrics, notes = _end_to_end(phase)
            phases = [phase]
        else:
            with make_rig(name, root, _fresh(work / "plain"), seed, size) as rig:
                plain = run_phase(rig, seconds)
            tracer = Tracer()
            tracer.install()
            try:
                with make_rig(name, root, _fresh(work / "traced"), seed, size) as rig:
                    traced = run_phase(rig, seconds, tracer=tracer)
            finally:
                tracer.uninstall()
            overhead = stats.median(traced.tally.tick_ms) - stats.median(plain.tally.tick_ms)
            values = layer_metrics(tracer.spans, traced.ticks, traced.journal_bytes, overhead)
            metrics = {n: (values[n], unit) for n, unit, _ in LAYER_METRICS}
            notes = {"trace.overhead_ms":
                     f"traced tick p50 {stats.median(traced.tally.tick_ms):.4f} ms - "
                     f"untraced {stats.median(plain.tally.tick_ms):.4f} ms"}
            if trace_dump is not None:
                tracer.dump(trace_dump)
                notes["spans"] = f"{len(tracer.spans)} spans written to {trace_dump}"
            phases = [plain, traced]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = Tally()
    for other in phases[1:]:
        summary.check(oracles.check_digest(other.digest, phases[0].digest,
                                           "the untraced phase"))
    if pinned is not None:
        summary.check(oracles.check_digest(phases[0].digest, pinned, "the pinned digest"))
    tallies = [p.tally for p in phases] + [summary]
    return Result(name, seed, trace, sum(t.attempted for t in tallies),
                  sum(t.failed for t in tallies), [m for t in tallies for m in t.problems],
                  phases[0].digest, pinned, metrics, notes)
