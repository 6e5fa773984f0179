"""Deterministic scenario scripts: the twin's test and replay driver.

A script is an ordered list of steps executed strictly in order. A tick
advances every simulated asset by one dynamics step and then runs one engine
tick, so asset changes made between ticks are drained exactly once. Expect
steps assert on model state, the decisions of the most recent tick, or
record counts; the first failing expectation aborts the run with its step
index and a diff of expected versus actual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import yaml

from .config import _load_yaml
from .engine import SyncDecision
from .errors import ConfigParseError, ScenarioAssertionFailed
from .data import selector_from_dict
from .runtime import TwinRuntime
from .values import fit_value, value_type

STEP_KINDS = ("tick", "asset-set", "asset-raise", "model-edit", "service-on",
              "service-off", "expect-model", "expect-decision", "expect-record-count")


@dataclass(frozen=True)
class ScenarioStep:
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioScript:
    steps: tuple[ScenarioStep, ...]


def loads(text: str) -> ScenarioScript:
    try:
        doc = _load_yaml(text)
    except yaml.YAMLError as exc:
        raise ConfigParseError(f"invalid scenario YAML: {exc}") from exc
    if isinstance(doc, dict) and "steps" in doc:
        doc = doc["steps"]
    if not isinstance(doc, list):
        raise ConfigParseError("scenario must be a list of steps")
    steps = []
    for i, raw in enumerate(doc):
        steps.append(_parse_step(raw, i))
    return ScenarioScript(steps=tuple(steps))


def load(path: str | Path) -> ScenarioScript:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigParseError(f"cannot read scenario {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"scenario {path} is not UTF-8: {exc}") from exc
    return loads(text)


def _parse_step(raw: Any, index: int) -> ScenarioStep:
    if isinstance(raw, str):
        kind, payload = raw, {}
    elif isinstance(raw, dict) and len(raw) == 1:
        kind, payload = next(iter(raw.items()))
    else:
        raise ConfigParseError(f"step {index}: expected one-key mapping or bare name, "
                               f"got {raw!r}")
    if kind not in STEP_KINDS:
        raise ConfigParseError(f"step {index}: unknown step kind {kind!r}")
    if kind == "tick":
        if payload is None or payload == {}:
            payload = {"count": 1}
        elif isinstance(payload, int):
            payload = {"count": payload}
        elif not (isinstance(payload, dict) and isinstance(payload.get("count"), int)):
            raise ConfigParseError(f"step {index}: tick takes an integer count")
        if payload["count"] < 1:
            raise ConfigParseError(f"step {index}: tick count must be >= 1")
    elif kind in ("service-on", "service-off"):
        if isinstance(payload, str):
            payload = {"service": payload}
        if not isinstance(payload.get("service"), str):
            raise ConfigParseError(f"step {index}: {kind} names a service id")
    elif not isinstance(payload, dict):
        raise ConfigParseError(f"step {index}: {kind} takes a mapping payload")
    elif kind == "expect-record-count":
        try:
            selector_from_dict(payload.get("selector") or {})
        except ValueError as exc:
            raise ConfigParseError(f"step {index}: {exc}") from exc
    return ScenarioStep(kind=kind, payload=payload)


def _match_decision(decision: SyncDecision, pattern: dict[str, Any]) -> bool:
    if "mapping" in pattern and decision.mapping_id != pattern["mapping"]:
        return False
    if "action" in pattern and decision.action.value != pattern["action"]:
        return False
    if "reason" in pattern and decision.reason.value != pattern["reason"]:
        return False
    if "tick" in pattern and decision.tick != pattern["tick"]:
        return False
    return True


class ScenarioRunner:
    def __init__(self, runtime: TwinRuntime):
        self.runtime = runtime
        self.executed = 0

    def run(self, script: ScenarioScript) -> int:
        """Execute every step; returns the number of steps executed."""
        for index, step in enumerate(script.steps):
            self._run_step(step, index)
            self.executed += 1
        return self.executed

    def _run_step(self, step: ScenarioStep, index: int) -> None:
        p = step.payload
        rt = self.runtime
        if step.kind == "tick":
            rt.advance(p["count"])
        elif step.kind == "asset-set":
            rt.asset_set(p["gateway"], p["property"], p["value"])
        elif step.kind == "asset-raise":
            rt.asset_raise(p["gateway"], p["event"], p.get("payload"))
        elif step.kind == "model-edit":
            rt.model_edit(p["manager"], p["operator"], p["model"], p.get("args", {}))
        elif step.kind == "service-on":
            rt.engine.set_service_enabled(p["service"], True)
        elif step.kind == "service-off":
            rt.engine.set_service_enabled(p["service"], False)
        elif step.kind == "expect-model":
            self._expect_model(p, index)
        elif step.kind == "expect-decision":
            self._expect_decision(p, index)
        elif step.kind == "expect-record-count":
            self._expect_record_count(p, index)

    def _expect_model(self, p: dict, index: int) -> None:
        actual = self.runtime.model_value(p["model"], p["element"], p["property"])
        expected = fit_value(p["value"], value_type(actual))
        tolerance = p.get("tolerance")
        if tolerance is not None and isinstance(actual, (int, float)) \
                and isinstance(expected, (int, float)):
            ok = abs(actual - expected) <= tolerance
        else:
            ok = actual == expected
        if not ok:
            raise ScenarioAssertionFailed(
                f"step {index}: expect-model {p['model']}/{p['element']}."
                f"{p['property']}\n  expected: {expected!r}\n  actual:   {actual!r}",
                step_index=index)

    def _expect_decision(self, p: dict, index: int) -> None:
        pool = (self.runtime.engine.decisions if "tick" in p
                else self.runtime.last_decisions)
        if any(_match_decision(d, p) for d in pool):
            return
        seen = [d.to_dict() for d in self.runtime.last_decisions]
        raise ScenarioAssertionFailed(
            f"step {index}: expect-decision {p!r} matched nothing\n"
            f"  last tick decisions: {seen}", step_index=index)

    def _expect_record_count(self, p: dict, index: int) -> None:
        selector = selector_from_dict(p.get("selector") or {})
        records = self.runtime.data.query(selector)
        expected = p["count"]
        if len(records) != expected:
            raise ScenarioAssertionFailed(
                f"step {index}: expect-record-count {p.get('selector') or {}}\n"
                f"  expected: {expected}\n  actual:   {len(records)}",
                step_index=index)
