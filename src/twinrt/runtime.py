"""Assembles a running twin from a configuration and drives it.

The runtime hosts simulated assets declared in the configuration (binding
their listeners and rewriting ephemeral ports), connects all gateways,
builds the model registry and data manager, registers services, and then
ticks the engine either from a script or a timer. A control server speaking
the wire framing exposes mediated invoke/history/inspect to the CLI. The
tick loop serves it between ticks, so no control request runs during one.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Iterable

from .asset import AssetControl, AssetServer, build_model
from .config import TwinConfiguration
from .data import DataManager, DataRecord, LineLog
from .engine import Engine, Mapping, SyncDecision
from .errors import ProtocolError, TwinError
from .gateway import ValueSample, connect
from .models import ModelRegistry, OperatorOutcome
from .services import ApplyOperator, ServiceRequest, build_builtin, request_from_wire
from .values import Value, canonical_json
from .wire import LineChannel, LineServer


def build_registry(config: TwinConfiguration) -> ModelRegistry:
    """Model registry for a configuration, each model in its configured mode."""
    registry = ModelRegistry()
    for language in config.languages:
        registry.register_language(language)
    owners: dict[str, str] = {}
    for manager in config.managers:
        registry.create_manager(manager.manager_id)
        for model_id in manager.models:
            owners[model_id] = manager.manager_id
    for model in config.models:
        owner = owners.get(model.model_id)
        if owner is None:
            raise TwinError(f"model {model.model_id!r} has no responsible manager")
        # the registry commits the configured elements themselves: no transaction
        # writes a committed element, so they stay as configured
        registry.create_model(owner, model.model_id, model.language_id,
                              list(model.elements), track_last_update=model.last_update)
        # models are created Offline; the configuration decides the starting mode
        registry.set_mode(owner, model.model_id, model.mode)
    for manager in config.managers:
        for delegation in manager.delegations:
            registry.add_delegation(manager.manager_id, delegation.operator,
                                    delegation.target, delegation.model_pattern)
    return registry


def inspect_config(config: TwinConfiguration) -> dict:
    """Offline structural report: no gateway connections, no journal opened."""
    return _report(config, build_registry(config), tick=0, endpoints={},
                   mappings=config.mappings,
                   services={s.service_id: True for s in config.services})


def _report(config: TwinConfiguration, registry: ModelRegistry, tick: int,
            endpoints: dict[str, str], mappings: Iterable[Mapping],
            services: dict[str, bool]) -> dict:
    """The deterministic structural report of a twin, offline or running;
    a gateway missing from ``endpoints`` shows its configured endpoint."""
    return {
        "twin": config.twin_id,
        "tick": tick,
        "gateways": [
            {"id": gw.descriptor.gateway_id,
             "endpoint": endpoints.get(gw.descriptor.gateway_id, gw.descriptor.endpoint),
             "elements": [d.name for d in gw.descriptor.elements],
             "simulated": gw.simulate is not None}
            for gw in config.gateways
        ],
        "models": {mid: registry.model(mid).to_dict() for mid in registry.models()},
        "mappings": [
            {"id": m.mapping_id, "direction": m.direction.value,
             "model": f"{m.model_id}/{m.element_id}.{m.property_name}",
             "gateway": f"{m.gateway_id}/{m.gateway_property}",
             "enabled": m.enabled}
            for m in sorted(mappings, key=lambda m: m.mapping_id)
        ],
        "services": [{"id": sid, "enabled": enabled} for sid, enabled in sorted(services.items())],
    }


class TwinRuntime:
    """One configured twin: assets, gateways, registry, data, engine, services."""

    def __init__(self, config: TwinConfiguration, journal_path: str | Path | None = None,
                 decision_sink: Callable[[dict], None] | None = None,
                 connect_timeout: float = 5.0):
        self.config = config
        self._assets: dict[str, AssetServer] = {}
        self._asset_controls: dict[str, AssetControl] = {}
        self._control_server: LineServer | None = None
        self.last_decisions: list[SyncDecision] = []

        self.registry = build_registry(config)

        journal = journal_path if journal_path is not None else config.data.journal
        self.data = DataManager(journal_path=journal, resolver=self.registry.resolve,
                                enforce_mandatory=config.data.mandatory_metadata,
                                allow_linkage=config.data.model_linkage)
        self.engine = Engine(self.registry, self.data, sink=decision_sink)

        try:
            self._start_gateways(connect_timeout)
            for mapping in config.mappings:
                self.engine.add_mapping(mapping)
            for service in config.services:
                impl = (build_builtin(service.builtin, service.params)
                        if service.builtin is not None else None)
                self.engine.register_service(service, impl)
        except Exception:
            self.close()
            raise

    def _start_gateways(self, connect_timeout: float) -> None:
        for gw in self.config.gateways:
            descriptor = gw.descriptor
            if gw.simulate is not None:
                model = build_model(gw.simulate.model, gw.simulate.seed,
                                    dict(gw.simulate.params))
                server = AssetServer(model, listen=descriptor.endpoint,
                                     step_ms=gw.simulate.step_ms)
                self._assets[descriptor.gateway_id] = server
                descriptor = replace(descriptor, endpoint=server.endpoint)
            self.engine.add_gateway(connect(descriptor, timeout=connect_timeout))

    # --- driving ---

    def step_assets(self, count: int = 1) -> None:
        """Advance every asset's dynamics; stands in for the physical world.

        Runner-hosted assets are stepped directly; external ones over their
        simulation-control channel, so scripted runs behave identically
        either way.
        """
        for gateway_id in sorted(gw.descriptor.gateway_id for gw in self.config.gateways):
            self._control(gateway_id).step(count)

    def tick(self) -> list[SyncDecision]:
        self.last_decisions = self.engine.tick(self.engine.tick_count + 1)
        return self.last_decisions

    def advance(self, ticks: int = 1) -> None:
        """Scenario tick: assets step, the engine ticks, waiting control requests are answered."""
        for _ in range(ticks):
            self.step_assets(1)
            self.tick()
            self.serve_control()

    def asset_set(self, gateway_id: str, prop: str, value: Value) -> None:
        self._control(gateway_id).force_set(prop, value)

    def asset_raise(self, gateway_id: str, event: str, payload: Value) -> None:
        self._control(gateway_id).raise_event(event, payload)

    def asset_state(self, gateway_id: str) -> dict[str, Value]:
        return self._control(gateway_id).state()

    def _control(self, gateway_id: str):
        server = self._assets.get(gateway_id)
        if server is not None:
            return server
        control = self._asset_controls.get(gateway_id)
        if control is None:
            gw = self.config.gateway(gateway_id)
            if gw is None:
                raise TwinError(f"no gateway {gateway_id!r} in configuration")
            control = AssetControl(gw.descriptor.endpoint)
            self._asset_controls[gateway_id] = control
        return control

    # --- mediated access ---

    def mediate_operator(self, request: ServiceRequest):
        return self.engine.mediate_operator_call(request)

    def model_edit(self, manager_id: str, operator_id: str, model_id: str,
                   args: dict[str, Value]):
        return self.mediate_operator(ApplyOperator(manager_id, operator_id, model_id, args))

    def model_value(self, model_id: str, element_id: str, prop: str) -> Value:
        return self.registry.property_value(model_id, element_id, prop)

    # --- control server ---

    def start_control(self, listen: str) -> str:
        self._control_server = LineServer(listen, self._answer_control)
        return self._control_server.endpoint

    def serve_control(self, seconds: float = 0.0) -> None:
        """Answer control requests for ``seconds``, then all that are waiting."""
        if self._control_server is not None:
            self._control_server.serve(time.monotonic() + seconds)

    def _answer_control(self, channel: LineChannel, msg: dict) -> None:
        try:
            reply = self._dispatch_control(msg)
        except TwinError as exc:
            reply = {"op": "error", "code": type(exc).__name__, "message": str(exc)}
        channel.send(dict(reply, id=msg.get("id")))

    def _dispatch_control(self, msg: dict) -> dict:
        op = msg.get("op")
        if op == "ctl.status":
            return {"op": "status", "twin": self.config.twin_id, "tick": self.engine.tick_count}
        # ctl.invoke and ctl.history carry the fields of the matching request
        if op == "ctl.invoke":
            result = self.mediate_operator(request_from_wire(dict(msg, kind="invoke-function")))
            return {"op": "result", "value": result}
        if op == "ctl.history":
            selector = request_from_wire(dict(msg, kind="query-data")).selector
            limit = _count(msg, "limit", None, least=1)
            after_id = _count(msg, "after_id", 0, least=0)
            records = self.data.query(selector, after_id=after_id, limit=limit)
            return {"op": "records", "records": [r.to_dict() for r in records]}
        if op == "ctl.inspect":
            return {"op": "report", "report": self.inspect()}
        if op == "ctl.call":
            # out-of-process service path: same requests, same grant checks
            service = msg.get("service", "")
            if not isinstance(service, str):
                raise ProtocolError(f"service must be text, got {service!r}")
            request = request_from_wire(msg.get("request") or {})
            result = self.engine.mediate_service_call(service, request)
            return {"op": "result", "value": _wire_result(result)}
        raise ProtocolError(f"unknown control op {op!r}")

    def inspect(self) -> dict:
        """Deterministic structural report of the running twin."""
        engine = self.engine
        return _report(
            self.config, self.registry, engine.tick_count,
            endpoints={gid: engine.gateway(gid).descriptor.endpoint
                       for gid in engine.gateways()},
            mappings=engine.mappings(),
            services={sid: engine.service_enabled(sid) for sid in engine.services()})

    def close(self) -> None:
        """Close the control socket, the gateways, the hosted assets and the
        journal.

        Until closed, the twin keeps every record and sync decision; a service
        notice goes only to the decision sink. Closing unwires the engine from
        the registry and from its services, so no reference cycle is left and
        the twin is freed as soon as its last reference is dropped. A service
        client called after close is refused with PermissionDenied, as an
        unregistered service is.
        """
        if self._control_server is not None:
            self._control_server.close()
            self._control_server = None
        for control in self._asset_controls.values():
            control.close()
        self._asset_controls.clear()
        self.engine.close()
        for server in self._assets.values():
            server.close()
        self._assets.clear()
        self.data.close()


def _count(msg: dict, name: str, default: int | None, least: int) -> int | None:
    """``msg[name]``, an integer of at least ``least``, or ``default`` when absent."""
    value = msg.get(name)
    if value is None:
        return default
    if type(value) is not int or value < least:
        raise ProtocolError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def _wire_result(result) -> Any:
    """Flatten a mediated-call result to its wire representation."""
    if isinstance(result, ValueSample):
        return {"value": result.value, "ts": result.asset_timestamp,
                "seq": result.sequence_no}
    if isinstance(result, OperatorOutcome):
        return {"model": result.model_id, "operator": result.operator_id,
                "applied_by": result.applied_by,
                "chain": list(result.delegation_chain), "tick": result.tick}
    if isinstance(result, list) and all(isinstance(r, DataRecord) for r in result):
        return [r.to_dict() for r in result]
    return result


class DecisionLog(LineLog):
    """One line per decision or service notice, written as the journal is."""

    def __init__(self, path: str | Path):
        super().__init__(path, "decision log")

    __call__ = LineLog.append


def render_records_json(records: list[dict]) -> str:
    return "\n".join(canonical_json(r) for r in records) + ("\n" if records else "")


def render_records_table(records: list[dict]) -> str:
    """Render record dicts (DataRecord.to_dict form) as an aligned table."""
    if not records:
        return "(no records)\n"
    lines = [f"{'id':>5}  {'origin':<24} {'timeliness':<11} {'processing':<10} "
             f"{'tick':>5}  value"]
    for record in records:
        props = record.get("properties", {})
        origin = props.get("origin") or {}
        origin_text = origin.get("source", "?")
        if origin.get("id"):
            origin_text += f":{origin['id']}"
        tick = props.get("last-update")
        lines.append(f"{record['id']:>5}  {origin_text:<24} "
                     f"{str(props.get('timeliness') or '-'):<11} "
                     f"{str(props.get('processing') or '-'):<10} "
                     f"{tick if tick is not None else '-':>5}  "
                     f"{canonical_json(record['value'])}")
    return "\n".join(lines) + "\n"
