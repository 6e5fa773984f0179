"""The twin command line: run, classify, audit, inspect, invoke, history, scenario.

Exit codes: 0 success, 1 operation error, 2 configuration/usage error,
3 audit violations, 4 scenario assertion failure. ``invoke`` and the online
forms of ``inspect``/``history`` talk to a running twin over its control
socket (--control or TWIN_CONTROL_ADDR).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import config as config_mod
from . import scenario as scenario_mod
from .conformance import audit, classify
from .errors import (
    AuditFailed,
    ConfigParseError,
    NotRunning,
    ScenarioAssertionFailed,
    TwinError,
)
from .data import DataManager, selector_from_dict
from .runtime import (
    DecisionLog,
    TwinRuntime,
    inspect_config,
    render_records_json,
    render_records_table,
)
from .scenario import ScenarioRunner
from .values import canonical_json
from .wire import connect_channel

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_AUDIT = 3
EXIT_SCENARIO = 4


def _load_config(path: str | None) -> config_mod.TwinConfiguration:
    if not path:
        raise ConfigParseError("--config is required for this command")
    return config_mod.load(path)


def cmd_classify(args) -> int:
    cfg = _load_config(args.config)
    verdict = classify(cfg)
    if args.format == "json":
        print(canonical_json(verdict.to_dict()))
    else:
        print(f"classification: {verdict.category.value}")
        if verdict.evidence:
            print(f"evidence: {', '.join(verdict.evidence)}")
        else:
            print("evidence: (none)")
    return EXIT_OK


def cmd_audit(args) -> int:
    cfg = _load_config(args.config)
    report = audit(cfg)
    if args.format == "json":
        print(canonical_json(report.to_dict()))
    else:
        width = max(len(r.title) for r in report.results)
        for r in report.results:
            print(f"{r.conclusion}  {r.status.value:<15} {r.title:<{width}}")
            for finding in r.findings:
                print(f"      - {finding}")
    return EXIT_AUDIT if report.violated else EXIT_OK


def _gate_audit(cfg, force: bool) -> None:
    report = audit(cfg)
    if report.violated and not force:
        details = "; ".join(
            f"{c}: {report.result(c).findings[0] if report.result(c).findings else ''}"
            for c in report.violated)
        raise AuditFailed(f"audit violated {report.violated} ({details}); "
                          f"use --force to run anyway", violated=report.violated)


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    _gate_audit(cfg, args.force)
    if args.script is None and args.timer is None:
        raise ConfigParseError("run requires --script PATH or --timer MS")
    for flag, value in (("--timer", args.timer), ("--max-ticks", args.max_ticks)):
        if value is not None and value < 1:
            raise ConfigParseError(f"{flag} must be a positive integer, got {value}")

    sink = DecisionLog(args.decisions) if args.decisions else None
    runtime = TwinRuntime(cfg, journal_path=args.journal, decision_sink=sink)
    try:
        control_addr = args.control or os.environ.get("TWIN_CONTROL_ADDR")
        if control_addr:
            endpoint = runtime.start_control(control_addr)
            print(f"control listening {endpoint}", flush=True)
        if args.script is not None:
            script = scenario_mod.load(args.script)
            executed = ScenarioRunner(runtime).run(script)
            print(f"scenario ok ({executed} steps, {runtime.engine.tick_count} ticks)")
            return EXIT_OK
        period = args.timer / 1000.0
        print(f"running {cfg.twin_id} every {args.timer} ms", flush=True)
        # each tick is due one period after the last one was due, so the time
        # a tick takes does not add up into drift
        wait = runtime.serve_control if control_addr else time.sleep
        due = time.monotonic() + period
        while args.max_ticks is None or runtime.engine.tick_count < args.max_ticks:
            wait(max(0.0, due - time.monotonic()))
            runtime.advance()
            due += period
        return EXIT_OK
    except KeyboardInterrupt:
        return EXIT_OK
    finally:
        runtime.close()
        if sink is not None:
            sink.close()


def cmd_scenario(args) -> int:
    args.script = args.script_path
    args.timer = args.max_ticks = None
    return cmd_run(args)


def cmd_inspect(args) -> int:
    if args.control or os.environ.get("TWIN_CONTROL_ADDR"):
        report = _control_request(args, {"op": "ctl.inspect"})["report"]
    else:
        report = inspect_config(_load_config(args.config))
    if args.model:
        model = report["models"].get(args.model)
        if model is None:
            print(f"no model {args.model!r}", file=sys.stderr)
            return EXIT_ERROR
        if args.format == "json":
            print(canonical_json(model))
        else:
            _print_model(args.model, model)
        return EXIT_OK
    if args.format == "json":
        print(canonical_json(report))
    else:
        print(f"twin: {report['twin']} (tick {report['tick']})")
        print("gateways:")
        for gw in report["gateways"]:
            tag = " [simulated]" if gw["simulated"] else ""
            print(f"  {gw['id']} @ {gw['endpoint']}{tag}: {', '.join(gw['elements'])}")
        print("models:")
        for model_id in sorted(report["models"]):
            _print_model(model_id, report["models"][model_id], indent="  ")
        print("mappings:")
        for m in report["mappings"]:
            flag = "" if m["enabled"] else " (disabled)"
            print(f"  {m['id']}: {m['gateway']} --{m['direction']}--> {m['model']}{flag}")
        print("services:")
        for s in report["services"]:
            flag = "" if s["enabled"] else " (disabled)"
            print(f"  {s['id']}{flag}")
    return EXIT_OK


def _print_model(model_id: str, model: dict, indent: str = "") -> None:
    mode = model["model_properties"].get("mode", {}).get("value", "?")
    print(f"{indent}{model_id} [{model['language']}] mode={mode}")
    for eid in sorted(model["elements"]):
        element = model["elements"][eid]
        props = ", ".join(f"{n}={canonical_json(p['value'])}"
                          for n, p in sorted(element["properties"].items()))
        print(f"{indent}  {eid} ({element['kind']}): {props}")


def _control_request(args, msg: dict) -> dict:
    addr = getattr(args, "control", None) or os.environ.get("TWIN_CONTROL_ADDR")
    if not addr:
        raise NotRunning("no control address; set --control or TWIN_CONTROL_ADDR")
    try:
        channel = connect_channel(addr, timeout=5.0)
    except ConnectionError as exc:
        raise NotRunning(f"no twin reachable at {addr}: {exc}") from exc
    try:
        reply = channel.request(dict(msg, id=1), timeout=5.0)  # one request per connection
        if reply.get("op") == "error":
            raise TwinError(f"{reply.get('code', 'Error')}: {reply.get('message', '')}")
        return reply
    finally:
        channel.close()


def _parse_invoke_arg(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def cmd_invoke(args) -> int:
    values = [_parse_invoke_arg(a) for a in args.args]
    reply = _control_request(args, {"op": "ctl.invoke", "gateway": args.gateway,
                                    "function": args.function, "args": values})
    print(canonical_json(reply.get("value")))
    return EXIT_OK


def cmd_history(args) -> int:
    selector_spec = {
        "origin": args.origin, "timeliness": args.timeliness,
        "processing": args.processing, "model": args.model,
        "element": args.element, "property": args.property,
        "tick_from": args.tick_from, "tick_to": args.tick_to,
    }
    selector_spec = {k: v for k, v in selector_spec.items() if v is not None}
    if args.journal:
        manager = DataManager.reload(args.journal)
        records = [r.to_dict() for r in manager.query(selector_from_dict(selector_spec))]
    elif args.control or os.environ.get("TWIN_CONTROL_ADDR"):
        reply = _control_request(args, {"op": "ctl.history", "selector": selector_spec})
        records = reply["records"]
    else:
        raise NotRunning("history needs --journal PATH or a control address")
    if args.format == "json":
        print(render_records_json(records), end="")
    else:
        print(render_records_table(records), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twin", description="Digital twin runtime.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="twin configuration file")
        p.add_argument("--format", choices=("table", "json"), default="table")

    p = sub.add_parser("classify", help="classify a configuration (model/shadow/twin)")
    add_common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("audit", help="check the seven conformance rules")
    add_common(p)
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("run", help="run the twin from a script or timer")
    p.add_argument("--config", help="twin configuration file")
    p.add_argument("--script", help="scenario script to execute")
    p.add_argument("--timer", type=int, help="tick period in milliseconds")
    p.add_argument("--max-ticks", type=int, default=None)
    p.add_argument("--decisions", help="write the decision log to this path")
    p.add_argument("--journal", help="data journal path (overrides configuration)")
    p.add_argument("--control", help="control socket address (tcp://host:port)")
    p.add_argument("--force", action="store_true",
                   help="run even when the audit reports violations")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("scenario", help="run a scenario script (alias for run --script)")
    p.add_argument("script_path", help="scenario script")
    p.add_argument("--config", help="twin configuration file")
    p.add_argument("--decisions")
    p.add_argument("--journal")
    p.add_argument("--control")
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_scenario)

    p = sub.add_parser("inspect", help="print models, mappings, gateways")
    add_common(p)
    p.add_argument("--model", help="limit output to one model")
    p.add_argument("--control", help="inspect a running twin instead")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("invoke", help="invoke a gateway function on a running twin")
    p.add_argument("gateway")
    p.add_argument("function")
    p.add_argument("args", nargs="*", help="JSON-encoded arguments")
    p.add_argument("--control", help="control socket address")
    p.set_defaults(fn=cmd_invoke)

    p = sub.add_parser("history", help="query the data journal")
    p.add_argument("--journal", help="journal file (offline query)")
    p.add_argument("--control", help="query a running twin instead")
    p.add_argument("--origin", help="origin filter, e.g. actual-system or service:kpi")
    p.add_argument("--timeliness", choices=("live", "historical"))
    p.add_argument("--processing", choices=("raw", "processed"))
    p.add_argument("--model")
    p.add_argument("--element")
    p.add_argument("--property")
    p.add_argument("--tick-from", type=int, dest="tick_from")
    p.add_argument("--tick-to", type=int, dest="tick_to")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(fn=cmd_history)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigParseError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AuditFailed as exc:
        print(f"audit failed: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    except ScenarioAssertionFailed as exc:
        print(f"scenario failed: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except NotRunning as exc:
        print(f"not running: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except TwinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
