import json
import threading
import time

import pytest
import yaml

from conftest import DEMO_CONFIG, DEMO_SCENARIO

import twinrt.cli as cli_mod
import twinrt.config as config_mod
import twinrt.scenario as scenario_mod
from twinrt.cli import main
from twinrt.engine import SyncReason
from twinrt.errors import ConfigParseError, ScenarioAssertionFailed
from twinrt.runtime import TwinRuntime, inspect_config
from twinrt.scenario import ScenarioRunner


class TestScenarioParsing:
    def test_step_forms(self):
        script = scenario_mod.loads("""
steps:
  - tick
  - tick: 3
  - asset-set: {gateway: g, property: p, value: 1.0}
  - service-off: kpi
  - expect-model: {model: m, element: e, property: p, value: 2}
""")
        kinds = [s.kind for s in script.steps]
        assert kinds == ["tick", "tick", "asset-set", "service-off", "expect-model"]
        assert script.steps[0].payload == {"count": 1}
        assert script.steps[1].payload == {"count": 3}
        assert script.steps[3].payload == {"service": "kpi"}

    def test_bare_list_without_steps_key(self):
        script = scenario_mod.loads("- tick\n- tick: 2\n")
        assert len(script.steps) == 2

    @pytest.mark.parametrize("text", [
        "steps:\n  - explode",
        "steps:\n  - tick: zero",
        "steps:\n  - tick: 0",
        "steps:\n  - {tick: 1, asset-set: {}}",
        "steps: {not: a list}",
        "steps:\n  - service-on: {}",
        "steps:\n  - expect-record-count: {selector: {tick_from: '1'}, count: 0}",
        pytest.param(b"steps:\n  - asset-set: {gateway: tank01, property: caf\xe9, value: 1}\n",
                     id="latin-1"),
    ])
    def test_bad_scripts(self, text, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        with pytest.raises(ConfigParseError):
            scenario_mod.load(path)


# a bare twin with an integer model property and a simulated echo asset
FIT_CONFIG = """
twin: fit
gateways:
  - id: echo01
    endpoint: tcp://127.0.0.1:0
    simulate: {model: echo}
    elements:
      - {name: pad, kind: property, type: text, access: rw}
      - {name: gain, kind: property, type: real, access: rw}
      - {name: count, kind: property, type: integer, access: rw}
      - {name: lit, kind: property, type: boolean, access: rw}
      - {name: pulse, kind: event, payload: integer}
      - {name: echo, kind: function, args: [text], result: text}
      - {name: sum, kind: function, args: [real, real], result: real}
      - {name: div, kind: function, args: [real, real], result: real}
languages: [{id: lang, kinds: {Node: {x: real, n: integer}}}]
managers: [{id: m, models: [mdl]}]
models:
  - id: mdl
    language: lang
    elements: [{id: e, kind: Node, properties: {x: 0.0, n: 0}}]
"""


class TestScenarioExecution:
    def run_steps(self, text):
        runtime = TwinRuntime(config_mod.load(DEMO_CONFIG))
        try:
            runner = ScenarioRunner(runtime)
            runner.run(scenario_mod.loads(text))
            return runtime, runner
        finally:
            runtime.close()

    def test_expect_model_failure_names_step(self):
        with pytest.raises(ScenarioAssertionFailed) as excinfo:
            self.run_steps("""
steps:
  - tick: 1
  - expect-model: {model: tank, element: main, property: level, value: 99.0}
""")
        assert excinfo.value.step_index == 1
        assert "expected: 99.0" in str(excinfo.value)

    def test_expect_decision_failure_shows_last_tick(self):
        with pytest.raises(ScenarioAssertionFailed) as excinfo:
            self.run_steps("""
steps:
  - tick: 1
  - expect-decision: {mapping: m-level, action: push-dt-to-as}
""")
        assert "matched nothing" in str(excinfo.value)

    def test_model_edit_int_is_fitted_to_real_schema(self):
        self.run_steps("""
steps:
  - model-edit: {manager: plant, operator: set_property, model: tank,
                 args: {element: main, property: valve_target, value: 1}}
  - expect-model: {model: tank, element: main, property: valve_target, value: 1.0}
""")
        # an integral real given for an integer property fits the other way
        runtime = TwinRuntime(config_mod.loads(FIT_CONFIG))
        try:
            ScenarioRunner(runtime).run(scenario_mod.loads("""
steps:
  - model-edit: {manager: m, operator: set_property, model: mdl,
                 args: {element: e, property: n, value: 2.0}}
  - asset-set: {gateway: echo01, property: count, value: 3.0}
  - asset-set: {gateway: echo01, property: gain, value: 2}
"""))
            n = runtime.model_value("mdl", "e", "n")
            state = runtime.asset_state("echo01")
        finally:
            runtime.close()
        assert n == 2 and isinstance(n, int)
        assert state["count"] == 3 and isinstance(state["count"], int)
        assert state["gain"] == 2.0 and isinstance(state["gain"], float)

    @pytest.mark.parametrize("args", [
        "{element: [main], property: valve_target, value: 1}",
        "{element: main, property: [valve_target], value: 1}",
    ], ids=["element", "property"])
    def test_model_edit_with_a_non_text_id_is_an_error(self, capsys, tmp_path, args):
        script = tmp_path / "s.yaml"
        script.write_text("steps:\n  - model-edit: {manager: plant, operator: set_property, "
                          f"model: tank, args: {args}}}\n")
        assert main(["scenario", str(script), "--config", str(DEMO_CONFIG)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_service_off_stops_hooks(self):
        runtime, _ = self.run_steps("""
steps:
  - service-off: kpi
  - service-off: guard
  - tick: 8
  - expect-record-count: {selector: {origin: service:kpi}, count: 0}
""")


class TestCliCommands:
    def test_classify_table_and_json(self, capsys):
        assert main(["classify", "--config", str(DEMO_CONFIG)]) == 0
        out = capsys.readouterr().out
        assert "digital-twin" in out
        assert main(["classify", "--config", str(DEMO_CONFIG), "--format", "json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["category"] == "digital-twin"
        assert verdict["evidence"] == ["m-level", "m-valve"]

    def test_audit_exit_codes(self, capsys, tmp_path):
        assert main(["audit", "--config", str(DEMO_CONFIG)]) == 0
        capsys.readouterr()
        # a config with an ungated service audits as violated -> nonzero
        bad = tmp_path / "bad.yaml"
        bad.write_text(DEMO_CONFIG.read_text().replace(
            "    grant: [read-model:tank, ingest-data]\n", ""))
        assert main(["audit", "--config", str(bad)]) != 0
        out = capsys.readouterr().out
        assert "violated" in out

    def test_audit_json_format(self, capsys):
        assert main(["audit", "--config", str(DEMO_CONFIG), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["results"]) == 7
        assert report["violated"] == []

    @pytest.mark.parametrize("command", ["classify", "audit"])
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_report_output_is_bit_stable(self, capsys, command, fmt):
        def render():
            assert main([command, "--config", str(DEMO_CONFIG), "--format", fmt]) == 0
            return capsys.readouterr().out
        assert render() == render()

    def test_run_requires_mode(self, capsys):
        assert main(["run", "--config", str(DEMO_CONFIG)]) == 2

    def test_run_gates_on_audit(self, capsys, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(DEMO_CONFIG.read_text().replace(
            "    grant: [read-model:tank, ingest-data]\n", ""))
        script = tmp_path / "s.yaml"
        script.write_text("steps:\n  - tick: 1\n")
        assert main(["run", "--config", str(bad), "--script", str(script)]) == 3
        # --force overrides; the ungated service simply gets denied at runtime
        assert main(["run", "--config", str(bad), "--script", str(script),
                     "--force"]) == 0

    def test_scenario_subcommand_runs_demo(self, capsys, tmp_path):
        code = main(["scenario", str(DEMO_SCENARIO), "--config", str(DEMO_CONFIG),
                     "--journal", str(tmp_path / "j.ndjson"),
                     "--decisions", str(tmp_path / "d.log")])
        assert code == 0
        assert "scenario ok" in capsys.readouterr().out
        assert (tmp_path / "j.ndjson").exists()
        assert (tmp_path / "d.log").exists()

    def test_failing_scenario_exits_4_with_step_index(self, capsys, tmp_path):
        script = tmp_path / "s.yaml"
        script.write_text("""
steps:
  - tick: 1
  - expect-model: {model: tank, element: main, property: level, value: 42.0}
""")
        assert main(["scenario", str(script), "--config", str(DEMO_CONFIG)]) == 4
        assert "step 1" in capsys.readouterr().err

    def test_inspect_offline(self, capsys):
        assert main(["inspect", "--config", str(DEMO_CONFIG)]) == 0
        out = capsys.readouterr().out
        assert "tank01" in out and "m-level" in out and "kpi" in out

    def test_inspect_single_model_sorted_json(self, capsys):
        assert main(["inspect", "--config", str(DEMO_CONFIG), "--model", "tank",
                     "--format", "json"]) == 0
        model = json.loads(capsys.readouterr().out)
        assert list(model["elements"]) == ["main"]
        assert model["elements"]["main"]["properties"]["capacity"]["value"] == 10.0

    def test_offline_report_is_the_live_report(self):
        config = config_mod.load(DEMO_CONFIG)
        offline = inspect_config(config)
        runtime = TwinRuntime(config)
        try:
            live = runtime.inspect()
        finally:
            runtime.close()
        # only the tick and where a simulated asset was bound may differ
        for report in (offline, live):
            del report["tick"]
            for gateway in report["gateways"]:
                if gateway["simulated"]:
                    del gateway["endpoint"]
        assert offline == live

    def test_inspect_empty_config(self, capsys, tmp_path):
        empty = tmp_path / "empty.yaml"
        empty.write_text("twin: bare\n")
        assert main(["inspect", "--config", str(empty)]) == 0

    def test_config_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "nope.yaml"
        assert main(["classify", "--config", str(bad)]) == 2


class TestHistoryCli:
    @pytest.fixture()
    def journal(self, tmp_path, capsys):
        path = tmp_path / "j.ndjson"
        code = main(["scenario", str(DEMO_SCENARIO), "--config", str(DEMO_CONFIG),
                     "--journal", str(path)])
        assert code == 0
        capsys.readouterr()  # drop the scenario's own output
        return path

    def test_history_json_is_newline_delimited_in_id_order(self, capsys, journal):
        assert main(["history", "--journal", str(journal),
                     "--origin", "actual-system", "--format", "json"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(lines) == 13
        ids = [l["id"] for l in lines]
        assert ids == sorted(ids)
        assert all(l["properties"]["origin"]["source"] == "actual-system"
                   for l in lines)

    def test_history_origin_with_id_filter(self, capsys, journal):
        assert main(["history", "--journal", str(journal),
                     "--origin", "service:kpi", "--format", "json"]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(lines) == 3
        assert all(l["properties"]["origin"] == {"source": "service", "id": "kpi"}
                   for l in lines)

    def test_history_table(self, capsys, journal):
        assert main(["history", "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "actual-system:tank01" in out

    def test_history_needs_a_source(self, capsys, monkeypatch):
        monkeypatch.delenv("TWIN_CONTROL_ADDR", raising=False)
        assert main(["history"]) == 1


class TestControlSocket:
    @pytest.fixture()
    def running_twin(self, tmp_path):
        runtime = TwinRuntime(config_mod.load(DEMO_CONFIG),
                              journal_path=tmp_path / "j.ndjson")
        endpoint = runtime.start_control("tcp://127.0.0.1:0")
        ticker = threading.Event()

        def loop():
            # control requests are answered between ticks, on this thread
            while not ticker.is_set():
                runtime.serve_control(0.02)
                runtime.step_assets(1)
                runtime.tick()

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        yield runtime, endpoint
        ticker.set()
        thread.join(timeout=5)
        runtime.close()

    def test_invoke_flush_prints_true(self, capsys, running_twin):
        _, endpoint = running_twin
        assert main(["invoke", "tank01", "flush", "--control", endpoint]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_invoke_unknown_function_fails(self, capsys, running_twin):
        _, endpoint = running_twin
        assert main(["invoke", "tank01", "selfdestruct", "--control", endpoint]) == 1

    def test_invoke_without_control_address(self, capsys, monkeypatch):
        monkeypatch.delenv("TWIN_CONTROL_ADDR", raising=False)
        assert main(["invoke", "tank01", "flush"]) == 1
        assert "not running" in capsys.readouterr().err

    def test_control_addr_env_var(self, capsys, running_twin, monkeypatch):
        _, endpoint = running_twin
        monkeypatch.setenv("TWIN_CONTROL_ADDR", endpoint)
        assert main(["invoke", "tank01", "flush"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_history_over_control_socket(self, capsys, running_twin):
        runtime, endpoint = running_twin
        deadline = time.time() + 5
        while runtime.data.count() == 0 and time.time() < deadline:
            time.sleep(0.02)
        assert main(["history", "--control", endpoint, "--origin", "actual-system",
                     "--format", "json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and json.loads(lines[0])["id"] == 1

    def test_inspect_over_control_socket(self, capsys, running_twin):
        _, endpoint = running_twin
        assert main(["inspect", "--control", endpoint, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["twin"] == "demo-tank"
        assert "tank" in report["models"]

    def test_out_of_process_service_calls_are_grant_checked(self, running_twin):
        from twinrt.wire import connect_channel

        _, endpoint = running_twin
        channel = connect_channel(endpoint)
        try:
            # guard holds command-gateway:tank01, so flush is allowed
            channel.send({"op": "ctl.call", "id": 1, "service": "guard",
                          "request": {"kind": "invoke-function", "gateway": "tank01",
                                      "function": "flush", "args": []}})
            reply = channel.recv()
            assert reply["op"] == "result" and reply["value"] is True
            # kpi has no gateway capability: denied over the wire too
            channel.send({"op": "ctl.call", "id": 2, "service": "kpi",
                          "request": {"kind": "invoke-function", "gateway": "tank01",
                                      "function": "flush", "args": []}})
            reply = channel.recv()
            assert reply["op"] == "error"
            assert reply["code"] == "PermissionDenied"
            # reads under the kpi grant work
            channel.send({"op": "ctl.call", "id": 3, "service": "kpi",
                          "request": {"kind": "read-model-property", "model": "tank",
                                      "element": "main", "property": "capacity"}})
            reply = channel.recv()
            assert reply["op"] == "result" and reply["value"] == 10.0
        finally:
            channel.close()

    @pytest.mark.parametrize("msg", [
        {"op": "ctl.history", "selector": {"tick_from": [1]}},
        {"op": "ctl.history", "selector": {"tick_from": "1"}},
        {"op": "ctl.history", "selector": ["x"]},
        {"op": "ctl.invoke", "gateway": ["tank01"], "function": "flush", "args": []},
        {"op": "ctl.invoke", "gateway": "tank01", "function": "flush", "args": 5},
        {"op": "ctl.call", "service": ["kpi"],
         "request": {"kind": "read-model-property", "model": "tank", "element": "main",
                     "property": "capacity"}},
        {"op": "ctl.call", "service": "kpi", "request": ["x"]},
        {"op": [1]},
        {},
    ], ids=["tick-list", "tick-text", "selector-list", "invoke-gateway-list",
            "invoke-args-int", "call-service-list", "call-request-list", "op-list", "no-op"])
    def test_malformed_request_gets_a_protocol_error(self, running_twin, msg):
        from twinrt.wire import connect_channel

        _, endpoint = running_twin
        channel = connect_channel(endpoint)
        try:
            reply = channel.request(dict(msg, id=1), timeout=5)
            assert (reply["op"], reply["code"]) == ("error", "ProtocolError")
            # the connection survives and answers the next request
            status = channel.request({"op": "ctl.status", "id": 2}, timeout=5)
            assert status["op"] == "status" and status["twin"] == "demo-tank"
        finally:
            channel.close()


class TestControlBetweenTicks:
    def test_control_clients_add_no_thread_and_the_runtime_has_no_lock(self, tmp_path):
        import twinrt.runtime as runtime_mod
        import twinrt.wire as wire_mod
        from twinrt.wire import connect_channel

        runtime = TwinRuntime(config_mod.load(DEMO_CONFIG), journal_path=tmp_path / "j.ndjson")
        before = set(threading.enumerate())
        endpoint = runtime.start_control("tcp://127.0.0.1:0")
        channels = [connect_channel(endpoint) for _ in range(3)]
        try:
            for i, channel in enumerate(channels):
                channel.send({"op": "ctl.status", "id": i})
            runtime.serve_control()
            assert [channel.recv()["id"] for channel in channels] == [0, 1, 2]
            assert set(threading.enumerate()) - before == set()
        finally:
            for channel in channels:
                channel.close()
            runtime.close()
        assert not hasattr(runtime, "lock")
        assert "threading" not in vars(runtime_mod) and "threading" not in vars(wire_mod)

    def test_a_status_sent_mid_scenario_is_answered_after_the_next_tick(self, tmp_path):
        from twinrt.wire import connect_channel

        runtime = TwinRuntime(config_mod.load(DEMO_CONFIG), journal_path=tmp_path / "j.ndjson")
        endpoint = runtime.start_control("tcp://127.0.0.1:0")
        channel = connect_channel(endpoint)
        runner = ScenarioRunner(runtime)
        try:
            runner.run(scenario_mod.loads("- tick: 2\n"))
            channel.send({"op": "ctl.status", "id": 1})
            with pytest.raises(TimeoutError):  # nothing serves the socket during a step
                channel.recv(time.monotonic() + 0.2)
            runner.run(scenario_mod.loads("- tick\n"))
            assert channel.recv(time.monotonic() + 5) == {
                "op": "status", "id": 1, "twin": "demo-tank", "tick": 3}
        finally:
            channel.close()
            runtime.close()

    def test_timer_mode_answers_control_requests_while_it_waits(self):
        import subprocess
        import sys

        from twinrt.wire import connect_channel

        proc = subprocess.Popen(
            [sys.executable, "-m", "twinrt.cli", "run", "--config", str(DEMO_CONFIG),
             "--timer", "10", "--max-ticks", "200", "--control", "tcp://127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            endpoint = proc.stdout.readline().split()[-1]
            channel = connect_channel(endpoint)
            try:
                ticks = [channel.request({"op": "ctl.status", "id": i}, timeout=5)["tick"]
                         for i in range(3)]
            finally:
                channel.close()
            assert ticks == sorted(ticks) and 0 <= ticks[0] and ticks[-1] <= 200
        finally:
            out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err


class TestListenFailures:
    @pytest.fixture()
    def busy(self):
        import socket

        sock = socket.create_server(("127.0.0.1", 0))
        yield f"tcp://127.0.0.1:{sock.getsockname()[1]}"
        sock.close()

    def test_run_with_a_busy_control_address_exits_1(self, capsys, busy, tmp_path):
        script = tmp_path / "s.yaml"
        script.write_text("- tick\n")
        assert main(["run", "--config", str(DEMO_CONFIG), "--script", str(script),
                     "--control", busy]) == 1
        assert f"error: cannot listen on {busy}" in capsys.readouterr().err

    def test_a_simulated_gateway_on_a_busy_endpoint_fails_the_runtime(self, busy, tmp_path):
        from twinrt.errors import ConnectFailed

        config = tmp_path / "busy.yaml"
        config.write_text(DEMO_CONFIG.read_text().replace(
            "endpoint: tcp://127.0.0.1:0", f"endpoint: {busy}"))
        with pytest.raises(ConnectFailed, match=f"cannot listen on {busy}"):
            TwinRuntime(config_mod.load(config), journal_path=tmp_path / "j.ndjson")


class TestExternalAsset:
    def test_runtime_drives_a_separate_asset_process(self, tmp_path):
        import subprocess
        import sys

        proc = subprocess.Popen(
            [sys.executable, "-m", "twinrt.asset", "--listen", "tcp://127.0.0.1:0",
             "--model", "tank", "--step-ms", "100", "--param", "valve=1.0"],
            stdout=subprocess.PIPE, text=True)
        try:
            endpoint = proc.stdout.readline().split(" ", 1)[1].strip()
            # external asset: point the gateway at the process, drop simulate
            doc = yaml.safe_load(DEMO_CONFIG.read_text())
            gateway = doc["gateways"][0]
            gateway["endpoint"] = endpoint
            del gateway["simulate"]
            config_path = tmp_path / "external.yaml"
            config_path.write_text(yaml.safe_dump(doc))
            script = tmp_path / "s.yaml"
            script.write_text("""
steps:
  - tick: 3
  - expect-model: {model: tank, element: main, property: level,
                   value: 0.30000000000000004}
  - asset-set: {gateway: tank01, property: level, value: 5.0}
  - tick: 1
  - expect-model: {model: tank, element: main, property: level, value: 5.1}
""")
            code = main(["scenario", str(script), "--config", str(config_path),
                         "--journal", str(tmp_path / "j.ndjson")])
            assert code == 0
        finally:
            proc.terminate()
            proc.communicate(timeout=5)


class _FakeClock:
    """Stands in for the ``time`` module in the CLI: sleeping advances ``now``."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class TestRunTimerMode:
    @pytest.mark.parametrize("flags,flag", [
        (["--timer", "-50"], "--timer"),
        (["--timer", "0"], "--timer"),
        (["--timer", "5", "--max-ticks", "-2"], "--max-ticks"),
        (["--timer", "5", "--max-ticks", "0"], "--max-ticks"),
    ])
    def test_a_flag_below_one_is_a_usage_error(self, capsys, flags, flag):
        assert main(["run", "--config", str(DEMO_CONFIG), *flags]) == 2
        captured = capsys.readouterr()
        assert f"{flag} must be a positive integer" in captured.err
        assert "running" not in captured.out

    def test_timer_mode_with_max_ticks(self, capsys, tmp_path):
        code = main(["run", "--config", str(DEMO_CONFIG), "--timer", "5",
                     "--max-ticks", "3", "--journal", str(tmp_path / "j.ndjson")])
        assert code == 0
        journal = (tmp_path / "j.ndjson").read_text().splitlines()
        assert len(journal) >= 3  # one pull per tick at least

    @pytest.mark.parametrize("tick_s,sleeps", [
        (0.03125, [0.125, 0.09375, 0.09375, 0.09375]),  # each tick sleeps off the rest
        (0.25, [0.125, 0.0, 0.0, 0.0]),  # overrunning ticks never sleep a negative time
    ])
    def test_timer_ticks_on_a_fixed_schedule(self, monkeypatch, capsys, tick_s, sleeps):
        clock = _FakeClock()
        real_tick = TwinRuntime.tick

        def timed_tick(runtime):
            decisions = real_tick(runtime)
            clock.now += tick_s
            return decisions

        monkeypatch.setattr(cli_mod, "time", clock)
        monkeypatch.setattr(TwinRuntime, "tick", timed_tick)
        assert main(["run", "--config", str(DEMO_CONFIG), "--timer", "125",
                     "--max-ticks", "4"]) == 0
        assert clock.sleeps == sleeps

    def test_ticks_after_idling_past_the_connect_timeout_are_not_suspended(self, tmp_path):
        runtime = TwinRuntime(config_mod.load(DEMO_CONFIG), journal_path=tmp_path / "j.ndjson",
                              connect_timeout=0.2)
        try:
            time.sleep(0.5)
            runtime.advance(2)
            reasons = [d.reason for d in runtime.engine.decisions]
            assert reasons and SyncReason.SUSPENDED not in reasons
        finally:
            runtime.close()

    def test_mapping_free_config_runs_as_a_plain_digital_model(self, capsys, tmp_path):
        config = tmp_path / "bare.yaml"
        config.write_text("""
twin: bare
languages: [{id: lang, kinds: {Node: {x: real}}}]
managers: [{id: m, models: [mdl]}]
models:
  - id: mdl
    language: lang
    elements: [{id: e, kind: Node, properties: {x: 1.5}}]
""")
        assert main(["classify", "--config", str(config)]) == 0
        assert "digital-model" in capsys.readouterr().out
        assert main(["audit", "--config", str(config)]) == 0
        capsys.readouterr()
        script = tmp_path / "s.yaml"
        script.write_text("""
steps:
  - tick: 3
  - expect-model: {model: mdl, element: e, property: x, value: 1.5}
  - expect-record-count: {selector: {}, count: 0}
""")
        assert main(["scenario", str(script), "--config", str(config)]) == 0
