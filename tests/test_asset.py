import socket
import struct
import subprocess
import sys
import threading

import pytest

from helpers import start_tank, tank_descriptor

from twinrt.asset import AssetControl, EchoModel, TankModel, build_model, parse_param
from twinrt.errors import NoSuchElement, ReadOnlyViolation, SchemaViolation, TwinError
from twinrt.gateway import connect
from twinrt.wire import LineChannel, parse_endpoint


def euler_levels(steps: int, dt: float, valve: float, inflow: float = 1.0,
                 outflow: float = 0.0, level: float = 0.0,
                 capacity: float = 10.0) -> list[float]:
    """Independent fixed-step Euler oracle for the tank dynamics."""
    out = []
    for _ in range(steps):
        level = level + dt * (inflow * valve - outflow)
        level = min(max(level, 0.0), capacity)
        out.append(level)
    return out


class TestTankModel:
    def test_dynamics_match_euler_oracle_exactly(self):
        tank = TankModel(valve=0.7, inflow=1.2, outflow=0.1)
        got = []
        for _ in range(50):
            tank.step(0.1)
            got.append(tank.level)
        assert got == euler_levels(50, 0.1, valve=0.7, inflow=1.2, outflow=0.1)

    def test_level_clamps_at_capacity_and_zero(self):
        tank = TankModel(valve=1.0, capacity=1.0)
        for _ in range(20):
            tank.step(0.1)
        assert tank.level == 1.0
        tank.valve = 0.0
        tank.outflow = 1.0
        for _ in range(20):
            tank.step(0.1)
        assert tank.level == 0.0

    def test_overflow_event_only_on_upward_crossing(self):
        tank = TankModel(valve=1.0, overflow_level=0.25)
        tank.step(0.1)
        tank.step(0.1)
        assert tank.pop_events() == []
        tank.step(0.1)  # 0.3 >= 0.25: crossing
        assert tank.pop_events() == [("overflow", tank.level)]
        tank.step(0.1)  # still above: no repeat
        assert tank.pop_events() == []

    def test_flush_resets_level(self):
        tank = TankModel(level=5.0)
        assert tank.invoke("flush", []) is True
        assert tank.level == 0.0

    def test_write_access_control(self):
        tank = TankModel()
        with pytest.raises(ReadOnlyViolation):
            tank.write("level", 1.0)
        tank.write("valve", 0.5)
        assert tank.valve == 0.5

    def test_force_set_bypasses_access_but_not_schema(self):
        tank = TankModel()
        tank.force_set("level", 9.5)
        assert tank.level == 9.5
        with pytest.raises(SchemaViolation):
            tank.force_set("level", "high")

    def test_noise_is_seed_deterministic(self):
        a = TankModel(valve=1.0, noise=0.01, seed=42)
        b = TankModel(valve=1.0, noise=0.01, seed=42)
        for _ in range(10):
            a.step(0.1)
            b.step(0.1)
        assert a.level == b.level


class TestEchoModel:
    def test_properties_round_trip_all_types(self):
        echo = EchoModel()
        echo.write("pad", "abc")
        echo.write("gain", 2.5)
        echo.write("count", 7)
        echo.write("lit", True)
        assert echo.state() == {"pad": "abc", "gain": 2.5, "count": 7, "lit": True}

    def test_type_mismatches_rejected(self):
        echo = EchoModel()
        with pytest.raises(SchemaViolation):
            echo.write("count", 1.5)
        with pytest.raises(SchemaViolation):
            echo.write("lit", 1)

    def test_raise_event_validates(self):
        echo = EchoModel()
        echo.raise_event("pulse", 3)
        assert echo.pop_events() == [("pulse", 3)]
        with pytest.raises(SchemaViolation):
            echo.raise_event("pulse", "x")
        with pytest.raises(NoSuchElement):
            echo.raise_event("boom", 1)

    def test_div_produces_non_finite_floats(self):
        echo = EchoModel()
        assert echo.invoke("div", [1.0, 0.0]) == float("inf")
        nan = echo.invoke("div", [0.0, 0.0])
        assert nan != nan


class TestParams:
    @pytest.mark.parametrize("text,expected", [
        ("valve=0.5", ("valve", 0.5)),
        ("capacity=10", ("capacity", 10)),
        ("name=tank", ("name", "tank")),
        ("lit=true", ("lit", True)),
        ("lit=False", ("lit", False)),
    ])
    def test_parse_param(self, text, expected):
        assert parse_param(text) == expected

    def test_parse_param_requires_equals(self):
        with pytest.raises(ValueError):
            parse_param("valve")

    def test_build_model(self):
        tank = build_model("tank", seed=0, params={"valve": 0.25})
        assert isinstance(tank, TankModel) and tank.valve == 0.25
        with pytest.raises(ValueError):
            build_model("reactor", seed=0, params={})


class TestAssetControl:
    def test_control_ops_over_the_wire(self, tank_server):
        control = AssetControl(tank_server.endpoint)
        try:
            control.force_set("valve", 1.0)
            control.step(3)
            state = control.state()
            assert state["valve"] == 1.0
            assert state["level"] == pytest.approx(0.30000000000000004, abs=0)
            control.raise_event("overflow", 9.0)
        finally:
            control.close()

    def test_control_rejects_bad_element(self, tank_server):
        control = AssetControl(tank_server.endpoint)
        try:
            with pytest.raises(NoSuchElement):
                control.force_set("pressure", 1.0)
        finally:
            control.close()

    def test_control_raises_what_the_asset_raises(self, tank_server):
        # the reply's code names the class; a controlled asset and an
        # in-process one fail alike
        control = AssetControl(tank_server.endpoint)
        try:
            for act in (lambda owner: owner.force_set("pressure", 1.0),
                        lambda owner: owner.force_set("level", "full"),
                        lambda owner: owner.raise_event("level", 1.0)):
                with pytest.raises(TwinError) as in_process:
                    act(tank_server)
                with pytest.raises(TwinError) as controlled:
                    act(control)
                assert type(controlled.value) is type(in_process.value)
        finally:
            control.close()


class TestStepCount:
    @pytest.mark.parametrize("count", ["x", [1], 1.5, True, 0, -3],
                             ids=["text", "list", "real", "bool", "zero", "negative"])
    def test_a_count_that_is_not_a_positive_integer_is_refused(self, tank_server, count):
        channel = LineChannel(socket.create_connection(parse_endpoint(tank_server.endpoint)))
        try:
            reply = channel.request({"op": "ctl.step", "id": 1, "count": count}, timeout=5)
            assert (reply["op"], reply["code"]) == ("error", "PROTOCOL")
            state = channel.request({"op": "ctl.state", "id": 2}, timeout=5)
            assert state["ts"] == 0 and tank_server.timestamp == 0
            assert channel.request({"op": "ping", "id": 3}, timeout=5) == {"op": "pong", "id": 3}
        finally:
            channel.close()


class TestRequestWithoutTextOp:
    @pytest.mark.parametrize("msg", [{"op": 5, "id": 3}, {"op": None, "id": 3}, {"id": 3}],
                             ids=["integer", "null", "missing"])
    def test_it_gets_a_protocol_error_and_the_connection_stays_open(self, tank_server, msg):
        channel = LineChannel(socket.create_connection(parse_endpoint(tank_server.endpoint)))
        try:
            reply = channel.request(msg, timeout=5)
            assert (reply["op"], reply["code"], reply["id"]) == ("error", "PROTOCOL", 3)
            assert channel.request({"op": "ping", "id": 4}, timeout=5) == {"op": "pong", "id": 4}
        finally:
            channel.close()


class TestTimestamps:
    def test_timestamp_is_steps_times_step_ms(self):
        server = start_tank(step_ms=250)
        try:
            assert server.timestamp == 0
            server.step(4)
            assert server.timestamp == 1000
        finally:
            server.close()


class TestPushFanOut:
    def test_an_observer_reset_mid_step_drops_only_that_observer(self):
        server = start_tank(valve=1.0)
        try:
            gone = LineChannel(socket.create_connection(parse_endpoint(server.endpoint)))
            gone.send({"op": "observe", "id": 1, "element": "level"})
            assert gone.recv()["op"] == "ack"
            handle = connect(tank_descriptor(server.endpoint))
            stream = handle.observe_property("level")
            # holding the lock keeps the reset session registered until the step
            with server._lock:
                gone._sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                      struct.pack("ii", 1, 0))
                gone.close()  # the peer sees a reset
                server.step(20)
            handle.ping()
            assert [s.asset_timestamp for s in stream.drain()] == [100 * (i + 1)
                                                                   for i in range(20)]
            handle.close()
        finally:
            server.close()


class TestOneLoopThread:
    def test_a_server_with_three_connections_runs_one_thread(self):
        before = set(threading.enumerate())
        server = start_tank()
        controls = [AssetControl(server.endpoint) for _ in range(3)]
        try:
            for control in controls:
                control.step()  # each connection has been accepted and served
            assert len(set(threading.enumerate()) - before) == 1
            assert server.timestamp == 300
        finally:
            for control in controls:
                control.close()
            server.close()
        assert set(threading.enumerate()) - before == set()  # close() joins the loop


class TestAssetProcess:
    """The asset must be separately runnable; drive it as a real subprocess."""

    def _spawn(self, *args):
        proc = subprocess.Popen(
            [sys.executable, "-m", "twinrt.asset", "--listen", "tcp://127.0.0.1:0", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline().strip()
        assert line.startswith("listening "), line
        return proc, line.split(" ", 1)[1]

    def test_subprocess_serves_the_gateway_protocol(self):
        proc, endpoint = self._spawn("--model", "tank", "--step-ms", "100",
                                     "--seed", "1", "--param", "valve=1.0")
        try:
            handle = connect(tank_descriptor(endpoint))
            control = AssetControl(endpoint)
            control.step(2)
            assert handle.read_property("level").value == pytest.approx(0.2, abs=0)
            handle.close()
            control.close()
        finally:
            proc.terminate()
            proc.communicate(timeout=5)

    def test_connect_starts_no_thread(self):
        # the asset runs in its own process, so every new thread would be the twin's
        proc, endpoint = self._spawn("--model", "tank")
        try:
            before = set(threading.enumerate())
            handle = connect(tank_descriptor(endpoint))
            handle.observe_property("level")
            handle.ping()
            assert set(threading.enumerate()) - before == set()
            handle.close()
        finally:
            proc.terminate()
            proc.communicate(timeout=5)

    def test_bad_param_is_a_usage_error(self):
        for args, fragment in ((["--param", "thrust=9000"], "thrust"),
                               (["--step-ms", "0"], "step_ms")):
            proc = subprocess.run(
                [sys.executable, "-m", "twinrt.asset", "--listen", "tcp://127.0.0.1:0",
                 "--model", "tank", *args],
                capture_output=True, text=True, timeout=30)
            assert proc.returncode == 2, args
            assert fragment in proc.stderr

    def test_a_busy_listen_address_is_a_usage_error(self):
        busy = socket.create_server(("127.0.0.1", 0))
        try:
            endpoint = f"tcp://127.0.0.1:{busy.getsockname()[1]}"
            proc = subprocess.run([sys.executable, "-m", "twinrt.asset", "--listen", endpoint],
                                  capture_output=True, text=True, timeout=30)
        finally:
            busy.close()
        assert proc.returncode == 2
        assert f"cannot listen on {endpoint}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_killed_process_disconnects_streams(self):
        proc, endpoint = self._spawn("--model", "tank")
        handle = connect(tank_descriptor(endpoint))
        stream = handle.observe_property("level")
        proc.kill()
        proc.communicate(timeout=5)
        assert stream.get(timeout=5) is None  # reads until the connection dies
        assert stream.end_cause == "disconnected"
        handle.close()
