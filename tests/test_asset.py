import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from helpers import (
    build_registry,
    deep_line,
    echo_descriptor,
    start_echo,
    start_tank,
    tank_descriptor,
)

from twinrt import wire
from twinrt.asset import AssetControl, EchoModel, TankModel, build_model, parse_param
from twinrt.data import DataManager
from twinrt.engine import Direction, Engine, Mapping, Schedule, SyncReason
from twinrt.errors import (
    Disconnected,
    NoSuchElement,
    ReadOnlyViolation,
    SchemaViolation,
    TwinError,
)
from twinrt.gateway import connect
from twinrt.wire import LineChannel, connect_channel


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

    @pytest.mark.parametrize("name, bad", [("valve", "0.5"), ("capacity", True),
                                           ("noise", None), ("inflow", [1.0])])
    def test_tank_parameters_are_numbers_as_written(self, name, bad):
        assert getattr(build_model("tank", seed=0, params={name: 3}), name) == 3.0
        with pytest.raises(ValueError, match=f"parameter {name} must be a number"):
            build_model("tank", seed=0, params={name: bad})

    @pytest.mark.parametrize("name, bad", [("valve", float("nan")), ("capacity", float("inf")),
                                           ("level", float("-inf")), ("inflow", 10 ** 400)])
    def test_tank_parameters_are_finite(self, name, bad):
        with pytest.raises(ValueError, match=f"parameter {name} must be a finite number"):
            build_model("tank", seed=0, params={name: bad})

    def test_echo_takes_no_parameters(self):
        assert isinstance(build_model("echo", seed=3, params={}), EchoModel)
        with pytest.raises(TypeError, match="whatever"):
            build_model("echo", seed=0, params={"whatever": [1]})


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
        channel = connect_channel(tank_server.endpoint)
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
        channel = connect_channel(tank_server.endpoint)
        try:
            reply = channel.request(msg, timeout=5)
            assert (reply["op"], reply["code"], reply["id"]) == ("error", "PROTOCOL", 3)
            assert channel.request({"op": "ping", "id": 4}, timeout=5) == {"op": "pong", "id": 4}
        finally:
            channel.close()


class TestLineNestedTooDeep:
    def test_it_closes_that_session_alone(self, tank_server):
        deep = connect_channel(tank_server.endpoint)
        other = connect_channel(tank_server.endpoint)
        try:
            assert other.request({"op": "ping", "id": 1}, timeout=5) == {"op": "pong", "id": 1}
            deep.send_raw(deep_line(3000, b'"id":1,"op":"ping"'))
            with pytest.raises(Disconnected):
                deep.recv(time.monotonic() + 5)
            assert other.request({"op": "ping", "id": 2}, timeout=5) == {"op": "pong", "id": 2}
        finally:
            deep.close()
            other.close()


class TestNoCatalogRequest:
    def test_a_list_request_gets_a_protocol_error(self, tank_server):
        # the hello-ack is the one place a catalog crosses the wire
        channel = connect_channel(tank_server.endpoint)
        try:
            reply = channel.request({"op": "list", "id": 1}, timeout=5)
            assert (reply["op"], reply["code"], reply["id"]) == ("error", "PROTOCOL", 1)
            assert reply["message"] == "unknown op 'list'"
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
            gone = connect_channel(server.endpoint)
            gone.send({"op": "observe", "id": 1, "element": "level"})
            assert gone.recv()["op"] == "ack"
            handle = connect(tank_descriptor(server.endpoint))
            stream = handle.observe_property("level")
            # nothing serves the asset before the step, so the reset session
            # is still registered when the step pushes to it
            gone._sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            gone.close()  # the peer sees a reset
            server.step(20)
            handle.ping()
            assert [s.asset_timestamp for s in stream.drain()] == [100 * (i + 1)
                                                                   for i in range(20)]
            handle.close()
        finally:
            server.close()


@pytest.fixture
def sends(monkeypatch):
    """Every ``send`` and ``sendall`` on a socket, as (socket, bytes sent)."""
    calls = []

    def recording(name):
        method = getattr(socket.socket, name)

        def recorded(sock, data, *flags):
            sent = method(sock, data, *flags)  # sendall returns None
            calls.append((sock, bytes(data if sent is None else data[:sent])))
            return sent
        return recorded

    for name in ("send", "sendall"):
        monkeypatch.setattr(socket.socket, name, recording(name))
    return calls


class TestOneWritePerRequest:
    """The pushes a request causes to its own session leave with its reply,
    in one write; every other push leaves with the next write to its
    session."""

    @staticmethod
    def observer(server, element: str) -> LineChannel:
        channel = connect_channel(server.endpoint)
        reply = channel.request({"op": "observe", "id": 1, "element": element}, timeout=5)
        assert reply == {"op": "ack", "id": 1, "ts": 0}
        return channel

    def test_a_write_of_an_observed_property_is_one_send_of_update_then_ack(
            self, tank_server, sends):
        writer = self.observer(tank_server, "valve")
        try:
            (served,) = tank_server._sessions  # the server's end of the connection
            del sends[:]
            writer.send({"op": "write", "id": 2, "element": "valve", "value": 0.5})
            assert writer.recv(time.monotonic() + 5)["op"] == "update"
            assert writer.recv(time.monotonic() + 5) == {"op": "ack", "id": 2, "ts": 0}
            assert [raw for sock, raw in sends if sock is served._sock] == [
                b'{"element":"valve","op":"update","seq":1,"ts":0,"value":0.5}\n'
                b'{"id":2,"op":"ack","ts":0}\n']
        finally:
            writer.close()

    def test_another_observer_can_read_the_update_before_it_sends_anything(self, tank_server):
        other = self.observer(tank_server, "valve")
        writer = connect_channel(tank_server.endpoint)
        try:
            reply = writer.request({"op": "write", "id": 1, "element": "valve", "value": 0.5},
                                   timeout=5)
            assert reply == {"op": "ack", "id": 1, "ts": 0}
            assert other.recv(time.monotonic() + 5) == {
                "op": "update", "element": "valve", "value": 0.5, "ts": 0, "seq": 1}
        finally:
            writer.close()
            other.close()

    def test_a_push_from_an_in_process_step_can_be_read_at_once(self, tank_server):
        tank_server.force_set("valve", 1.0)
        observer = self.observer(tank_server, "level")
        try:
            tank_server.step()
            assert observer.recv(time.monotonic() + 5) == {
                "op": "update", "element": "level", "value": 0.1, "ts": 100, "seq": 1}
        finally:
            observer.close()


class TestNoThread:
    def test_a_server_with_three_connections_starts_no_thread(self):
        before = set(threading.enumerate())
        server = start_tank()
        controls = [AssetControl(server.endpoint) for _ in range(3)]
        try:
            for control in controls:
                control.step()  # each connection has been accepted and served
            assert set(threading.enumerate()) - before == set()
            assert server.timestamp == 300
        finally:
            for control in controls:
                control.close()
            server.close()


class TestOneThread:
    """An in-process asset runs on the thread of whichever client waits on
    it; its pushes and replies leave from per-connection buffers."""

    def test_a_step_push_and_the_next_pong_leave_in_one_send(self, sends):
        server = start_tank(valve=1.0)
        handle = connect(tank_descriptor(server.endpoint))
        try:
            stream = handle.observe_property("level")
            (served,) = server._sessions  # the server's end of the twin's connection
            del sends[:]
            server.step()
            handle.ping()
            assert [raw for sock, raw in sends if sock is served._sock] == [
                b'{"element":"level","op":"update","seq":1,"ts":100,"value":0.1}\n'
                b'{"id":2,"op":"pong"}\n']
            assert [s.value for s in stream.drain()] == [0.1]
        finally:
            handle.close()
            server.close()

    def test_an_observer_that_does_not_read_holds_up_no_other_session(self):
        count = 100_000
        server = start_tank(valve=1.0, capacity=1e9)
        observer = connect_channel(server.endpoint)
        other = connect(tank_descriptor(server.endpoint))
        took = []

        def step_then_ping():
            server.step(count)
            started = time.monotonic()
            other.ping()
            took.append(time.monotonic() - started)

        try:
            assert observer.request({"op": "observe", "id": 1, "element": "level"},
                                    timeout=5)["op"] == "ack"
            worker = threading.Thread(target=step_then_ping, daemon=True)
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive(), "the asset blocked on an observer that does not read"
            assert took and took[0] < 1.0
            pushes = [observer.recv(time.monotonic() + 10) for _ in range(count)]
            assert [p["seq"] for p in pushes] == list(range(1, count + 1))
            assert [p["ts"] for p in pushes] == [100 * (i + 1) for i in range(count)]
        finally:
            observer.close()
            other.close()
            server.close()

    def test_a_backlog_over_the_cap_drops_only_that_connection(self):
        server = start_echo()
        registry = build_registry()
        engine = Engine(registry, DataManager(resolver=registry.resolve))
        handle = connect(echo_descriptor(server.endpoint))
        engine.add_gateway(handle)
        engine.add_mapping(Mapping("m-gain", "tank", "main", "level", "echo01", "gain",
                                   Direction.AS_TO_DT, Schedule(every=1)))
        other = connect_channel(server.endpoint)
        pad, count, batch = "x" * 10_000, 4_000, 100
        received = []

        def flood():
            # the twin reads nothing between its requests; the other session
            # reads each batch of pushes as it comes
            for i in range(count):
                server.force_set("pad", f"{i:05d}{pad}")
                while len(received) < (i + 1) // batch * batch:
                    received.append(other.recv(time.monotonic() + 5)["value"][:5])

        try:
            handle.observe_property("pad")
            assert other.request({"op": "observe", "id": 1, "element": "pad"},
                                 timeout=5)["op"] == "ack"
            worker = threading.Thread(target=flood, daemon=True)
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive(), "the asset blocked on a connection that does not read"
            assert received == [f"{i:05d}" for i in range(count)]
            assert len(server._sessions) == 1  # the twin's session is gone
            decisions = engine.tick(1)
            assert [(d.mapping_id, d.reason) for d in decisions] == [
                ("m-gain", SyncReason.SUSPENDED)]
            with pytest.raises(Disconnected):
                handle.ping()
            assert count * len(pad) > 2 * wire.MAX_BACKLOG_BYTES  # past the cap and the kernel's buffers
        finally:
            engine.close()
            other.close()
            server.close()


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

    def test_a_push_between_two_requests_does_not_hold_up_the_next_reply(self):
        # without TCP_NODELAY each pong waits behind the unacknowledged push
        # for the twin's delayed ACK, about 40 ms a round
        proc, endpoint = self._spawn("--model", "tank", "--param", "valve=0.5")
        try:
            handle = connect(tank_descriptor(endpoint))
            control = AssetControl(endpoint)
            try:
                stream = handle.observe_property("level")
                started = time.monotonic()
                for _ in range(40):
                    control.step(1)
                    handle.ping()
                elapsed = time.monotonic() - started
                assert len(stream.drain()) == 40  # each round pushed its level
            finally:
                handle.close()
                control.close()
        finally:
            proc.terminate()
            proc.communicate(timeout=5)
        assert elapsed < 0.5

    def test_bad_param_is_a_usage_error(self):
        for args, fragment in ((["--param", "thrust=9000"], "thrust"),
                               (["--param", "valve=open"], "valve"),
                               (["--param", "valve=nan", "--param", "capacity=inf"],
                                "parameter valve must be a finite number, got nan"),
                               (["--param", "capacity=-inf"],
                                "parameter capacity must be a finite number, got -inf"),
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
        with pytest.raises(Disconnected, match="peer closed the connection|recv failed"):
            handle.ping()  # reads until the connection dies
        assert not handle.is_alive
        assert stream.drain() == []
        with pytest.raises(Disconnected, match="peer closed the connection|recv failed"):
            handle.ping()
        handle.close()
