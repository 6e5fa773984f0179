import threading
import time

import pytest

from helpers import (
    NO_CATALOG,
    TANK_ELEMENTS,
    echo_descriptor,
    late_first_reply,
    plain_reply,
    start_scripted_tank,
    start_tank,
    tank_descriptor,
)

import twinrt.gateway as gateway_mod
from twinrt.errors import (
    CatalogMismatch,
    ConnectFailed,
    Disconnected,
    NoSuchElement,
    ProtocolError,
    ReadOnlyViolation,
    SchemaViolation,
    WrongKind,
)
from twinrt.gateway import (
    EventOccurrence,
    GatewayDescriptor,
    PropertyAccess,
    ValueSample,
    connect,
    event_decl,
    property_decl,
)


class TestConnect:
    def test_catalog_confirmed_on_connect(self, tank_server):
        handle = connect(tank_descriptor(tank_server.endpoint))
        try:
            assert handle.is_alive
            handle.ping()
        finally:
            handle.close()

    def test_zero_element_descriptor_fails_against_tank(self, tank_server):
        # empty catalog is only vacuously fine when the asset also has none
        with pytest.raises(CatalogMismatch):
            connect(GatewayDescriptor("tank01", tank_server.endpoint, ()))

    def test_zero_element_catalog_is_vacuously_equal(self):
        from twinrt.asset import AssetModel, AssetServer

        class NullModel(AssetModel):
            catalog = ()

            def state(self):
                return {}

        server = AssetServer(NullModel())
        try:
            handle = connect(GatewayDescriptor("null01", server.endpoint, ()))
            assert handle.is_alive
            handle.close()
        finally:
            server.close()

    def test_kind_mismatch_is_catalog_mismatch(self, tank_server):
        elements = list(tank_descriptor(tank_server.endpoint).elements)
        elements[1] = event_decl("valve", "real")  # declared Event, asset has Property
        with pytest.raises(CatalogMismatch) as excinfo:
            connect(GatewayDescriptor("tank01", tank_server.endpoint, tuple(elements)))
        assert any("valve" in d for d in excinfo.value.differences)

    def test_access_mismatch_is_catalog_mismatch(self, tank_server):
        elements = list(tank_descriptor(tank_server.endpoint).elements)
        elements[0] = property_decl("level", "real", PropertyAccess.READ_WRITE)
        with pytest.raises(CatalogMismatch):
            connect(GatewayDescriptor("tank01", tank_server.endpoint, tuple(elements)))

    @pytest.fixture
    def channels(self, monkeypatch):
        """Every channel ``connect`` opens."""
        opened = []
        real = gateway_mod.connect_channel
        monkeypatch.setattr(gateway_mod, "connect_channel",
                            lambda *args, **kwargs: opened.append(real(*args, **kwargs))
                            or opened[-1])
        return opened

    @pytest.mark.parametrize("name", [[1], {"a": 1}, 5, ""])
    def test_a_catalog_name_that_is_not_text_is_a_protocol_error(self, channels, name):
        catalog = [decl.to_wire() for decl in TANK_ELEMENTS]
        catalog[0]["name"] = name
        server = start_scripted_tank(catalog=catalog)
        try:
            with pytest.raises(ProtocolError, match="name must be non-empty text"):
                connect(tank_descriptor(server.endpoint))
            [channel] = channels
            assert channel._sock.fileno() == -1  # closed, not left to the collector
        finally:
            server.close()

    @pytest.mark.parametrize("catalog", [5, [5], NO_CATALOG], ids=["int", "int-entry", "missing"])
    def test_a_catalog_that_is_not_a_list_of_objects_is_a_protocol_error(self, channels,
                                                                         catalog):
        server = start_scripted_tank(catalog=catalog)
        try:
            with pytest.raises(ProtocolError, match="catalog"):
                connect(tank_descriptor(server.endpoint))
            [channel] = channels
            assert channel._sock.fileno() == -1
        finally:
            server.close()

    def test_a_name_advertised_twice_is_a_catalog_mismatch(self, channels):
        catalog = [decl.to_wire() for decl in TANK_ELEMENTS]
        server = start_scripted_tank(catalog=catalog + catalog[:1])
        try:
            with pytest.raises(CatalogMismatch) as excinfo:
                connect(tank_descriptor(server.endpoint))
            assert excinfo.value.differences == ["asset advertises 'level' more than once"]
            [channel] = channels
            assert channel._sock.fileno() == -1
        finally:
            server.close()

    def test_a_descriptor_looks_up_only_text_names(self):
        descriptor = tank_descriptor("tcp://127.0.0.1:1")
        assert descriptor.element("level") is TANK_ELEMENTS[0]
        assert [descriptor.element(name) for name in ("pressure", ["level"], {"a": 1}, 5)] \
            == [None] * 4

    def test_unreachable_endpoint(self):
        with pytest.raises(ConnectFailed):
            connect(tank_descriptor("tcp://127.0.0.1:1"), timeout=0.5)

    def test_idle_handle_outlives_its_connect_timeout(self, tank_server):
        # the timeout bounds a call's wait, never the idle time between calls
        handle = connect(tank_descriptor(tank_server.endpoint), timeout=0.2)
        try:
            time.sleep(0.5)
            handle.ping()
            assert handle.is_alive
        finally:
            handle.close()


class TestReadWrite:
    def test_read_initial_level_matches_configuration(self):
        server = start_tank(level=3.25)
        try:
            handle = connect(tank_descriptor(server.endpoint))
            sample = handle.read_property("level")
            assert sample.value == 3.25
            assert sample.element_name == "level"
            assert sample.sequence_no == 1
            handle.close()
        finally:
            server.close()

    def test_read_wrong_kind(self, tank_handle):
        with pytest.raises(WrongKind):
            tank_handle.read_property("overflow")

    def test_read_unknown_element(self, tank_handle):
        with pytest.raises(NoSuchElement):
            tank_handle.read_property("pressure")

    def test_sequence_numbers_strictly_increase(self, tank_handle):
        first = tank_handle.read_property("level")
        second = tank_handle.read_property("level")
        assert second.sequence_no > first.sequence_no

    def test_write_then_read_identity(self, tank_handle):
        tank_handle.write_property("valve", 0.5)
        assert tank_handle.read_property("valve").value == 0.5

    def test_write_read_only(self, tank_handle):
        with pytest.raises(ReadOnlyViolation):
            tank_handle.write_property("level", 1.0)

    def test_write_schema_violation(self, tank_handle):
        with pytest.raises(SchemaViolation):
            tank_handle.write_property("valve", "open")

    def test_write_nan_rejected_before_the_wire(self, tank_handle):
        with pytest.raises(SchemaViolation):
            tank_handle.write_property("valve", float("nan"))


class TestObserve:
    def test_three_steps_yield_three_ordered_samples(self, tank_server, tank_handle):
        tank_handle.write_property("valve", 1.0)
        stream = tank_handle.observe_property("level")
        tank_handle.ping()
        stream.drain()  # discard the valve-induced nothing; level unchanged so empty
        tank_server.step(3)
        tank_handle.ping()
        samples = stream.drain()
        assert len(samples) == 3
        # dt = 0.1 s, inflow 1.0, valve 1.0 -> +0.1 per step (exact Euler oracle)
        expected = [0.1, 0.2, 0.30000000000000004]
        assert [s.value for s in samples] == pytest.approx(expected, abs=0)
        seqs = [s.sequence_no for s in samples]
        assert seqs == sorted(seqs) and len(set(seqs)) == 3
        assert [s.asset_timestamp for s in samples] == [100, 200, 300]

    def test_quiescent_stream_yields_nothing(self, tank_handle):
        stream = tank_handle.observe_property("level")
        tank_handle.ping()
        assert stream.drain() == []

    def test_observe_wrong_kind(self, tank_handle):
        with pytest.raises(WrongKind):
            tank_handle.observe_property("flush")

    def test_asset_death_terminates_stream_with_cause(self, tank_server, tank_handle):
        stream = tank_handle.observe_property("level")
        tank_server.close()
        with pytest.raises(Disconnected, match="peer closed the connection|recv failed"):
            tank_handle.ping()  # reads until the connection dies
        assert not tank_handle.is_alive
        assert stream.drain() == []
        with pytest.raises(Disconnected, match="peer closed the connection|recv failed"):
            tank_handle.read_property("level")


class TestEvents:
    def test_threshold_crossing_raises_exactly_one_event(self, tank_server, tank_handle):
        stream = tank_handle.subscribe_event("overflow")
        tank_handle.write_property("valve", 1.0)
        tank_server.step(85)  # 8.5 > overflow threshold 8.0, single upward crossing
        tank_handle.ping()
        events = stream.drain()
        assert len(events) == 1
        assert events[0].name == "overflow"
        assert events[0].payload >= 8.0

    def test_unraised_event_stream_is_empty(self, tank_handle):
        stream = tank_handle.subscribe_event("overflow")
        tank_handle.ping()
        assert stream.drain() == []

    def test_two_crossings_two_occurrences_in_order(self, tank_server, tank_handle):
        stream = tank_handle.subscribe_event("overflow")
        tank_handle.write_property("valve", 1.0)
        tank_server.step(85)           # first crossing
        tank_handle.invoke_function("flush", [])  # back to 0, re-arms
        tank_server.step(85)           # second crossing
        tank_handle.ping()
        events = stream.drain()
        assert len(events) == 2
        assert events[0].asset_timestamp <= events[1].asset_timestamp

    def test_subscribe_wrong_kind(self, tank_handle):
        with pytest.raises(WrongKind):
            tank_handle.subscribe_event("level")


class TestInvoke:
    def test_flush_returns_true_and_resets_level(self, tank_server, tank_handle):
        tank_handle.write_property("valve", 1.0)
        tank_server.step(5)
        assert tank_handle.read_property("level").value > 0
        assert tank_handle.invoke_function("flush", []) is True
        assert tank_handle.read_property("level").value == 0.0

    def test_wrong_arity(self, tank_handle):
        with pytest.raises(SchemaViolation):
            tank_handle.invoke_function("flush", [1.0])

    def test_undeclared_function(self, tank_handle):
        with pytest.raises(NoSuchElement):
            tank_handle.invoke_function("selfdestruct", [])

    def test_invoke_wrong_kind(self, tank_handle):
        with pytest.raises(WrongKind):
            tank_handle.invoke_function("level", [])

    def test_echo_functions(self, echo_handle):
        assert echo_handle.invoke_function("echo", ["hello"]) == "hello"
        assert echo_handle.invoke_function("sum", [1.5, 2.25]) == 3.75


class TestPerElementOrdering:
    def test_sequences_strictly_increase_across_reads_and_observations(self, tank_server):
        # reads and pushed updates share one per-element counter per session:
        # no duplicates ever, and each delivery channel is itself ordered
        import random

        handle = connect(tank_descriptor(tank_server.endpoint))
        try:
            stream = handle.observe_property("level")
            rng = random.Random(7)
            read_seqs = {"level": [], "valve": []}
            for _ in range(60):
                roll = rng.random()
                if roll < 0.4:
                    tank_server.force_set("level", rng.random() * 10)
                elif roll < 0.7:
                    read_seqs["level"].append(handle.read_property("level").sequence_no)
                else:
                    read_seqs["valve"].append(handle.read_property("valve").sequence_no)
            handle.ping()
            pushed_seqs = [s.sequence_no for s in stream.drain()]
            for seqs in (read_seqs["level"], read_seqs["valve"], pushed_seqs):
                assert seqs == sorted(seqs)
                assert len(set(seqs)) == len(seqs)
            level_union = read_seqs["level"] + pushed_seqs
            assert len(set(level_union)) == len(level_union)
        finally:
            handle.close()


class TestKindSafetyLeavesStateUnchanged:
    def test_wrong_kind_operations_do_not_touch_asset_state(self, tank_server, tank_handle):
        tank_handle.write_property("valve", 0.25)
        before = tank_server.state()
        for bad_call in (
            lambda: tank_handle.read_property("overflow"),
            lambda: tank_handle.write_property("flush", 1.0),
            lambda: tank_handle.invoke_function("valve", []),
            lambda: tank_handle.observe_property("overflow"),
            lambda: tank_handle.subscribe_event("level"),
        ):
            with pytest.raises(WrongKind):
                bad_call()
        assert tank_server.state() == before


class TestInterleavedPushes:
    def test_pushes_routed_by_requests_keep_their_order(self, tank_server):
        # each request routes the pushes that arrived before its reply;
        # per-element order must survive
        handle = connect(tank_descriptor(tank_server.endpoint))
        try:
            stream = handle.observe_property("level")
            received = []
            for i in range(20):
                tank_server.force_set("level", float(i + 1))
                handle.read_property("valve")  # routes the update pushed before it
                received.extend(stream.drain())
                assert len(received) == i + 1
            assert [s.value for s in received] == [float(i + 1) for i in range(20)]
            seqs = [s.sequence_no for s in received]
            assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        finally:
            handle.close()


class TestPushRouting:
    def test_a_push_reaches_only_a_stream_of_its_kind(self):
        def crossed_pushes_before_pong(msg):
            if msg["op"] != "ping":
                return plain_reply(msg)
            return [{"op": "update", "element": "overflow", "value": 9.0, "ts": 0, "seq": 1},
                    {"op": "event", "element": "level", "payload": 9.0, "ts": 0},
                    {"op": "update", "element": "level", "value": 9.5, "ts": 0, "seq": 1},
                    {"op": "event", "element": "overflow", "payload": 9.5, "ts": 0},
                    plain_reply(msg)]

        server = start_scripted_tank(crossed_pushes_before_pong)
        try:
            handle = connect(tank_descriptor(server.endpoint))
            level = handle.observe_property("level")
            overflow = handle.subscribe_event("overflow")
            handle.ping()
            assert level.drain() == [ValueSample("level", 9.5, 0, 1)]
            assert overflow.drain() == [EventOccurrence("overflow", 9.5, 0)]
            assert handle.is_alive
            handle.close()
        finally:
            server.close()


class TestReceivedValuesFitTheCatalog:
    """Every value from the asset is fitted to its declared type, then checked."""

    @staticmethod
    def replying(value):
        def respond(msg):
            if msg["op"] == "read":
                return dict(plain_reply(msg), value=value)
            if msg["op"] == "ping":
                return [{"op": "update", "element": "level", "value": value, "ts": 0,
                         "seq": 1}, plain_reply(msg)]
            return plain_reply(msg)
        return respond

    def test_an_integral_number_for_a_real_is_read_as_a_real(self):
        server = start_scripted_tank(self.replying(5))
        try:
            handle = connect(tank_descriptor(server.endpoint))
            sample = handle.read_property("level")
            assert sample.value == 5.0 and type(sample.value) is float
            stream = handle.observe_property("level")
            handle.ping()
            [pushed] = stream.drain()
            assert pushed.value == 5.0 and type(pushed.value) is float
            handle.close()
        finally:
            server.close()

    def test_a_mistyped_read_is_a_schema_violation_and_the_handle_lives(self):
        server = start_scripted_tank(self.replying("high"))
        try:
            handle = connect(tank_descriptor(server.endpoint))
            with pytest.raises(SchemaViolation, match="expected real, got text"):
                handle.read_property("level")
            assert handle.is_alive
            handle.close()
        finally:
            server.close()

    @pytest.mark.parametrize("push", [
        {"op": "update", "element": "level", "value": "high", "ts": 0, "seq": 1},
        {"op": "update", "element": "level", "value": True, "ts": 0, "seq": 1},
        {"op": "event", "element": "overflow", "payload": [9.0], "ts": 0},
    ], ids=["update-text", "update-boolean", "event-list"])
    def test_a_mistyped_push_is_malformed_and_kills_the_handle(self, push):
        server = start_scripted_tank(
            lambda msg: [push, plain_reply(msg)] if msg["op"] == "ping" else plain_reply(msg))
        try:
            handle = connect(tank_descriptor(server.endpoint))
            handle.observe_property("level")
            handle.subscribe_event("overflow")
            with pytest.raises(ProtocolError, match="malformed push"):
                handle.ping()
            assert not handle.is_alive
            handle.close()
        finally:
            server.close()


class TestNoNanBoundary:
    def test_nan_from_asset_is_a_protocol_error_not_a_sample(self, echo_handle):
        # div(0, 0) computes NaN inside the asset and serializes it raw
        with pytest.raises(ProtocolError):
            echo_handle.invoke_function("div", [0.0, 0.0])
        assert not echo_handle.is_alive  # the connection is not trusted afterwards

    def test_infinity_from_asset_is_a_protocol_error(self, echo_server):
        handle = connect(echo_descriptor(echo_server.endpoint))
        try:
            with pytest.raises(ProtocolError):
                handle.invoke_function("div", [1.0, 0.0])
        finally:
            handle.close()

    def test_nan_during_observation_never_becomes_a_sample(self):
        server = start_tank()
        try:
            handle = connect(tank_descriptor(server.endpoint))
            stream = handle.observe_property("level")
            handle.ping()
            # corrupt the asset state directly: the physical side misbehaves
            server.model.level = float("nan")
            server.force_set("valve", 0.125)  # triggers a flush of changed props
            with pytest.raises(ProtocolError, match="malformed message"):
                handle.ping()  # the NaN update kills the connection
            assert not handle.is_alive
            with pytest.raises(Disconnected, match="malformed message"):
                handle.ping()
            assert all(s.value == s.value for s in stream.drain())  # no NaN delivered
            handle.close()
        finally:
            server.close()


class TestSingleReader:
    def test_pushes_between_two_reads_neither_block_the_asset_nor_get_lost(self, echo_server):
        # nothing reads the connection between requests: the pushes wait in
        # the socket buffers, which hold far more than one tick produces
        handle = connect(echo_descriptor(echo_server.endpoint))
        try:
            stream = handle.observe_property("count")
            pusher = threading.Thread(
                target=lambda: [echo_server.force_set("count", i) for i in range(1, 10001)],
                daemon=True)
            pusher.start()
            pusher.join(timeout=60)
            assert not pusher.is_alive(), "the asset blocked on a full socket buffer"
            handle.ping()
            samples = stream.drain()
            assert [s.value for s in samples] == list(range(1, 10001))
            assert [s.sequence_no for s in samples] == list(range(1, 10001))
        finally:
            handle.close()


class TestRequestTimeout:
    def test_timeout_kills_the_handle_so_a_late_reply_answers_nothing(self):
        server = start_scripted_tank(late_first_reply())
        try:
            handle = connect(tank_descriptor(server.endpoint))
            with pytest.raises(Disconnected, match="timed out"):
                handle._request({"op": "ping"}, timeout=0.1)
            assert not handle.is_alive
            # before the fix this read got the late pong of request 1: ProtocolError
            with pytest.raises(Disconnected):
                handle.read_property("level")
            time.sleep(0.6)  # the late reply has been sent by now
            with pytest.raises(Disconnected):
                handle.ping()
            handle.close()
        finally:
            server.close()

    def test_reply_id_mismatch_kills_the_handle(self):
        server = start_scripted_tank(lambda msg: dict(plain_reply(msg), id=msg["id"] + 1))
        try:
            handle = connect(tank_descriptor(server.endpoint))
            with pytest.raises(ProtocolError, match="does not match"):
                handle.ping()
            assert not handle.is_alive
            with pytest.raises(Disconnected):
                handle.ping()
            handle.close()
        finally:
            server.close()


class TestMessagesWithoutTextOp:
    @pytest.mark.parametrize("respond", [
        lambda msg: {"id": msg["id"]},
        lambda msg: {"op": 5, "id": msg["id"]},
        lambda msg: [{"element": "level", "value": 1.0, "ts": 0, "seq": 1}, plain_reply(msg)],
        lambda msg: [{"op": ["update"], "element": "level", "value": 1.0, "ts": 0, "seq": 1},
                     plain_reply(msg)],
    ], ids=["reply-no-op", "reply-op-integer", "push-no-op", "push-op-list"])
    def test_a_reply_or_push_without_text_op_kills_the_handle(self, respond):
        server = start_scripted_tank(respond)
        try:
            handle = connect(tank_descriptor(server.endpoint))
            with pytest.raises(ProtocolError, match="lacks an op"):
                handle.ping()
            assert not handle.is_alive
            handle.close()
        finally:
            server.close()

    @pytest.mark.parametrize("push, cause", [
        ({"element": "level", "value": 1.0, "ts": 0, "seq": 1}, "lacks an op"),
        ({"op": 5, "element": "level", "value": 1.0, "ts": 0, "seq": 1}, "lacks an op"),
        ({"op": "pong", "element": "level", "value": 1.0, "ts": 0, "seq": 1},
         "unexpected push op 'pong'"),
    ], ids=["no-op", "op-integer", "op-not-a-push"])
    def test_a_push_without_a_push_op_between_requests_kills_the_handle(self, push, cause):
        # the push follows the observe reply, so the next request reads it
        server = start_scripted_tank(lambda msg: [plain_reply(msg), push])
        try:
            handle = connect(tank_descriptor(server.endpoint))
            stream = handle.observe_property("level")
            with pytest.raises(ProtocolError, match=cause):
                handle.ping()
            assert not handle.is_alive
            assert stream.drain() == []
            with pytest.raises(Disconnected, match=cause):
                handle.ping()
            handle.close()
        finally:
            server.close()
