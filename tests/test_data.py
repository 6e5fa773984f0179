import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinrt.data import (
    _MAX_PROPERTY_SETS,
    HISTORICAL,
    LIVE,
    PROCESSED,
    RAW,
    DataManager,
    DataProperty,
    ModelElementRef,
    PropertyType,
    Selector,
    last_update,
    origin_actual_system,
    origin_operator,
    origin_service,
    processing,
    timeliness,
)
from twinrt.errors import (
    CorruptJournal,
    DanglingModelRef,
    MissingMandatoryProperty,
    SchemaViolation,
    StorageFailure,
    TwinError,
)
from twinrt.runtime import DecisionLog

LEVEL_REF = ModelElementRef("tank", "main", "level")
VALVE_REF = ModelElementRef("tank", "main", "valve_target")


def count_calls(monkeypatch, method: str) -> list:
    """Record the argument of every call to ``Selector.<method>``."""
    calls = []
    original = getattr(Selector, method)

    def counting(selector, arg):
        calls.append(arg)
        return original(selector, arg)

    monkeypatch.setattr(Selector, method, counting)
    return calls


def base_props(**overrides):
    props = {
        "origin": origin_actual_system("tank01"),
        "timeliness": timeliness(LIVE),
    }
    props.update(overrides)
    return list(props.values())


class TestProperties:
    def test_origin_shapes(self):
        assert origin_actual_system("g").value == {"source": "actual-system", "id": "g"}
        assert origin_service("kpi").value == {"source": "service", "id": "kpi"}
        assert origin_operator().value == {"source": "operator"}

    @pytest.mark.parametrize("ptype,bad", [
        (PropertyType.TIMELINESS, "fresh"),
        (PropertyType.PROCESSING, "cooked"),
        (PropertyType.ORIGIN, {"source": "martian"}),
        (PropertyType.ORIGIN, {"source": "service"}),      # id required
        (PropertyType.ORIGIN, {"source": "operator", "id": "x"}),
        (PropertyType.UNCERTAINTY, -0.1),
        (PropertyType.PRECISION, 0.0),
        (PropertyType.LAST_UPDATE, -1),
        (PropertyType.LAST_UPDATE, 1.5),
    ])
    def test_value_validation(self, ptype, bad):
        with pytest.raises(SchemaViolation):
            DataProperty(ptype, bad)

    def test_uncertainty_and_precision_bounds(self):
        DataProperty(PropertyType.UNCERTAINTY, 0.0)
        DataProperty(PropertyType.PRECISION, 0.001)


class TestIngest:
    def test_first_record_id_is_one(self):
        dm = DataManager()
        assert dm.ingest(1.5, base_props(last=last_update(7)), model_link=None) == 1

    def test_missing_origin(self):
        dm = DataManager()
        with pytest.raises(MissingMandatoryProperty):
            dm.ingest(1.0, [timeliness(LIVE)])

    def test_missing_timeliness(self):
        dm = DataManager()
        with pytest.raises(MissingMandatoryProperty):
            dm.ingest(1.0, [origin_operator()])

    def test_duplicate_property_type_rejected(self):
        dm = DataManager()
        with pytest.raises(SchemaViolation):
            dm.ingest(1.0, base_props() + [timeliness(HISTORICAL)])

    def test_hundred_ingests_in_call_order(self):
        # oracle: an independent counter alongside the ingest loop
        dm = DataManager()
        expected = []
        for i in range(1, 101):
            expected.append(i)
            assert dm.ingest(float(i), base_props()) == i
        assert [r.record_id for r in dm.query()] == expected

    def test_lax_mode_skips_metadata_enforcement(self):
        dm = DataManager(enforce_mandatory=False)
        assert dm.ingest(1.0, []) == 1

    def test_nan_value_rejected(self):
        dm = DataManager()
        with pytest.raises(SchemaViolation):
            dm.ingest(float("nan"), base_props())


class TestQuery:
    def make_store(self):
        dm = DataManager()
        dm.ingest(1.0, [origin_actual_system("tank01"), timeliness(LIVE),
                        processing(RAW), last_update(1)], model_link=LEVEL_REF)
        dm.ingest(2.0, [origin_actual_system("tank01"), timeliness(LIVE),
                        processing(RAW), last_update(2)], model_link=VALVE_REF)
        dm.ingest(1.5, [origin_service("kpi"), timeliness(HISTORICAL),
                        processing(PROCESSED), last_update(4)], model_link=LEVEL_REF)
        dm.ingest(9.0, [origin_operator(), timeliness(LIVE), processing(RAW),
                        last_update(9)])
        return dm

    def test_empty_selector_returns_all_in_id_order(self):
        dm = self.make_store()
        assert [r.record_id for r in dm.query()] == [1, 2, 3, 4]

    def test_origin_filter_with_no_matches(self):
        dm = DataManager()
        dm.ingest(1.0, base_props())
        assert dm.query(Selector(origin_source="service", origin_id="kpi")) == []

    def test_filters(self):
        dm = self.make_store()
        assert [r.record_id for r in dm.query(Selector(origin_source="actual-system"))] == [1, 2]
        assert [r.record_id for r in dm.query(Selector(origin_source="service",
                                                       origin_id="kpi"))] == [3]
        assert [r.record_id for r in dm.query(Selector(timeliness=HISTORICAL))] == [3]
        assert [r.record_id for r in dm.query(Selector(processing=PROCESSED))] == [3]
        assert [r.record_id for r in dm.query(Selector(model_id="tank",
                                                       property_name="level"))] == [1, 3]
        assert [r.record_id for r in dm.query(Selector(element_id="main"))] == [1, 2, 3]
        assert [r.record_id for r in dm.query(Selector(property_name="level"))] == [1, 3]
        assert [r.record_id for r in dm.query(Selector(tick_from=2, tick_to=4))] == [2, 3]

    def test_query_is_pure(self):
        dm = self.make_store()
        before = [r.to_dict() for r in dm.query()]
        dm.query(Selector(origin_source="operator"))
        dm.query(Selector(tick_from=0))
        assert [r.to_dict() for r in dm.query()] == before

    @pytest.mark.parametrize("selector", [Selector(), Selector(tick_from=1)],
                             ids=["scan", "window"])
    @pytest.mark.parametrize("limit", [0, -1])
    def test_a_limit_below_one_is_refused(self, selector, limit):
        with pytest.raises(ValueError, match=f"limit must be 1 or more, got {limit}"):
            self.make_store().query(selector, limit=limit)

    def test_a_page_tests_only_the_records_it_scans(self, monkeypatch):
        dm = DataManager()
        for i in range(20_000):
            dm.ingest(float(i), base_props(), model_link=LEVEL_REF)
        tested = count_calls(monkeypatch, "matches_link")
        selector = Selector(origin_source="actual-system", model_id="tank")
        last = dm.query(selector, after_id=19_000, limit=1_000)
        assert [r.record_id for r in last] == list(range(19_001, 20_001))
        assert len(tested) == 1_000
        first = dm.query(selector, limit=1_000)
        assert [r.record_id for r in first] == list(range(1, 1_001))
        assert len(tested) == 2_000
        # a selector that names no model, element or property tests no link
        unlinked = Selector(origin_source="actual-system")
        assert dm.query(unlinked, after_id=19_000, limit=1_000) == last
        assert dm.query(unlinked, limit=1_000) == first
        assert len(tested) == 2_000

    @pytest.mark.parametrize("history", [2_000, 20_000])
    def test_a_dashboard_window_tests_only_the_ticks_it_returns(self, monkeypatch, history):
        """A scale-fleet-shaped store: imported history at tick 0, then four
        syncs a tick. A 10-tick origin query reads only its ten ticks, whatever
        the history holds, and tests each distinct set of properties other
        than last-update once."""
        dm = DataManager()
        imported = [origin_actual_system("g1"), timeliness(HISTORICAL), last_update(0)]
        for i in range(history):
            dm.ingest(float(i), imported, model_link=ModelElementRef("fleet", f"e{i % 1000}",
                                                                     "level"))
        for tick in range(1, 31):
            origin = origin_actual_system("g0" if tick <= 25 else "g2")
            for element in ("e3", "e250", "e500", "e999"):
                dm.ingest(float(tick), [origin, timeliness(LIVE), processing(RAW),
                                        last_update(tick)],
                          model_link=ModelElementRef("fleet", element, "level"))
        tested = count_calls(monkeypatch, "matches_properties")
        links = count_calls(monkeypatch, "matches_link")
        found = dm.query(Selector(origin_source="actual-system", tick_from=16, tick_to=25))
        assert [r.record_id for r in found] == list(range(history + 61, history + 101))
        assert len(tested) == 1
        # a window across the change of origin tests each origin's set once
        found = dm.query(Selector(origin_source="actual-system", tick_from=21, tick_to=30))
        assert [r.record_id for r in found] == list(range(history + 81, history + 121))
        assert len(tested) == 3
        assert links == []
        assert dm.query(Selector(origin_id="g2", tick_from=21, tick_to=30)) == found[20:]


class TestSharing:
    """Records share repeated property tuples and links, live and reloaded."""

    def ingest_ticks(self, dm, ticks=3, per_tick=2):
        for tick in range(ticks):
            for i in range(per_tick):
                dm.ingest(float(i), [origin_actual_system("tank01"), timeliness(LIVE),
                                     processing(RAW), last_update(tick)],
                          model_link=ModelElementRef("tank", "main", "level"))

    def test_last_update_is_one_instance_per_tick_in_a_row(self):
        five = last_update(5)
        assert last_update(5) is five
        with pytest.raises(SchemaViolation):
            last_update(True)
        assert last_update(5) is five
        assert last_update(6).value == 6
        assert last_update(5) is not five  # one entry: the memo keeps the latest tick

    def test_records_of_one_tick_share_a_tuple_and_equal_links_one_ref(self, tmp_path):
        path = tmp_path / "j.ndjson"
        dm = DataManager(journal_path=path)
        self.ingest_ticks(dm)
        dm.close()
        for store in (dm, DataManager.reload(path)):
            records = store.query()
            assert [r.properties is records[0].properties for r in records] == [
                True, True, False, False, False, False]
            assert records[2].properties is records[3].properties
            assert records[4].properties is records[5].properties
            assert all(r.model_link is records[0].model_link for r in records)

    def test_equal_but_distinct_property_objects_are_not_merged(self):
        dm = DataManager()
        for _ in range(2):
            dm.ingest(1.0, [DataProperty(PropertyType.ORIGIN, {"source": "operator"}),
                            timeliness(LIVE), last_update(0)])
        first, second = dm.query()
        assert first.properties == second.properties
        assert first.properties is not second.properties

    def test_a_link_added_later_is_shared_too(self, tmp_path):
        # an equal link given at a later ingest, past an unlinked record and a tick
        path = tmp_path / "j.ndjson"
        dm = DataManager(journal_path=path)
        first = dm.ingest(1.0, base_props(), model_link=ModelElementRef("tank", "main", "level"))
        dm.ingest(2.0, base_props())
        third = dm.ingest(3.0, base_props(last=last_update(9)),
                          model_link=ModelElementRef("tank", "main", "level"))
        dm.close()
        for store in (dm, DataManager.reload(path)):
            records = store.query()
            assert records[first - 1].model_link is records[third - 1].model_link
            assert records[1].model_link is None

    def test_the_memo_holds_only_the_current_tick(self):
        dm = DataManager()
        self.ingest_ticks(dm, ticks=200, per_tick=4)
        assert len(dm._property_sets) == 1
        assert len({id(r.properties) for r in dm.query()}) == 200

    def test_the_memo_is_bounded_within_one_tick(self):
        dm = DataManager()
        for i in range(500):
            dm.ingest(float(i), base_props(extra=DataProperty(PropertyType.UNCERTAINTY, i)))
        assert 0 < len(dm._property_sets) <= 64

    def test_a_query_tests_each_distinct_key_once(self, monkeypatch):
        # five ticks of one origin hold five property tuples but one key:
        # the same properties other than last-update
        dm = DataManager()
        self.ingest_ticks(dm, ticks=5, per_tick=4)
        tested = count_calls(monkeypatch, "matches_properties")
        assert len(dm.query(Selector(origin_source="actual-system", model_id="tank"))) == 20
        assert len(tested) == 1

    def test_interleaved_tuples_are_each_tested_once(self, monkeypatch):
        dm = DataManager()
        for i in range(20):
            gateway = ("tank01", "pump02")[i % 2]
            dm.ingest(float(i), [origin_actual_system(gateway), timeliness(LIVE),
                                 last_update(7)])
        tested = count_calls(monkeypatch, "matches_properties")
        found = dm.query(Selector(origin_source="actual-system", origin_id="pump02"))
        assert [r.record_id for r in found] == list(range(2, 21, 2))
        assert len(tested) == 2


class TestLink:
    """A record is linked as it is ingested, never after."""

    def test_dangling_ref(self):
        dm = DataManager(resolver=lambda ref: False)
        with pytest.raises(DanglingModelRef):
            dm.ingest(1.0, base_props(), model_link=LEVEL_REF)
        assert dm.count() == 0

    def test_link_against_live_model_registry(self):
        # deleting the element makes a later link dangle
        from helpers import build_registry

        registry = build_registry()
        dm = DataManager(resolver=registry.resolve)
        dm.ingest(1.0, base_props(), model_link=LEVEL_REF)
        registry.apply_operator("plant", "delete_element", "tank", {"element": "main"})
        with pytest.raises(DanglingModelRef):
            dm.ingest(2.0, base_props(), model_link=LEVEL_REF)
        assert dm.count() == 1 and dm.query()[0].model_link == LEVEL_REF

    def test_a_link_is_refused_when_linkage_is_off(self):
        dm = DataManager(allow_linkage=False)
        with pytest.raises(TwinError, match="model linkage is disabled"):
            dm.ingest(1.0, base_props(), model_link=LEVEL_REF)
        assert dm.ingest(2.0, base_props()) == 1


needs_dev_full = pytest.mark.skipif(not Path("/dev/full").exists(),
                                    reason="no /dev/full, the device every write to fails")


class TestFailedWrites:
    """The journal and the decision log share one writer: a write that fails
    is a StorageFailure naming the output, and closing does not fail again."""

    @needs_dev_full
    def test_a_failed_journal_append_keeps_no_record_and_close_does_not_raise(self):
        dm = DataManager(journal_path="/dev/full")
        with pytest.raises(StorageFailure, match="journal /dev/full: .*No space left"):
            dm.ingest(1.0, base_props())
        assert dm.count() == 0
        dm.close()

    @needs_dev_full
    def test_a_failed_decision_append_and_close_does_not_raise(self):
        log = DecisionLog("/dev/full")
        with pytest.raises(StorageFailure, match="decision log /dev/full: .*No space left"):
            log({"kind": "sync", "tick": 1})
        log.close()

    def test_a_short_write_is_a_storage_failure(self, tmp_path):
        class ShortWrites:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                return self.fh.write(data[:-1])

            def flush(self):
                pass

            def close(self):
                self.fh.close()

        log = DecisionLog(tmp_path / "d.log")
        log._fh = ShortWrites(log._fh)
        with pytest.raises(StorageFailure, match="d.log: wrote 7 of 8 bytes"):
            log({"a": 1})
        log.close()


class TestReload:
    def write_store(self, path, n=3):
        """``n`` record entries; only the first is linked."""
        dm = DataManager(journal_path=path, resolver=lambda ref: True)
        for i in range(1, n + 1):
            dm.ingest(float(i), [origin_actual_system("tank01"), timeliness(LIVE),
                                 last_update(i)], model_link=LEVEL_REF if i == 1 else None)
        dm.close()
        return path

    def test_round_trip(self, tmp_path):
        path = self.write_store(tmp_path / "j.ndjson")
        reloaded = DataManager.reload(path)
        assert reloaded.count() == 3
        assert [r.record_id for r in reloaded.query()] == [1, 2, 3]
        assert reloaded.query()[0].model_link == LEVEL_REF
        assert reloaded.query()[1].model_link is None

    def test_reloaded_records_share_equal_properties_and_links(self, tmp_path):
        path = tmp_path / "j.ndjson"
        dm = DataManager(journal_path=path)
        for i, origin in enumerate([origin_service("kpi"), origin_operator(),
                                    origin_service("kpi"), origin_operator()]):
            dm.ingest(float(i), [origin, timeliness(HISTORICAL), processing(PROCESSED),
                                 last_update(i)], model_link=ModelElementRef("m", "e", "p"))
        dm.close()
        first, second, third, fourth = DataManager.reload(path).query()
        assert first.properties != second.properties
        for a, b in ((first, third), (second, fourth)):
            assert a.to_dict()["properties"] != b.to_dict()["properties"]  # last-update
            shared = [x for x, y in zip(a.properties, b.properties) if x is y]
            assert [p.property_type for p in shared] == [
                PropertyType.ORIGIN, PropertyType.PROCESSING, PropertyType.TIMELINESS]
            assert a.model_link is b.model_link
        # a copy handed out is not the shared value
        first.to_dict()["properties"]["origin"]["id"] = "changed"
        assert third.prop(PropertyType.ORIGIN) == {"source": "service", "id": "kpi"}

    def test_reload_empty_file(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_bytes(b"")
        assert DataManager.reload(path).count() == 0

    def test_reload_discards_garbage_final_line(self, tmp_path):
        path = self.write_store(tmp_path / "j.ndjson")
        with open(path, "ab") as fh:
            fh.write(b'{"op":"record","id":4,"val\n')
        reloaded = DataManager.reload(path)
        assert reloaded.count() == 3

    def test_reload_rejects_garbage_in_the_middle(self, tmp_path):
        path = self.write_store(tmp_path / "j.ndjson")
        blob = path.read_bytes()
        lines = blob.split(b"\n")
        lines[1] = b"garbage"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CorruptJournal) as excinfo:
            DataManager.reload(path)
        assert excinfo.value.line_no == 2

    @pytest.mark.parametrize("bad", ["nan", "not-an-object"])
    def test_non_finite_or_non_object_entry_is_corrupt_unless_it_is_the_tail(self, tmp_path,
                                                                            bad):
        path = self.write_store(tmp_path / "j.ndjson")
        lines = path.read_bytes().split(b"\n")
        line = lines[1].replace(b'"value":2.0', b'"value":NaN') if bad == "nan" else b"[1]"
        assert line != lines[1]
        path.write_bytes(b"\n".join(lines[:1] + [line] + lines[2:]))
        with pytest.raises(CorruptJournal) as excinfo:
            DataManager.reload(path)
        assert excinfo.value.line_no == 2
        path.write_bytes(b"\n".join(lines[:-1] + [line, b""]))  # as the last entry
        assert DataManager.reload(path).count() == 3

    def test_any_prefix_of_a_journal_reloads(self, tmp_path):
        # append-only journals are prefix-valid: cutting the file at any byte
        # yields complete entries plus a discardable torn tail; the store
        # holds 5 record lines, the first one linked
        path = self.write_store(tmp_path / "j.ndjson", n=5)
        blob = path.read_bytes()
        for cut in range(len(blob) + 1):
            path.write_bytes(blob[:cut])
            reloaded = DataManager.reload(path)
            lines = blob[:cut].count(b"\n")
            assert reloaded.count() == lines, f"offset {cut}"
            if lines:
                assert reloaded.query()[0].model_link == LEVEL_REF, f"offset {cut}"

    def test_truncation_at_every_offset_of_final_entry(self, tmp_path):
        path = self.write_store(tmp_path / "j.ndjson", n=3)
        blob = path.read_bytes()
        head, _, final_entry = blob.rstrip(b"\n").rpartition(b"\n")
        final_entry += b"\n"
        head += b"\n"
        # the records before the final one must always survive, linked as written
        for cut in range(len(final_entry)):
            path.write_bytes(head + final_entry[:cut])
            reloaded = DataManager.reload(path)
            assert reloaded.count() == 2, f"offset {cut}"
            assert reloaded.query()[0].model_link == LEVEL_REF, f"offset {cut}"

    @pytest.mark.parametrize("tail", [b"", b'{"op":"record","id":4,"va'])
    def test_a_start_on_a_journal_that_holds_bytes_is_refused(self, tmp_path, tail):
        # a second run appending to the first run's journal would restart
        # record ids at 1, and the journal would no longer replay
        path = self.write_store(tmp_path / "j.ndjson")
        path.write_bytes(path.read_bytes() + tail)
        blob = path.read_bytes()
        with pytest.raises(StorageFailure, match="j.ndjson is not empty"):
            DataManager(journal_path=path)
        assert path.read_bytes() == blob
        assert DataManager.reload(path).count() == 3

    def test_a_start_on_an_empty_journal_file_is_accepted(self, tmp_path):
        path = tmp_path / "j.ndjson"
        path.touch()
        dm = DataManager(journal_path=path)
        assert dm.ingest(1.0, base_props()) == 1
        dm.close()
        assert DataManager.reload(path).count() == 1

    def test_out_of_order_ids_are_corrupt(self, tmp_path):
        path = tmp_path / "j.ndjson"
        path.write_text(
            '{"op":"record","id":1,"value":1.0,"props":{"origin":{"source":"operator"},'
            '"timeliness":"live"},"link":null}\n'
            '{"op":"record","id":3,"value":2.0,"props":{"origin":{"source":"operator"},'
            '"timeliness":"live"},"link":null}\n'
            '{"op":"record","id":2,"value":3.0,"props":{"origin":{"source":"operator"},'
            '"timeliness":"live"},"link":null}\n')
        with pytest.raises(CorruptJournal):
            DataManager.reload(path)

    @pytest.mark.parametrize("index, rid", [(0, True), (1, 2.0), (2, "3")],
                             ids=["record-true", "record-float", "record-text"])
    def test_an_id_that_is_not_an_integer_is_corrupt(self, tmp_path, index, rid):
        path = self.write_store(tmp_path / "j.ndjson")  # records 1-3
        entries = [json.loads(line) for line in path.read_bytes().splitlines()]
        entries.append(dict(entries[2]))  # so that the entry under test is not the tail
        entries[index]["id"] = rid
        path.write_text("".join(json.dumps(entry) + "\n" for entry in entries))
        with pytest.raises(CorruptJournal) as excinfo:
            DataManager.reload(path)
        assert excinfo.value.line_no == index + 1

    def test_reload_ingests_each_entry(self, tmp_path, monkeypatch):
        path = self.write_store(tmp_path / "j.ndjson")
        ingested = []
        real = DataManager.ingest

        def ingest(self, value, *args, **kwargs):
            ingested.append(value)
            return real(self, value, *args, **kwargs)

        monkeypatch.setattr(DataManager, "ingest", ingest)
        assert DataManager.reload(path).count() == 3
        assert ingested == [1.0, 2.0, 3.0]

    def test_a_journal_without_mandatory_metadata_reloads(self, tmp_path):
        path = tmp_path / "j.ndjson"
        dm = DataManager(journal_path=path, enforce_mandatory=False)
        dm.ingest(1.0, [origin_operator()])
        dm.ingest(2.0, [last_update(4)])
        dm.close()
        reloaded = DataManager.reload(path)
        assert [r.to_dict() for r in reloaded.query()] == [r.to_dict() for r in dm.query()]

    @pytest.mark.parametrize("value, props, link", [
        pytest.param(b"9223372036854775808", b'{"origin":{"source":"operator"}}', b"null",
                     id="int-65-bit"),
        pytest.param(b"[1, -9223372036854775809]", b'{"origin":{"source":"operator"}}', b"null",
                     id="int-65-bit-in-list"),
        pytest.param(b"1.0", b"[1]", b"null", id="props-list"),
        pytest.param(b"1.0", b'{"origin":{"source":"operator"}}', b"[]", id="link-empty"),
        pytest.param(b"1.0", b'{"origin":{"source":"operator"}}', b"false", id="link-false"),
    ])
    def test_a_bad_value_props_or_link_is_corrupt_unless_it_is_the_tail(self, tmp_path, value,
                                                                        props, link):
        path = self.write_store(tmp_path / "j.ndjson")
        lines = path.read_bytes().splitlines(keepends=True)
        entry = b'{"id":%d,"link":%s,"op":"record","props":%s,"value":%s}\n'
        path.write_bytes(b"".join(lines[:1] + [entry % (2, link, props, value)] + lines[2:]))
        with pytest.raises(CorruptJournal) as excinfo:
            DataManager.reload(path)
        assert excinfo.value.line_no == 2
        path.write_bytes(b"".join(lines + [entry % (4, link, props, value)]))  # the last entry
        assert DataManager.reload(path).count() == 3

    def test_a_link_entry_is_an_unknown_op(self, tmp_path):
        # links are given at ingest only: the journal has no entry that links later
        path = self.write_store(tmp_path / "j.ndjson")
        lines = path.read_bytes().splitlines(keepends=True)
        link = b'{"id":2,"op":"link","ref":["tank","main","level"]}\n'
        path.write_bytes(b"".join(lines[:2] + [link] + lines[2:]))
        with pytest.raises(CorruptJournal, match="unknown journal op 'link'") as excinfo:
            DataManager.reload(path)
        assert excinfo.value.line_no == 3
        path.write_bytes(b"".join(lines + [link]))  # as the last entry: dropped
        reloaded = DataManager.reload(path)
        assert reloaded.count() == 3 and reloaded.query()[1].model_link is None


# --- query/oracle equivalence over random stores --------------------------------

origins = st.sampled_from([
    origin_actual_system("tank01"), origin_actual_system("pump02"),
    origin_service("kpi"), origin_operator(),
])
timelinesses = st.sampled_from([LIVE, HISTORICAL])
processings = st.sampled_from([RAW, PROCESSED, None])
links = st.sampled_from([None, LEVEL_REF, VALVE_REF,
                         ModelElementRef("boiler", "b1", "temp")])


record_spec = st.tuples(st.floats(allow_nan=False, allow_infinity=False, width=32),
                        origins, timelinesses, processings,
                        st.one_of(st.none(), st.integers(0, 20)), links)
record_specs = st.lists(record_spec, max_size=60)


def runs_of(groups: list) -> list:
    """Record specs of groups of records that share one property list."""
    return [(value, origin, timely, proc, tick, link)
            for origin, timely, proc, tick, records in groups for value, link in records]


def run_specs(min_groups: int = 0):
    """Stores of runs: 1-5 records a run, each run's ticks drawn afresh, so
    they often go backwards, and between them records without last-update."""
    records = st.tuples(st.floats(allow_nan=False, allow_infinity=False, width=32), links)
    run = st.tuples(origins, timelinesses, processings, st.integers(0, 20),
                    st.lists(records, min_size=1, max_size=5))
    untimed = st.tuples(origins, timelinesses, processings, st.none(),
                        st.lists(records, min_size=1, max_size=1))
    return st.lists(st.one_of(run, untimed), min_size=min_groups,
                    max_size=min_groups + 15).map(runs_of)


def many_key_runs():
    """Stores of more runs than the run-key memo holds: one record a run,
    whose origin names the next of ``_MAX_PROPERTY_SETS`` + 8 gateways in
    turn, so the memo starts again and its keys recur after it has."""
    gateways = _MAX_PROPERTY_SETS + 8

    def build(runs):
        return [(float(i), origin_actual_system(f"gw{i % gateways}"), LIVE, None, tick, link)
                for i, (tick, link) in enumerate(runs)]

    return st.lists(st.tuples(st.integers(0, 20), links), min_size=gateways + 8,
                    max_size=2 * gateways).map(build)


selectors = st.builds(
    Selector,
    origin_source=st.sampled_from([None, "actual-system", "service", "operator"]),
    origin_id=st.sampled_from([None, "tank01", "kpi", "gw1"]),
    timeliness=st.sampled_from([None, LIVE, HISTORICAL]),
    processing=st.sampled_from([None, RAW, PROCESSED]),
    model_id=st.sampled_from([None, "tank", "boiler"]),
    element_id=st.sampled_from([None, "main", "b1"]),
    property_name=st.sampled_from([None, "level", "temp"]),
    tick_from=st.sampled_from([None, 0, 5, 15]),
    tick_to=st.sampled_from([None, 4, 10, 25]),
)


# selectors that leave most fields open, so that pages fill up
broad_selectors = st.builds(
    Selector,
    origin_source=st.sampled_from([None, "actual-system"]),
    tick_from=st.sampled_from([None, 0, 5]),
    tick_to=st.sampled_from([None, 10, 25]),
)


# selectors that name a link field and a tick window, so that a limit is often
# met while the records of a run are tested one by one
linked_window_selectors = st.builds(
    Selector,
    model_id=st.just("tank"),
    element_id=st.sampled_from([None, "main"]),
    property_name=st.sampled_from([None, "level", "valve_target"]),
    tick_from=st.sampled_from([0, 5]),
    tick_to=st.sampled_from([None, 25]),
)


def oracle_filter(records, sel: Selector):
    """Linear-scan reference filter, written independently of ``Selector``."""
    out = []
    for r in records:
        props = {p.property_type: p.value for p in r.properties}
        origin = props.get(PropertyType.ORIGIN, {})
        if sel.origin_source is not None and origin.get("source") != sel.origin_source:
            continue
        if sel.origin_id is not None and origin.get("id") != sel.origin_id:
            continue
        if sel.timeliness is not None and props.get(PropertyType.TIMELINESS) != sel.timeliness:
            continue
        if sel.processing is not None and props.get(PropertyType.PROCESSING) != sel.processing:
            continue
        if sel.model_id is not None and (r.model_link is None
                                         or r.model_link.model_id != sel.model_id):
            continue
        if sel.element_id is not None and (r.model_link is None
                                           or r.model_link.element_id != sel.element_id):
            continue
        if sel.property_name is not None and (r.model_link is None
                                              or r.model_link.property_name != sel.property_name):
            continue
        if sel.tick_from is not None or sel.tick_to is not None:
            tick = props.get(PropertyType.LAST_UPDATE)
            if tick is None:
                continue
            if sel.tick_from is not None and tick < sel.tick_from:
                continue
            if sel.tick_to is not None and tick > sel.tick_to:
                continue
        out.append(r.record_id)
    return out


@settings(max_examples=150, deadline=None)
@given(st.one_of(record_specs, run_specs(), many_key_runs()),
       st.one_of(selectors, broad_selectors, linked_window_selectors),
       st.one_of(st.none(), st.integers(1, 5)))
def test_query_equals_linear_scan_oracle(specs, selector, limit):
    dm = DataManager()
    for value, origin, timely, proc, tick, link in specs:
        props = [origin, timeliness(timely)]
        if proc is not None:
            props.append(processing(proc))
        if tick is not None:
            props.append(last_update(tick))
        dm.ingest(value, props, model_link=link)
    got = [r.record_id for r in dm.query(selector, limit=limit)]
    assert got == oracle_filter(dm.query(), selector)[:limit]


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.lists(record_spec, min_size=10, max_size=60), run_specs(10)),
       st.one_of(selectors, broad_selectors, linked_window_selectors), st.integers(1, 5),
       st.data())
def test_pages_concatenate_to_the_unpaged_query(specs, selector, limit, data):
    start = data.draw(st.integers(0, len(specs)), label="after_id")
    dm = DataManager()
    for value, origin, timely, proc, tick, link in specs:
        props = [origin, timeliness(timely)]
        if proc is not None:
            props.append(processing(proc))
        if tick is not None:
            props.append(last_update(tick))
        dm.ingest(value, props, model_link=link)
    pages, after_id = [], start
    for _ in range(len(specs) + 1):
        page = dm.query(selector, after_id=after_id, limit=limit)
        assert len(page) <= limit
        pages += page
        if len(page) < limit:
            break
        after_id = page[-1].record_id
    assert pages == [r for r in dm.query(selector) if r.record_id > start]


@settings(max_examples=40, deadline=None)
@given(record_specs)
def test_durability_round_trip_under_query(tmp_path_factory, specs):
    path = tmp_path_factory.mktemp("journal") / "j.ndjson"
    dm = DataManager(journal_path=path)
    for value, origin, timely, proc, tick, link in specs:
        props = [origin, timeliness(timely)]
        if proc is not None:
            props.append(processing(proc))
        if tick is not None:
            props.append(last_update(tick))
        dm.ingest(value, props, model_link=link)
    dm.close()
    reloaded = DataManager.reload(path)
    assert [r.to_dict() for r in reloaded.query()] == [r.to_dict() for r in dm.query()]


@settings(max_examples=40, deadline=None)
@given(st.one_of(record_specs, run_specs()), selectors)
def test_reloaded_and_linked_store_answers_tick_windows_like_the_oracle(tmp_path_factory,
                                                                       specs, selector):
    path = tmp_path_factory.mktemp("journal") / "j.ndjson"
    dm = DataManager(journal_path=path)
    for value, origin, timely, proc, tick, link in specs:
        props = [origin, timeliness(timely)]
        if proc is not None:
            props.append(processing(proc))
        if tick is not None:
            props.append(last_update(tick))
        # every other record is linked, so linked and unlinked ones mix
        dm.ingest(value, props, model_link=link if dm.count() % 2 == 0 else None)
    dm.close()
    for store in (dm, DataManager.reload(path)):
        got = [r.record_id for r in store.query(selector)]
        assert got == oracle_filter(store.query(), selector)


def test_tick_window_keeps_id_order_when_ticks_run_backwards():
    dm = DataManager()
    for tick in (5, 3, 7, 3, 0, 6):
        dm.ingest(float(tick), base_props(extra=last_update(tick)))
    dm.ingest(9.0, base_props())  # no last-update: outside every tick window
    assert [r.record_id for r in dm.query(Selector(tick_from=3, tick_to=6))] == [1, 2, 4, 6]
    assert [r.record_id for r in dm.query(Selector(tick_to=3))] == [2, 4, 5]
    assert [r.record_id for r in dm.query(Selector(tick_from=6))] == [3, 6]
    assert dm.query(Selector(tick_from=6, tick_to=5)) == []


@pytest.mark.parametrize("props", [base_props(extra=last_update(2)), base_props()],
                         ids=["backwards-tick", "no-last-update"])
def test_a_direct_ingest_out_of_tick_order_leaves_windows_right(props):
    # the runtime writes ticks in order, so windows bisect to their runs;
    # one direct ingest out of that order makes them skip the runs outside
    dm = DataManager()
    for tick in range(1, 9):
        if tick == 5:
            dm.ingest(9.0, props)
        for gateway in ("tank01", "pump02", "tank01"):
            dm.ingest(float(tick), [origin_actual_system(gateway), timeliness(LIVE),
                                    last_update(tick)])
        assert dm._ticks_sorted == (tick < 5)
    for selector in (Selector(tick_from=2, tick_to=4), Selector(tick_from=5),
                     Selector(tick_to=2), Selector(origin_id="pump02", tick_from=2, tick_to=6)):
        got = [r.record_id for r in dm.query(selector)]
        assert got == oracle_filter(dm.query(), selector)
        assert [r.record_id for r in dm.query(selector, after_id=13, limit=4)] == [
            i for i in got if i > 13][:4]


def test_a_record_without_last_update_ends_a_run_whatever_the_memo_keeps(monkeypatch):
    # a memo that never forgets hands the third record the first one's tuple
    kept = {}
    monkeypatch.setattr(DataManager, "_shared_properties",
                        lambda self, props: kept.setdefault(tuple(map(id, props)), props))
    dm = DataManager()
    timed = base_props(extra=last_update(3))
    for props in (timed, base_props(), timed):
        dm.ingest(1.0, props)
    first, _, third = dm.query()
    assert first.properties is third.properties
    assert [r.record_id for r in dm.query(Selector(tick_from=3))] == [1, 3]
    assert [r.record_id for r in dm.query(Selector(tick_to=3), after_id=1)] == [3]


def test_mandatory_metadata_totality():
    dm = DataManager()
    for i in range(50):
        dm.ingest(float(i), base_props(extra=last_update(i)))
    for record in dm.query():
        types = {p.property_type for p in record.properties}
        assert PropertyType.ORIGIN in types and PropertyType.TIMELINESS in types
