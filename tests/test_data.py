import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinrt.data import (
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
    AlreadyLinkedDifferently,
    CorruptJournal,
    DanglingModelRef,
    MissingMandatoryProperty,
    NoSuchRecord,
    SchemaViolation,
)

LEVEL_REF = ModelElementRef("tank", "main", "level")
VALVE_REF = ModelElementRef("tank", "main", "valve_target")


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
        assert [r.record_id for r in dm.query(Selector(tick_from=2, tick_to=4))] == [2, 3]

    def test_query_is_pure(self):
        dm = self.make_store()
        before = [r.to_dict() for r in dm.query()]
        dm.query(Selector(origin_source="operator"))
        dm.query(Selector(tick_from=0))
        assert [r.to_dict() for r in dm.query()] == before


class TestLink:
    def make_manager(self, resolve=lambda ref: True):
        dm = DataManager(resolver=resolve)
        dm.ingest(1.0, base_props())
        return dm

    def test_link_idempotent(self):
        dm = self.make_manager()
        dm.link_to_model(1, LEVEL_REF)
        dm.link_to_model(1, LEVEL_REF)
        assert dm.get(1).model_link == LEVEL_REF

    def test_link_conflict(self):
        dm = self.make_manager()
        dm.link_to_model(1, LEVEL_REF)
        with pytest.raises(AlreadyLinkedDifferently):
            dm.link_to_model(1, VALVE_REF)

    def test_link_unknown_record(self):
        dm = self.make_manager()
        with pytest.raises(NoSuchRecord):
            dm.link_to_model(99, LEVEL_REF)

    def test_dangling_ref(self):
        dm = self.make_manager(resolve=lambda ref: False)
        with pytest.raises(DanglingModelRef):
            dm.link_to_model(1, LEVEL_REF)

    def test_link_against_live_model_registry(self):
        # deleting the element makes a later link dangle
        from helpers import build_registry

        registry = build_registry()
        dm = DataManager(resolver=registry.resolve)
        dm.ingest(1.0, base_props())
        dm.ingest(2.0, base_props())
        dm.link_to_model(1, LEVEL_REF)
        registry.apply_operator("plant", "delete_element", "tank", {"element": "main"})
        with pytest.raises(DanglingModelRef):
            dm.link_to_model(2, LEVEL_REF)


class TestReload:
    def write_store(self, path, n=3):
        dm = DataManager(journal_path=path, resolver=lambda ref: True)
        for i in range(1, n + 1):
            dm.ingest(float(i), [origin_actual_system("tank01"), timeliness(LIVE),
                                 last_update(i)])
        dm.link_to_model(1, LEVEL_REF)
        dm.close()
        return path

    def test_round_trip(self, tmp_path):
        path = self.write_store(tmp_path / "j.ndjson")
        reloaded = DataManager.reload(path)
        assert reloaded.count() == 3
        assert [r.record_id for r in reloaded.query()] == [1, 2, 3]
        assert reloaded.get(1).model_link == LEVEL_REF
        assert reloaded.get(2).model_link is None

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
        # holds 5 record lines followed by 1 link line
        path = self.write_store(tmp_path / "j.ndjson", n=5)
        blob = path.read_bytes()
        for cut in range(len(blob) + 1):
            path.write_bytes(blob[:cut])
            reloaded = DataManager.reload(path)
            lines = blob[:cut].count(b"\n")
            assert reloaded.count() == min(lines, 5), f"offset {cut}"
            linked = reloaded.count() >= 1 and reloaded.get(1).model_link is not None
            assert linked == (lines == 6), f"offset {cut}"

    def test_truncation_at_every_offset_of_final_entry(self, tmp_path):
        path = self.write_store(tmp_path / "j.ndjson", n=3)
        blob = path.read_bytes()
        head, _, final_entry = blob.rstrip(b"\n").rpartition(b"\n")
        final_entry += b"\n"
        head += b"\n"
        # final entry is the link; records before it must always survive
        for cut in range(len(final_entry)):
            path.write_bytes(head + final_entry[:cut])
            reloaded = DataManager.reload(path)
            assert reloaded.count() == 3
            assert reloaded.get(1).model_link is None, f"offset {cut}"

    def test_reload_reopen_continues_ids(self, tmp_path):
        path = self.write_store(tmp_path / "j.ndjson")
        dm = DataManager.reload(path, reopen=True)
        assert dm.ingest(4.0, base_props()) == 4
        dm.close()
        assert DataManager.reload(path).count() == 4

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


# --- query/oracle equivalence over random stores --------------------------------

origins = st.sampled_from([
    origin_actual_system("tank01"), origin_actual_system("pump02"),
    origin_service("kpi"), origin_operator(),
])
timelinesses = st.sampled_from([LIVE, HISTORICAL])
processings = st.sampled_from([RAW, PROCESSED, None])
links = st.sampled_from([None, LEVEL_REF, VALVE_REF,
                         ModelElementRef("boiler", "b1", "temp")])


record_specs = st.lists(
    st.tuples(st.floats(allow_nan=False, allow_infinity=False, width=32),
              origins, timelinesses, processings,
              st.one_of(st.none(), st.integers(0, 20)), links),
    max_size=60,
)

selectors = st.builds(
    Selector,
    origin_source=st.sampled_from([None, "actual-system", "service", "operator"]),
    origin_id=st.sampled_from([None, "tank01", "kpi"]),
    timeliness=st.sampled_from([None, LIVE, HISTORICAL]),
    processing=st.sampled_from([None, RAW, PROCESSED]),
    model_id=st.sampled_from([None, "tank", "boiler"]),
    element_id=st.sampled_from([None, "main", "b1"]),
    property_name=st.sampled_from([None, "level", "temp"]),
    tick_from=st.sampled_from([None, 0, 5, 15]),
    tick_to=st.sampled_from([None, 4, 10, 25]),
)


def oracle_filter(records, sel: Selector):
    """Linear-scan reference filter, written independently of Selector.matches."""
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
@given(record_specs, selectors)
def test_query_equals_linear_scan_oracle(specs, selector):
    dm = DataManager()
    for value, origin, timely, proc, tick, link in specs:
        props = [origin, timeliness(timely)]
        if proc is not None:
            props.append(processing(proc))
        if tick is not None:
            props.append(last_update(tick))
        dm.ingest(value, props, model_link=link)
    got = [r.record_id for r in dm.query(selector)]
    assert got == oracle_filter(dm.query(), selector)


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
@given(record_specs, selectors)
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
        rid = dm.ingest(value, props)
        if link is not None and rid % 2:
            dm.link_to_model(rid, link)
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


def test_mandatory_metadata_totality():
    dm = DataManager()
    for i in range(50):
        dm.ingest(float(i), base_props(extra=last_update(i)))
    for record in dm.query():
        types = {p.property_type for p in record.properties}
        assert PropertyType.ORIGIN in types and PropertyType.TIMELINESS in types
