"""Data manager: append-only store for every value the twin ingests.

Each record carries qualifying data properties (origin, timeliness,
processing, uncertainty, precision, last update) and may be linked, as it is
ingested, to a model element. Records never change after ingestion;
persistence is an append-only journal of one JSON entry per line, tolerant
of a torn trailing entry so a crashed writer never loses committed records.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable

from .errors import (
    CorruptJournal,
    DanglingModelRef,
    MissingMandatoryProperty,
    SchemaViolation,
    StorageFailure,
    TwinError,
)
from .values import Value, canonical_json, strict_loads, validate_value


class PropertyType(str, Enum):
    TIMELINESS = "timeliness"
    PROCESSING = "processing"
    ORIGIN = "origin"
    UNCERTAINTY = "uncertainty"
    PRECISION = "precision"
    LAST_UPDATE = "last-update"


LIVE = "live"
HISTORICAL = "historical"
RAW = "raw"
PROCESSED = "processed"


def _check_property_value(ptype: PropertyType, value: Value) -> None:
    validate_value(value)
    if ptype is PropertyType.TIMELINESS and value not in (LIVE, HISTORICAL):
        raise SchemaViolation(f"timeliness must be {LIVE!r} or {HISTORICAL!r}, got {value!r}")
    elif ptype is PropertyType.PROCESSING and value not in (RAW, PROCESSED):
        raise SchemaViolation(f"processing must be {RAW!r} or {PROCESSED!r}, got {value!r}")
    elif ptype is PropertyType.ORIGIN:
        if not isinstance(value, dict) or value.get("source") not in ("actual-system", "service", "operator"):
            raise SchemaViolation(f"origin must name a source, got {value!r}")
        if value["source"] == "operator":
            if set(value) != {"source"}:
                raise SchemaViolation("operator origin carries no id")
        elif set(value) != {"source", "id"} or not isinstance(value.get("id"), str) or not value["id"]:
            raise SchemaViolation(f"{value.get('source')} origin requires an id")
    elif ptype is PropertyType.UNCERTAINTY:
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value < 0:
            raise SchemaViolation("uncertainty must be a non-negative real")
    elif ptype is PropertyType.PRECISION:
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
            raise SchemaViolation("precision must be a positive real")
    elif ptype is PropertyType.LAST_UPDATE:
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise SchemaViolation("last-update must be a non-negative tick number")


@dataclass(frozen=True, slots=True)
class DataProperty:
    property_type: PropertyType
    value: Value

    def __post_init__(self):
        _check_property_value(self.property_type, self.value)


# The builders below hand out one instance per argument. Sync records repeat
# the same few origin, timeliness and processing properties; sharing them
# saves building and validating four per record. Shared values are never
# mutated: ``DataRecord.to_dict`` copies them.

@functools.cache
def origin_actual_system(gateway_id: str) -> DataProperty:
    return DataProperty(PropertyType.ORIGIN, {"source": "actual-system", "id": gateway_id})


@functools.cache
def origin_service(service_id: str) -> DataProperty:
    return DataProperty(PropertyType.ORIGIN, {"source": "service", "id": service_id})


@functools.cache
def origin_operator() -> DataProperty:
    return DataProperty(PropertyType.ORIGIN, {"source": "operator"})


def origin_of(cause: str) -> DataProperty:
    """The origin of what a ``cause`` ("operator" or "service:<id>") did."""
    if cause.startswith("service:"):
        return origin_service(cause[len("service:"):])
    return origin_operator()


@functools.cache
def timeliness(value: str) -> DataProperty:
    return DataProperty(PropertyType.TIMELINESS, value)


@functools.cache
def processing(value: str) -> DataProperty:
    return DataProperty(PropertyType.PROCESSING, value)


@functools.lru_cache(maxsize=1, typed=True)
def last_update(tick: int) -> DataProperty:
    """The last-update property of ``tick``; calls for the same tick in a row
    get the same instance, so the records of one tick can share a property
    tuple (see ``DataManager``)."""
    return DataProperty(PropertyType.LAST_UPDATE, tick)


@dataclass(frozen=True, slots=True)
class ModelElementRef:
    """Reference to a model element, optionally narrowed to one property."""

    model_id: str
    element_id: str
    property_name: str | None = None

    def to_list(self) -> list:
        return [self.model_id, self.element_id, self.property_name]

    @classmethod
    def from_list(cls, obj) -> "ModelElementRef":
        if (not isinstance(obj, list) or len(obj) != 3
                or not (isinstance(obj[0], str) and isinstance(obj[1], str))
                or not (obj[2] is None or isinstance(obj[2], str))):
            raise SchemaViolation(f"bad model element ref {obj!r}")
        return cls(model_id=obj[0], element_id=obj[1], property_name=obj[2])


def _value(properties: tuple[DataProperty, ...], ptype: PropertyType) -> Value | None:
    for p in properties:
        if p.property_type is ptype:
            return p.value
    return None


@dataclass(frozen=True, slots=True)
class DataRecord:
    record_id: int
    value: Value
    properties: tuple[DataProperty, ...]
    model_link: ModelElementRef | None = None

    def prop(self, ptype: PropertyType) -> Value | None:
        return _value(self.properties, ptype)

    def to_dict(self) -> dict:
        # origin values may be shared constants: hand out copies
        props = {p.property_type.value: dict(p.value) if isinstance(p.value, dict) else p.value
                 for p in self.properties}
        return {"id": self.record_id, "value": self.value, "properties": props,
                "link": self.model_link.to_list() if self.model_link else None}


@dataclass(frozen=True, slots=True)
class Selector:
    """Conjunctive record filter; an empty selector matches every record."""

    origin_source: str | None = None
    origin_id: str | None = None
    timeliness: str | None = None
    processing: str | None = None
    model_id: str | None = None
    element_id: str | None = None
    property_name: str | None = None
    tick_from: int | None = None
    tick_to: int | None = None

    def matches_properties(self, properties: tuple[DataProperty, ...]) -> bool:
        """The origin, timeliness and processing part of the test. It reads
        no tick: ``DataManager.query`` answers a tick window from its runs,
        each of which lies inside the window or outside it as a whole."""
        if self.origin_source is not None or self.origin_id is not None:
            origin = _value(properties, PropertyType.ORIGIN) or {}
            if self.origin_source is not None and origin.get("source") != self.origin_source:
                return False
            if self.origin_id is not None and origin.get("id") != self.origin_id:
                return False
        if (self.timeliness is not None
                and _value(properties, PropertyType.TIMELINESS) != self.timeliness):
            return False
        if (self.processing is not None
                and _value(properties, PropertyType.PROCESSING) != self.processing):
            return False
        return True

    def matches_link(self, link: ModelElementRef | None) -> bool:
        """The model, element and property part of the test."""
        if self.model_id is not None and (link is None or link.model_id != self.model_id):
            return False
        if self.element_id is not None and (link is None or link.element_id != self.element_id):
            return False
        if self.property_name is not None and (link is None or link.property_name != self.property_name):
            return False
        return True


_SELECTOR_FIELDS = (("origin", str), ("timeliness", str), ("processing", str), ("model", str),
                    ("element", str), ("property", str), ("tick_from", int), ("tick_to", int))


def selector_from_dict(obj: dict) -> Selector:
    """Build a selector from its configuration/wire form.

    ``origin`` is either a source name ("actual-system", "service",
    "operator") or source:id ("service:kpi"). The tick bounds are ints, the
    other fields text; a field of another type, or an ``obj`` that is not a
    mapping, raises ValueError.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a selector is a mapping, got {obj!r}")
    for name, wanted in _SELECTOR_FIELDS:
        value = obj.get(name)
        if value is not None and (isinstance(value, bool) or not isinstance(value, wanted)):
            raise ValueError(f"selector {name} must be {wanted.__name__}, got {value!r}")
    origin = obj.get("origin")
    origin_source = origin_id = None
    if origin:
        origin_source, sep, rest = origin.partition(":")
        origin_id = rest if sep else None
    return Selector(
        origin_source=origin_source,
        origin_id=origin_id,
        timeliness=obj.get("timeliness"),
        processing=obj.get("processing"),
        model_id=obj.get("model"),
        element_id=obj.get("element"),
        property_name=obj.get("property"),
        tick_from=obj.get("tick_from"),
        tick_to=obj.get("tick_to"),
    )


# the record properties that repeat from record to record
_REPEATED = (PropertyType.ORIGIN, PropertyType.TIMELINESS, PropertyType.PROCESSING)


def _replayed_property(ptype: PropertyType, value: Value, shared: dict) -> DataProperty:
    """A journal entry's property. An origin, timeliness or processing
    property equal to one in ``shared`` is that one, so each distinct value is
    built and validated once; a valid value is text or a dict of text. A
    last-update property is shared with the entry before it, as in ingest."""
    if ptype is PropertyType.LAST_UPDATE:
        return last_update(value)
    if ptype not in _REPEATED:
        return DataProperty(ptype, value)
    key = (ptype, tuple(value.items()) if isinstance(value, dict) else value)
    try:
        prop = shared.get(key)
    except TypeError:  # unhashable: validation rejects it
        return DataProperty(ptype, value)
    if prop is None:
        prop = shared[key] = DataProperty(ptype, value)
    return prop


# resolver answers whether a model element reference currently resolves
RefResolver = Callable[[ModelElementRef], bool]


# property sets remembered for sharing before the memo starts again
_MAX_PROPERTY_SETS = 64


class LineLog:
    """A run output, the journal or the decision log: one canonical JSON line
    per append, in one unbuffered write, to a new or empty file. A file that
    holds bytes is refused and left as it was, since a journal appended to by
    a second run would restart its record ids. A failed or short write is a
    StorageFailure; closing writes nothing, so it cannot fail again."""

    def __init__(self, path: str | Path, what: str):
        path = Path(path)
        self._name = f"{what} {path}"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fh = open(path, "ab", buffering=0)
        except OSError as exc:
            raise StorageFailure(f"cannot open {self._name}: {exc}") from exc
        if fh.tell():
            fh.close()
            raise StorageFailure(f"{self._name} is not empty; a run needs a new or empty file")
        self._fh = fh

    def append(self, entry: dict) -> None:
        line = (canonical_json(entry) + "\n").encode("utf-8")
        try:
            written = self._fh.write(line)
        except (OSError, ValueError) as exc:  # ValueError: written after close
            raise StorageFailure(f"cannot append to {self._name}: {exc}") from exc
        if written != len(line):
            raise StorageFailure(f"cannot append to {self._name}: wrote {written} of {len(line)} bytes")

    def close(self) -> None:
        self._fh.close()


class DataManager:
    """Record store with an optional on-disk journal, used from one thread.

    The orchestration loop ingests, and queries are answered on the same
    thread, control requests included, so nothing locks. ``enforce_mandatory``
    and ``allow_linkage`` exist so a configuration can be audited for running
    without mandatory metadata or model linkage; production configurations
    leave both on. A record is linked to a model element only as it is
    ingested, and a stored record never changes.

    Records share what repeats, live and after a reload alike. Records
    ingested with the same property objects hold one ``properties`` tuple:
    the store remembers the sets of the current last-update property (at
    most ``_MAX_PROPERTY_SETS``) and forgets them when that property
    changes, so the memo grows with neither ticks nor records. Records
    linked to equal model element references hold one reference.

    Every query walks the runs: a run-length encoding of the properties
    column, appended in id order and never moved. A run is a maximal
    stretch of consecutive records that hold one ``properties`` tuple, such
    as the syncs of one tick, and carries the tuple's last-update as its
    tick; a run without one has no tick, and no tick window holds it. A
    run's key is its properties other than last-update, one tuple per
    distinct set of property objects (a memo that, like the property-set
    memo, forgets what it holds at ``_MAX_PROPERTY_SETS`` entries). A query
    bisects to the first run after its ``after_id``. While no tick falls
    below the one before, as the runtime writes them, a tick window bisects
    to its runs; otherwise the walk skips the runs outside it. The walk
    tests the selector once per distinct key, and a record's link only when
    the selector names a model, element or property; otherwise it copies
    passing runs that adjoin as one slice.
    """

    def __init__(self, journal_path: str | Path | None = None,
                 resolver: RefResolver | None = None,
                 enforce_mandatory: bool = True, allow_linkage: bool = True):
        self._records: list[DataRecord] = []
        # the runs in id order, one column each: the tick, the ids of the
        # first and the last record, and the key of the other properties
        self._run_ticks: list[int | None] = []
        self._run_first: list[int] = []
        self._run_last: list[int] = []
        self._run_keys: list[tuple[DataProperty, ...]] = []
        # until a run has no tick or a tick below the one before
        self._ticks_sorted = True
        # the properties of the last run, which the next record may extend
        self._run_props: tuple[DataProperty, ...] | None = None
        # run keys by the ids of their properties
        self._keys: dict[tuple[int, ...], tuple[DataProperty, ...]] = {}
        self._next_id = 1
        # property tuples by the ids of their properties, all of one last-update
        self._property_sets: dict[tuple[int, ...], tuple[DataProperty, ...]] = {}
        self._sets_tick: DataProperty | None = None
        self._links: dict[ModelElementRef, ModelElementRef] = {}
        self.resolver = resolver
        self.enforce_mandatory = enforce_mandatory
        self.allow_linkage = allow_linkage
        self._journal = None if journal_path is None else LineLog(journal_path, "journal")

    # --- operations ---

    def ingest(self, value: Value, properties: Iterable[DataProperty],
               model_link: ModelElementRef | None = None) -> int:
        validate_value(value)
        by_type: dict[PropertyType, DataProperty] = {}
        for prop in properties:
            if prop.property_type in by_type:
                raise SchemaViolation(f"duplicate data property {prop.property_type.value}")
            by_type[prop.property_type] = prop
        if self.enforce_mandatory:
            for mandatory in (PropertyType.ORIGIN, PropertyType.TIMELINESS):
                if mandatory not in by_type:
                    raise MissingMandatoryProperty(f"record lacks {mandatory.value}")
        if model_link is not None:
            if not self.allow_linkage:
                raise TwinError("model linkage is disabled in this configuration")
            if self.resolver is not None and not self.resolver(model_link):
                raise DanglingModelRef(f"{model_link} does not resolve")
            model_link = self._links.setdefault(model_link, model_link)
        ordered = self._shared_properties(
            tuple(sorted(by_type.values(), key=lambda p: p.property_type.value)))
        record = DataRecord(record_id=self._next_id, value=value,
                            properties=ordered, model_link=model_link)
        if self._journal is not None:
            self._journal.append({"op": "record", "id": record.record_id, "value": value,
                                  "props": {p.property_type.value: p.value for p in ordered},
                                  "link": model_link.to_list() if model_link else None})
        self._records.append(record)
        self._index_run(record)
        self._next_id += 1
        return record.record_id

    def query(self, selector: Selector | None = None, *, after_id: int = 0,
              limit: int | None = None) -> list[DataRecord]:
        """The records ``selector`` matches, in id order: only those with an
        id above ``after_id``, and with a ``limit`` at most that many; a
        ``limit`` below 1 raises ValueError. The walk starts at the run
        after ``after_id`` and stops at ``limit``."""
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be 1 or more, got {limit!r}")
        selector = selector or Selector()
        # matches_link passes every record when the selector names no link field
        test_link = (selector.model_id is not None or selector.element_id is not None
                     or selector.property_name is not None)
        tick_from, tick_to = selector.tick_from, selector.tick_to
        ticks, firsts, lasts = self._run_ticks, self._run_first, self._run_last
        lo = bisect.bisect_right(lasts, after_id) if after_id > 0 else 0
        hi = len(lasts)
        # a window the ticks are bisected to needs no test of its own
        windowed = tick_from is not None or tick_to is not None
        if windowed and self._ticks_sorted:
            if tick_from is not None:
                lo = bisect.bisect_left(ticks, tick_from, lo)
            if tick_to is not None:
                hi = bisect.bisect_right(ticks, tick_to, lo)
            windowed = False
        records, keys = self._records, self._run_keys
        verdicts: dict[int, bool] = {}  # by id of a key
        key = verdict = None
        found: list[DataRecord] = []
        copy_from = copy_to = 0  # passing runs not yet copied: records copy_from+1 to copy_to
        for i in range(lo, hi):
            if windowed:
                tick = ticks[i]
                if (tick is None or (tick_from is not None and tick < tick_from)
                        or (tick_to is not None and tick > tick_to)):
                    continue
            if keys[i] is not key:  # the runs of one key often follow each other
                key = keys[i]
                verdict = verdicts.get(id(key))
                if verdict is None:
                    verdict = verdicts[id(key)] = selector.matches_properties(
                        records[firsts[i] - 1].properties)
            if not verdict:
                continue
            first, last = firsts[i], lasts[i]
            if first <= after_id:
                first = after_id + 1
            if test_link:
                for record in records[first - 1:last]:
                    if selector.matches_link(record.model_link):
                        found.append(record)
                        if len(found) == limit:
                            return found
                continue
            if first != copy_to + 1:  # runs that adjoin are copied as one slice
                found += records[copy_from:copy_to]
                copy_from = first - 1
            copy_to = last
            if limit is not None and len(found) + copy_to - copy_from >= limit:
                copy_to = copy_from + limit - len(found)
                break
        found += records[copy_from:copy_to]
        return found

    def count(self) -> int:
        return len(self._records)

    def close(self) -> None:
        """Close the journal; an ingest after close is a StorageFailure."""
        if self._journal is not None:
            self._journal.close()

    # --- internals ---

    def _shared_properties(self, props: tuple[DataProperty, ...]) -> tuple[DataProperty, ...]:
        """The remembered tuple of these same property objects, else ``props``.

        Identity, not equality, decides: an origin's value is a dict and
        cannot be hashed. A remembered tuple keeps its properties alive, so
        their ids stay theirs while the memo holds them.
        """
        key = tuple(map(id, props))
        shared = self._property_sets.get(key)
        if shared is not None:
            return shared
        tick = next((p for p in props if p.property_type is PropertyType.LAST_UPDATE), None)
        if tick is not self._sets_tick or len(self._property_sets) >= _MAX_PROPERTY_SETS:
            self._property_sets.clear()
            self._sets_tick = tick
        self._property_sets[key] = props
        return props

    def _index_run(self, record: DataRecord) -> None:
        props = record.properties
        if props is self._run_props:  # the record before holds the same tuple
            self._run_last[-1] = record.record_id
            return
        tick = _value(props, PropertyType.LAST_UPDATE)
        ticks = self._run_ticks
        # last-update grows with the record id as the runtime writes; a direct ingest may not
        if self._ticks_sorted and (tick is None or (ticks and tick < ticks[-1])):
            self._ticks_sorted = False
        ticks.append(tick)
        self._run_first.append(record.record_id)
        self._run_last.append(record.record_id)
        self._run_keys.append(self._run_key(props))
        self._run_props = props

    def _run_key(self, props: tuple[DataProperty, ...]) -> tuple[DataProperty, ...]:
        """The remembered tuple of these properties but last-update. Like a
        property set, it keeps its properties alive, so their ids stay theirs."""
        rest = tuple(p for p in props if p.property_type is not PropertyType.LAST_UPDATE)
        ids = tuple(map(id, rest))
        key = self._keys.get(ids)
        if key is None:
            if len(self._keys) >= _MAX_PROPERTY_SETS:
                self._keys.clear()
            key = self._keys[ids] = rest
        return key

    # --- persistence ---

    @classmethod
    def reload(cls, journal_path: str | Path) -> "DataManager":
        """Rebuild an in-memory manager by replaying a journal.

        Every complete (newline-terminated, well-formed) entry is ingested,
        its value checked as a live ingest checks it; a torn trailing entry
        is discarded. Malformation anywhere before the tail raises
        CorruptJournal. The file is read one line at a time.
        """
        path = Path(journal_path)
        # a journal written without mandatory metadata reloads as it was written
        manager = cls(enforce_mandatory=False)
        shared: dict = {}
        torn: tuple[int, TwinError] | None = None  # the entry that failed last
        try:
            with path.open("rb") as journal:
                for line_no, line in enumerate(journal, 1):
                    if not line.endswith(b"\n"):
                        break  # an unterminated tail: discard
                    if torn is not None:  # a terminated entry follows the malformed one
                        bad_no, exc = torn
                        raise CorruptJournal(f"journal entry {bad_no} is malformed: {exc}",
                                             line_no=bad_no) from exc
                    try:
                        manager._replay(line, shared)
                    except TwinError as exc:
                        # a crash can also tear the content of the last line
                        torn = line_no, exc
        except OSError as exc:
            raise StorageFailure(f"cannot read journal {path}: {exc}") from exc
        return manager

    def _replay(self, line: bytes, shared: dict) -> None:
        """Ingest one journal entry. ``shared`` holds the properties replayed
        so far, so equal ones are one object and records share property
        tuples as in the live store."""
        try:
            entry = strict_loads(line)
        except ValueError as exc:
            raise CorruptJournal(f"unparseable entry: {exc}") from exc
        op = entry.get("op")
        if op != "record":
            raise CorruptJournal(f"unknown journal op {op!r}")
        record_id = entry.get("id")
        if type(record_id) is not int or record_id != self._next_id:
            raise CorruptJournal(f"record id {record_id!r} out of order (expected {self._next_id})")
        try:
            props = [_replayed_property(PropertyType(t), v, shared)
                     for t, v in entry["props"].items()]
            link = entry.get("link")
            if link is not None:
                link = ModelElementRef.from_list(link)
            value = entry["value"]
        except (AttributeError, KeyError, TypeError, ValueError, TwinError) as exc:
            raise CorruptJournal(f"bad record entry: {exc}") from exc
        self.ingest(value, props, model_link=link)
