"""Data manager: append-only store for every value the twin ingests.

Each record carries qualifying data properties (origin, timeliness,
processing, uncertainty, precision, last update) and may be linked, once, to
a model element. Records are immutable after ingestion; persistence is an
append-only journal of one JSON entry per line, tolerant of a torn trailing
entry so a crashed writer never loses committed records.
"""

from __future__ import annotations

import bisect
import functools
import threading
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable

from .errors import (
    AlreadyLinkedDifferently,
    CorruptJournal,
    DanglingModelRef,
    MissingMandatoryProperty,
    NoSuchRecord,
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


@dataclass(frozen=True)
class DataProperty:
    property_type: PropertyType
    value: Value

    def __post_init__(self):
        _check_property_value(self.property_type, self.value)


def _shared(build: Callable[..., DataProperty]) -> Callable[..., DataProperty]:
    """Build each property once per argument and hand out the same instance.

    Sync records repeat the same few origin, timeliness and processing
    properties; sharing them saves building and validating four per record.
    Shared values are never mutated: ``DataRecord.to_dict`` copies them.
    """
    cache: dict[tuple, DataProperty] = {}

    @functools.wraps(build)
    def get(*args):
        try:
            return cache[args]
        except KeyError:
            prop = cache[args] = build(*args)
            return prop
        except TypeError:  # unhashable argument: validation rejects it
            return build(*args)

    return get


@_shared
def origin_actual_system(gateway_id: str) -> DataProperty:
    return DataProperty(PropertyType.ORIGIN, {"source": "actual-system", "id": gateway_id})


@_shared
def origin_service(service_id: str) -> DataProperty:
    return DataProperty(PropertyType.ORIGIN, {"source": "service", "id": service_id})


@_shared
def origin_operator() -> DataProperty:
    return DataProperty(PropertyType.ORIGIN, {"source": "operator"})


@_shared
def timeliness(value: str) -> DataProperty:
    return DataProperty(PropertyType.TIMELINESS, value)


@_shared
def processing(value: str) -> DataProperty:
    return DataProperty(PropertyType.PROCESSING, value)


def last_update(tick: int) -> DataProperty:
    return DataProperty(PropertyType.LAST_UPDATE, tick)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class DataRecord:
    record_id: int
    value: Value
    properties: tuple[DataProperty, ...]
    model_link: ModelElementRef | None = None

    def prop(self, ptype: PropertyType) -> Value | None:
        for p in self.properties:
            if p.property_type is ptype:
                return p.value
        return None

    def to_dict(self) -> dict:
        # origin values may be shared constants: hand out copies
        props = {p.property_type.value: dict(p.value) if isinstance(p.value, dict) else p.value
                 for p in self.properties}
        return {"id": self.record_id, "value": self.value, "properties": props,
                "link": self.model_link.to_list() if self.model_link else None}


@dataclass(frozen=True)
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

    def matches(self, record: DataRecord) -> bool:
        if self.origin_source is not None or self.origin_id is not None:
            origin = record.prop(PropertyType.ORIGIN) or {}
            if self.origin_source is not None and origin.get("source") != self.origin_source:
                return False
            if self.origin_id is not None and origin.get("id") != self.origin_id:
                return False
        if self.timeliness is not None and record.prop(PropertyType.TIMELINESS) != self.timeliness:
            return False
        if self.processing is not None and record.prop(PropertyType.PROCESSING) != self.processing:
            return False
        link = record.model_link
        if self.model_id is not None and (link is None or link.model_id != self.model_id):
            return False
        if self.element_id is not None and (link is None or link.element_id != self.element_id):
            return False
        if self.property_name is not None and (link is None or link.property_name != self.property_name):
            return False
        if self.tick_from is not None or self.tick_to is not None:
            tick = record.prop(PropertyType.LAST_UPDATE)
            if tick is None:
                return False
            if self.tick_from is not None and tick < self.tick_from:
                return False
            if self.tick_to is not None and tick > self.tick_to:
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


# resolver answers whether a model element reference currently resolves
RefResolver = Callable[[ModelElementRef], bool]


class DataManager:
    """Single-writer record store with an optional on-disk journal.

    Only the orchestration loop ingests; queries may run concurrently and see
    a consistent prefix. ``enforce_mandatory`` and ``allow_linkage`` exist so
    a configuration can be audited for running without mandatory metadata or
    model linkage; production configurations leave both on.
    """

    def __init__(self, journal_path: str | Path | None = None,
                 resolver: RefResolver | None = None,
                 enforce_mandatory: bool = True, allow_linkage: bool = True):
        self._records: list[DataRecord] = []
        # record ids ordered by last-update tick, for tick-window queries
        self._ticks: list[int] = []
        self._tick_ids: list[int] = []
        self._next_id = 1
        self._lock = threading.Lock()
        self.resolver = resolver
        self.enforce_mandatory = enforce_mandatory
        self.allow_linkage = allow_linkage
        self._journal_path = Path(journal_path) if journal_path is not None else None
        self._journal = None
        if self._journal_path is not None:
            try:
                self._journal_path.parent.mkdir(parents=True, exist_ok=True)
                self._journal = open(self._journal_path, "ab")
            except OSError as exc:
                raise StorageFailure(f"cannot open journal {self._journal_path}: {exc}") from exc

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
            self._check_link(model_link)
        ordered = tuple(sorted(by_type.values(), key=lambda p: p.property_type.value))
        with self._lock:
            record = DataRecord(record_id=self._next_id, value=value,
                                properties=ordered, model_link=model_link)
            self._append_journal({"op": "record", "id": record.record_id, "value": value,
                                  "props": {p.property_type.value: p.value for p in ordered},
                                  "link": model_link.to_list() if model_link else None})
            self._records.append(record)
            self._index_tick(record)
            self._next_id += 1
            return record.record_id

    def query(self, selector: Selector | None = None) -> list[DataRecord]:
        selector = selector or Selector()
        start, end = selector.tick_from, selector.tick_to
        if (start is None and end is None) or not all(
                bound is None or isinstance(bound, (int, float)) for bound in (start, end)):
            snapshot = self._records[: len(self._records)]
        else:
            # a tick window reads only the records whose last-update falls in it
            with self._lock:
                lo = 0 if start is None else bisect.bisect_left(self._ticks, start)
                hi = len(self._ticks) if end is None else bisect.bisect_right(self._ticks, end)
                ids = sorted(self._tick_ids[lo:hi])
                snapshot = [self._records[rid - 1] for rid in ids]
        return [r for r in snapshot if selector.matches(r)]

    def get(self, record_id: int) -> DataRecord:
        if not 1 <= record_id < self._next_id:
            raise NoSuchRecord(f"no record {record_id}")
        return self._records[record_id - 1]

    def link_to_model(self, record_id: int, ref: ModelElementRef) -> None:
        if not self.allow_linkage:
            raise TwinError("model linkage is disabled in this configuration")
        with self._lock:
            record = self.get(record_id)
            if record.model_link == ref:
                return  # idempotent
            if record.model_link is not None:
                raise AlreadyLinkedDifferently(
                    f"record {record_id} already linked to {record.model_link}")
            self._check_link(ref)
            self._append_journal({"op": "link", "id": record_id, "ref": ref.to_list()})
            self._records[record_id - 1] = replace(record, model_link=ref)

    def count(self) -> int:
        return len(self._records)

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    # --- internals ---

    def _index_tick(self, record: DataRecord) -> None:
        tick = record.prop(PropertyType.LAST_UPDATE)
        if tick is None:
            return
        if self._ticks and tick < self._ticks[-1]:
            # last-update usually grows with the record id; a direct ingest may not
            at = bisect.bisect_right(self._ticks, tick)
            self._ticks.insert(at, tick)
            self._tick_ids.insert(at, record.record_id)
        else:
            self._ticks.append(tick)
            self._tick_ids.append(record.record_id)

    def _check_link(self, ref: ModelElementRef) -> None:
        if not self.allow_linkage:
            raise TwinError("model linkage is disabled in this configuration")
        if self.resolver is not None and not self.resolver(ref):
            raise DanglingModelRef(f"{ref} does not resolve")

    def _append_journal(self, entry: dict) -> None:
        if self._journal is None:
            return
        try:
            self._journal.write((canonical_json(entry) + "\n").encode("utf-8"))
            self._journal.flush()
        except (OSError, ValueError) as exc:
            raise StorageFailure(f"journal append failed: {exc}") from exc

    # --- persistence ---

    @classmethod
    def reload(cls, journal_path: str | Path, reopen: bool = False) -> "DataManager":
        """Rebuild a manager by replaying a journal.

        Every complete (newline-terminated, well-formed) entry is applied; a
        torn trailing entry is discarded. Malformation anywhere before the
        tail raises CorruptJournal. With ``reopen`` the journal is opened for
        further appends, otherwise the result is an in-memory store.
        """
        path = Path(journal_path)
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise StorageFailure(f"cannot read journal {path}: {exc}") from exc

        # everything after the final newline is an unterminated tail: discard
        lines = blob.split(b"\n")[:-1]
        manager = cls()
        last = len(lines) - 1
        for i, line in enumerate(lines):
            try:
                manager._replay(line)
            except TwinError as exc:
                if i == last:
                    break  # trailing torn entry: a crash can also tear the line content
                raise CorruptJournal(f"journal entry {i + 1} is malformed: {exc}",
                                     line_no=i + 1) from exc
        if reopen:
            manager._journal_path = path
            try:
                manager._journal = open(path, "ab")
            except OSError as exc:
                raise StorageFailure(f"cannot reopen journal {path}: {exc}") from exc
        return manager

    def _replay(self, line: bytes) -> None:
        try:
            entry = strict_loads(line)
        except ValueError as exc:
            raise CorruptJournal(f"unparseable entry: {exc}") from exc
        op = entry.get("op")
        if op == "record":
            try:
                props = [DataProperty(PropertyType(t), v) for t, v in sorted(entry["props"].items())]
                link = ModelElementRef.from_list(entry["link"]) if entry.get("link") else None
                record = DataRecord(record_id=entry["id"], value=entry["value"],
                                    properties=tuple(props), model_link=link)
            except (KeyError, TypeError, ValueError, TwinError) as exc:
                raise CorruptJournal(f"bad record entry: {exc}") from exc
            if record.record_id != self._next_id:
                raise CorruptJournal(
                    f"record id {record.record_id} out of order (expected {self._next_id})")
            self._records.append(record)
            self._index_tick(record)
            self._next_id += 1
        elif op == "link":
            try:
                rid = entry["id"]
                ref = ModelElementRef.from_list(entry["ref"])
            except (KeyError, TwinError) as exc:
                raise CorruptJournal(f"bad link entry: {exc}") from exc
            if not 1 <= rid < self._next_id:
                raise CorruptJournal(f"link to unknown record {rid}")
            record = self._records[rid - 1]
            if record.model_link is not None and record.model_link != ref:
                raise CorruptJournal(f"record {rid} linked twice with different refs")
            self._records[rid - 1] = replace(record, model_link=ref)
        else:
            raise CorruptJournal(f"unknown journal op {op!r}")
