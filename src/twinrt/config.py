"""Twin configuration: the declarative artifact the CLI loads and audits.

One YAML document declares gateways (optionally with a simulated asset to
host), modeling languages, managers, models, mappings, services, and data
manager settings. Parsing is strict about structure but does not enforce
referential closure — that is the conformance auditor's job, so a broken
configuration can still be loaded and reported on.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import GeneratorType
from typing import Any

import yaml
from yaml.composer import ComposerError
from yaml.constructor import ConstructorError

from .asset import build_model
from .engine import Direction, Mapping, Schedule, Transform, Trigger, TriggerKind
from .errors import ConfigParseError, IllFormedLanguage
from .gateway import (
    ElementKind,
    GatewayDescriptor,
    GatewayElementDecl,
    PropertyAccess,
    event_decl,
    function_decl,
    property_decl,
)
from .models import (
    ModelElement,
    ModelingLanguage,
    ModelMode,
    ModelProperty,
    PropertyRule,
)
from .services import (
    BUILTIN_SERVICE_NAMES,
    ServiceDescriptor,
    ServiceGrant,
    build_builtin,
)
from .values import MAX_DEPTH, VALUE_TYPES, fit_value


@dataclass(frozen=True, slots=True)
class SimulatedAsset:
    model: str
    step_ms: int = 100
    seed: int = 0
    params: dict = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class GatewayConfig:
    descriptor: GatewayDescriptor
    simulate: SimulatedAsset | None = None


@dataclass(frozen=True, slots=True)
class DelegationConfig:
    operator: str
    target: str
    model_pattern: str = "*"


@dataclass(frozen=True, slots=True)
class ManagerConfig:
    manager_id: str
    models: tuple[str, ...] = ()
    delegations: tuple[DelegationConfig, ...] = ()


@dataclass(frozen=True, slots=True)
class ModelConfig:
    model_id: str
    language_id: str
    mode: ModelMode = ModelMode.ONLINE
    last_update: bool = False
    elements: tuple[ModelElement, ...] = ()

    @property
    def supports_last_update(self) -> bool:  # as the registry's Model answers it
        return self.last_update


@dataclass(frozen=True, slots=True)
class DataConfig:
    journal: str | None = None
    mandatory_metadata: bool = True
    model_linkage: bool = True


@dataclass(frozen=True, slots=True)
class TwinConfiguration:
    twin_id: str
    gateways: tuple[GatewayConfig, ...] = ()
    languages: tuple[ModelingLanguage, ...] = ()
    managers: tuple[ManagerConfig, ...] = ()
    models: tuple[ModelConfig, ...] = ()
    mappings: tuple[Mapping, ...] = ()
    services: tuple[ServiceDescriptor, ...] = ()
    data: DataConfig = DataConfig()

    def gateway(self, gateway_id: str) -> GatewayConfig | None:
        for gw in self.gateways:
            if gw.descriptor.gateway_id == gateway_id:
                return gw
        return None


# --- parsing -----------------------------------------------------------------


def _fail(path: str, message: str) -> ConfigParseError:
    return ConfigParseError(f"{path}: {message}")


def _as_str(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise _fail(path, f"expected a non-empty string, got {value!r}")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise _fail(path, f"expected true or false, got {value!r}")
    return value


def _as_list(value, path: str) -> list:
    if value is None:
        return []
    if not isinstance(value, list):
        raise _fail(path, f"expected a list, got {type(value).__name__}")
    return value


def _as_dict(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise _fail(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(path, f"expected an integer, got {value!r}")
    return value


def _as_number(value, path: str) -> float:
    """A finite number. YAML 1.1 reads an exponent without a dot (`1e-3`)
    as a string, so a string is taken when it reads as a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise _fail(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except (ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise _fail(path, f"expected a finite number, got {value!r}")
    return number


def _optional(obj: dict, key: str, path: str, read=_as_str):
    """The optional field ``key`` of ``obj`` read at ``path.key``; None if absent or null."""
    value = obj.get(key)
    return None if value is None else read(value, f"{path}.{key}")


def _value_type(value, path: str) -> str:
    value = _as_str(value, path)
    if value not in VALUE_TYPES:
        raise _fail(path, f"unknown value type {value!r} (expected one of {VALUE_TYPES})")
    return value


def _need(obj: dict, key: str, path: str, read=_as_str):
    """The required field ``key`` of ``obj``, read at ``path.key``."""
    if not isinstance(obj, dict) or key not in obj:
        raise _fail(path, f"missing required field {key!r}")
    return read(obj[key], f"{path}.{key}")


def _each(obj: dict, key: str, path: str, read) -> tuple:
    """Each item of the optional list ``obj[key]``, read at ``path.key[i]`` ("" is the root)."""
    where = f"{path}.{key}" if path else key
    return tuple(read(item, f"{where}[{i}]")
                 for i, item in enumerate(_as_list(obj.get(key), where)))


def _parse_element_decl(obj, path: str) -> GatewayElementDecl:
    obj = _as_dict(obj, path)
    name = _need(obj, "name", path)
    kind = _need(obj, "kind", path)
    try:
        if kind == ElementKind.PROPERTY.value:
            access = obj.get("access", "ro")
            if access not in ("ro", "rw"):
                raise _fail(f"{path}.access", f"expected ro or rw, got {access!r}")
            return property_decl(name, _need(obj, "type", path, _value_type),
                                 PropertyAccess(access))
        if kind == ElementKind.EVENT.value:
            return event_decl(name, _need(obj, "payload", path, _value_type))
        if kind == ElementKind.FUNCTION.value:
            return function_decl(name, _each(obj, "args", path, _value_type),
                                 _need(obj, "result", path, _value_type))
    except ValueError as exc:
        raise _fail(path, str(exc)) from exc
    raise _fail(f"{path}.kind", f"unknown element kind {kind!r}")


def _parse_gateway(obj, path: str) -> GatewayConfig:
    obj = _as_dict(obj, path)
    gateway_id = _need(obj, "id", path)
    endpoint = _need(obj, "endpoint", path)
    elements = _each(obj, "elements", path, _parse_element_decl)
    try:
        descriptor = GatewayDescriptor(gateway_id=gateway_id, endpoint=endpoint,
                                       elements=elements)
    except ValueError as exc:
        raise _fail(path, str(exc)) from exc
    simulate = None
    if obj.get("simulate") is not None:
        sim = _need(obj, "simulate", path, _as_dict)
        step_ms = _as_int(sim.get("step_ms", 100), f"{path}.simulate.step_ms")
        if step_ms <= 0:
            raise _fail(f"{path}.simulate.step_ms", f"expected a positive integer, got {step_ms}")
        simulate = SimulatedAsset(
            model=_need(sim, "model", f"{path}.simulate"),
            step_ms=step_ms,
            seed=_as_int(sim.get("seed", 0), f"{path}.simulate.seed"),
            params=_as_dict(sim.get("params"), f"{path}.simulate.params"))
        # the runtime builds the asset from these: refused here, so that
        # audit and run refuse alike
        try:
            build_model(simulate.model, simulate.seed, dict(simulate.params))
        except (TypeError, ValueError) as exc:
            raise _fail(f"{path}.simulate", str(exc)) from exc
    return GatewayConfig(descriptor=descriptor, simulate=simulate)


def _parse_rule(obj, path: str) -> PropertyRule:
    obj = _as_dict(obj, path)
    if not isinstance(obj.get("bound"), (int, float, str, type(None))):  # bool is an int
        raise _fail(f"{path}.bound", f"expected a number, text or boolean, got {obj['bound']!r}")
    try:
        return PropertyRule(
            rule_id=_need(obj, "id", path),
            kind=_need(obj, "kind", path),
            property_name=_need(obj, "property", path),
            op=_need(obj, "op", path),
            bound=obj.get("bound"),
            other_property=_optional(obj, "other", path))
    except IllFormedLanguage as exc:
        raise _fail(path, str(exc)) from exc


def _parse_language(obj, path: str) -> ModelingLanguage:
    obj = _as_dict(obj, path)
    language_id = _need(obj, "id", path)
    kinds = _need(obj, "kinds", path, _as_dict)
    schemas = {}
    for kind, schema in kinds.items():
        schemas[kind] = {name: _value_type(t, f"{path}.kinds.{kind}.{name}")
                         for name, t in _as_dict(schema, f"{path}.kinds.{kind}").items()}
    rules = _each(obj, "rules", path, _parse_rule)
    try:
        return ModelingLanguage(language_id=language_id, element_kinds=frozenset(kinds),
                                property_schemas=schemas, rules=rules)
    except IllFormedLanguage as exc:
        raise _fail(path, str(exc)) from exc


def _parse_delegation(obj, path: str) -> DelegationConfig:
    obj = _as_dict(obj, path)
    return DelegationConfig(operator=_need(obj, "operator", path), target=_need(obj, "to", path),
                            model_pattern=_as_str(obj.get("model", "*"), f"{path}.model"))


def _parse_manager(obj, path: str) -> ManagerConfig:
    obj = _as_dict(obj, path)
    delegations = _each(obj, "delegations", path, _parse_delegation)
    return ManagerConfig(manager_id=_need(obj, "id", path),
                         models=_each(obj, "models", path, _as_str), delegations=delegations)


def _parse_element(obj, path: str, language: ModelingLanguage | None) -> ModelElement:
    obj = _as_dict(obj, path)
    element_id = _need(obj, "id", path)
    kind = _need(obj, "kind", path)
    schema = language.schema_for(kind) if language is not None else {}
    # YAML reads 5 as an int and 5.0 as a float, whatever the schema
    properties = {name: ModelProperty(name=name, value=fit_value(value, schema.get(name)))
                  for name, value in _as_dict(obj.get("properties"),
                                              f"{path}.properties").items()}
    return ModelElement(element_id=element_id, kind=kind, properties=properties)


def _parse_model(obj, path: str, languages: dict[str, ModelingLanguage]) -> ModelConfig:
    obj = _as_dict(obj, path)
    model_id = _need(obj, "id", path)
    language_id = _need(obj, "language", path)
    mode = obj.get("mode", "online")
    if mode not in (ModelMode.ONLINE.value, ModelMode.OFFLINE.value):
        raise _fail(f"{path}.mode", f"expected online or offline, got {mode!r}")
    language = languages.get(language_id)
    elements = _each(obj, "elements", path, lambda e, p: _parse_element(e, p, language))
    return ModelConfig(model_id=model_id, language_id=language_id,
                       mode=ModelMode(mode),
                       last_update=_as_bool(obj.get("last_update", False), f"{path}.last_update"),
                       elements=elements)


def _parse_trigger(obj, path: str) -> Trigger:
    obj = _as_dict(obj, path)
    if "event" in obj:
        return Trigger(kind=TriggerKind.GATEWAY_EVENT, gateway_id=_need(obj, "gateway", path),
                       element=_need(obj, "event", path))
    if "gateway" in obj:
        return Trigger(kind=TriggerKind.GATEWAY_CHANGE, gateway_id=_need(obj, "gateway", path),
                       element=_need(obj, "property", path))
    if "model" in obj:
        return Trigger(kind=TriggerKind.MODEL_CHANGE, model_id=_need(obj, "model", path),
                       element_id=_need(obj, "element", path),
                       property_name=_need(obj, "property", path))
    raise _fail(path, "trigger must name a gateway property, gateway event, or model property")


# the transform of every mapping that declares none
_IDENTITY = Transform()


def _parse_mapping(obj, path: str) -> Mapping:
    obj = _as_dict(obj, path)
    model_side = _need(obj, "model", path, _as_dict)
    gateway_side = _need(obj, "gateway", path, _as_dict)
    direction = _need(obj, "direction", path)
    try:
        direction = Direction(direction)
    except ValueError:
        raise _fail(f"{path}.direction",
                    f"expected one of {[d.value for d in Direction]}, got {direction!r}") from None
    sched = _need(obj, "schedule", path, _as_dict)
    try:
        if "every" in sched:
            schedule = Schedule(every=_need(sched, "every", f"{path}.schedule", _as_int))
        elif "trigger" in sched:
            schedule = Schedule(trigger=_need(sched, "trigger", f"{path}.schedule",
                                              _parse_trigger))
        else:
            raise _fail(f"{path}.schedule", "expected every or trigger")
        transform = _IDENTITY
        if obj.get("transform") is not None:
            t = _need(obj, "transform", path, _as_dict)
            transform = Transform(
                scale=_as_number(t.get("scale", 1.0), f"{path}.transform.scale"),
                offset=_as_number(t.get("offset", 0.0), f"{path}.transform.offset"),
                unit=_optional(t, "unit", f"{path}.transform"))
        return Mapping(
            mapping_id=_need(obj, "id", path),
            model_id=_need(model_side, "model", f"{path}.model"),
            element_id=_need(model_side, "element", f"{path}.model"),
            property_name=_need(model_side, "property", f"{path}.model"),
            gateway_id=_need(gateway_side, "gateway", f"{path}.gateway"),
            gateway_property=_need(gateway_side, "property", f"{path}.gateway"),
            direction=direction, schedule=schedule, transform=transform,
            enabled=_as_bool(obj.get("enabled", True), f"{path}.enabled"))
    except ValueError as exc:
        raise _fail(path, str(exc)) from exc


def _parse_service(obj, path: str) -> ServiceDescriptor:
    obj = _as_dict(obj, path)
    grant = None
    if obj.get("grant") is not None:
        try:
            grant = ServiceGrant.parse(_each(obj, "grant", path, _as_str))
        except ValueError as exc:
            raise _fail(f"{path}.grant", str(exc)) from exc
    if "hooks" in obj:
        raise _fail(f"{path}.hooks", "a service declares no hooks: a builtin runs on "
                    "every tick, any other service acts over the control socket")
    builtin = obj.get("builtin")
    params = _as_dict(obj.get("params"), f"{path}.params")
    if builtin in BUILTIN_SERVICE_NAMES:
        # refused here, so that audit and run refuse alike; an unknown
        # builtin is a dangling name, which the audit reports
        try:
            build_builtin(builtin, params)
        except ValueError as exc:
            raise _fail(path, str(exc)) from exc
    return ServiceDescriptor(service_id=_need(obj, "id", path), grant=grant, builtin=builtin,
                             params=params)


# libyaml parses when PyYAML was built with it, and the pure-Python parser
# otherwise. _Values builds each value from the parser's events as they
# arrive, through the loader's resolver and SafeConstructor's constructors,
# so both loaders give the same safe YAML 1.1 types and no node tree is ever
# kept. Never a loader that constructs Python objects.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_TAG = "tag:yaml.org,2002:"
_STR, _SEQ, _MAP, _MERGE, _VALUE = (
    _TAG + name for name in ("str", "seq", "map", "merge", "value"))
# the scalars that `_Values` builds once per text and shares (None is one object anyway)
_SHARED_TYPES = (str, int, float, bool)


def _not_a_tree(what: str, mark) -> ComposerError:
    return ComposerError(None, None, f"found {what}: a configuration is a tree, so "
                         "write each value out in full", mark)


class _Values:
    """Builds the value of a one-document YAML stream straight from its events.

    The value is a tree of lists, dicts and scalars, the shapes of the
    twin's value union, nested at most MAX_DEPTH deep. An anchor, an alias,
    a merge key (`<<`) or a deeper collection is a ComposerError at its
    mark, so a few hundred bytes cannot stand for millions of values. A
    collection tagged anything else (`!!set`, `!!omap`, `!!str`, a local
    tag) or used as a key, which is unhashable, is a ConstructorError.

    Otherwise the result equals SafeConstructor's, but equal plain scalars
    are one object, so a configuration that repeats a name thousands of
    times holds it once. As with SafeConstructor, an error in building a
    value is raised only once the whole stream has been read, so a syntax
    error later in the text wins. A scalar that its tag's constructor
    cannot read (`!!int x`) is a ConstructorError at that scalar, where
    SafeConstructor lets the constructor's own ValueError, KeyError,
    AttributeError or IndexError escape.
    """

    def __init__(self, loader):
        self.loader = loader
        self.get_event = loader.get_event
        self.resolve = loader.resolve
        self.constructors = loader.yaml_constructors
        self.room = MAX_DEPTH  # how much deeper a collection may open
        # (text, implicit flags, anchor) -> the value built for a plain scalar
        self.scalars: dict[tuple, Any] = {}
        self.error: Exception | None = None

    def document(self) -> Any:
        loader = self.loader
        loader.get_event()  # stream start
        if loader.check_event(yaml.StreamEndEvent):
            data = None
        else:
            loader.get_event()  # document start
            root = loader.get_event()
            data = self.node(root)
            loader.get_event()  # document end
            if not loader.check_event(yaml.StreamEndEvent):
                raise ComposerError("expected a single document in the stream",
                                    root.start_mark, "but found another document",
                                    loader.get_event().start_mark)
        if self.error is not None:
            raise self.error
        return data

    def unbuilt(self, error: Exception) -> None:
        """Keep the first error in building a value, to raise once the stream is read."""
        if self.error is None:
            self.error = error

    def node(self, event):
        """The value of the node that ``event`` starts."""
        cls = event.__class__
        if cls is yaml.ScalarEvent:
            return self.scalar(event, False)
        if cls is yaml.AliasEvent:
            raise _not_a_tree(f"alias *{event.anchor}", event.start_mark)
        if event.anchor is not None:
            raise _not_a_tree(f"anchor &{event.anchor}", event.start_mark)
        if not self.room:
            raise ComposerError(None, None, f"found a collection nested deeper than "
                                f"{MAX_DEPTH} levels", event.start_mark)
        sequence = cls is yaml.SequenceStartEvent
        tag = event.tag
        if tag is None or tag == "!":
            tag = self.resolve(yaml.SequenceNode if sequence else yaml.MappingNode,
                               None, event.implicit)
        if tag != (_SEQ if sequence else _MAP):
            kind = "sequence" if sequence else "mapping"
            self.unbuilt(ConstructorError(
                None, None, f"cannot build a {kind} tagged {tag!r}", event.start_mark))
        self.room -= 1
        get_event, node = self.get_event, self.node
        if sequence:
            data = []
            while (item := get_event()).__class__ is not yaml.SequenceEndEvent:
                data.append(node(item))
        else:
            data = {}
            while (key := get_event()).__class__ is not yaml.MappingEndEvent:
                if key.__class__ is yaml.ScalarEvent:
                    data[self.scalar(key, True)] = node(get_event())
                    continue
                node(key)
                self.unbuilt(ConstructorError("while constructing a mapping",
                                              event.start_mark, "found unhashable key",
                                              key.start_mark))
                node(get_event())
        self.room += 1
        return data

    def scalar(self, event, key: bool):
        value, tag = event.value, event.tag
        shared = None
        if tag is None or tag == "!":
            # with no path resolvers, the tag and so the value depend on the
            # text and flags alone: equal plain scalars are one object. An
            # anchored one is refused below, so its key never matches
            shared = (value, event.implicit, event.anchor)
            data = self.scalars.get(shared)
            if data is not None:
                return data
            tag = self.resolve(yaml.ScalarNode, value, event.implicit)
        if event.anchor is not None:
            raise _not_a_tree(f"anchor &{event.anchor}", event.start_mark)
        if key and tag == _VALUE:
            tag = _STR  # SafeConstructor reads a `=` key as text
            shared = None
        if tag == _STR:
            data = value  # what construct_yaml_str returns
        elif key and tag == _MERGE:
            raise _not_a_tree("merge key <<", event.start_mark)
        else:
            constructor = self.constructors.get(tag, self.constructors[None])
            try:
                data = constructor(self.loader, yaml.ScalarNode(
                    tag, value, event.start_mark, event.end_mark, event.style))
                if isinstance(data, GeneratorType):
                    # only a collection's constructor is a generator
                    raise ConstructorError(None, None, f"cannot build a scalar tagged {tag!r}",
                                           event.start_mark)
            except yaml.YAMLError as exc:
                self.unbuilt(exc)
                return None
            except Exception:  # the text does not fit its tag
                self.unbuilt(ConstructorError(
                    None, None, f"cannot read {value!r} as {tag.replace(_TAG, '!!')}",
                    event.start_mark))
                return None
        if shared is not None and data.__class__ in _SHARED_TYPES:
            self.scalars[shared] = data
        return data


def _load_yaml(text: str) -> Any:
    """Parse one YAML document with safe construction; raises yaml.YAMLError."""
    try:
        loader = _LOADER(text)
        try:
            return _Values(loader).document()
        finally:
            loader.dispose()
    except UnicodeEncodeError as exc:
        # libyaml reads UTF-8, so a lone surrogate fails to encode before
        # parsing; the pure-Python reader rejects it as unprintable
        raise yaml.YAMLError(f"unacceptable character #x{ord(exc.object[exc.start]):04x} "
                             f"at position {exc.start}: {exc.reason}") from exc


def read_yaml(text: str, what: str = "") -> Any:
    """``_load_yaml``, a YAML error raised as "invalid {what}YAML"."""
    try:
        return _load_yaml(text)
    except yaml.YAMLError as exc:
        raise ConfigParseError(f"invalid {what}YAML: {exc}") from exc


def read_file(path: str | Path, what: str = "") -> str:
    """The UTF-8 text of the file at ``path``, which errors name "{what}{path}"."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigParseError(f"cannot read {what}{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"{what}{path} is not UTF-8: {exc}") from exc


def loads(text: str) -> TwinConfiguration:
    doc = read_yaml(text)
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigParseError("configuration must be a mapping")
    twin_id = doc.get("twin", "twin")
    if not isinstance(twin_id, str) or not twin_id:
        raise ConfigParseError("twin: expected a non-empty string")

    gateways = _each(doc, "gateways", "", _parse_gateway)
    languages = _each(doc, "languages", "", _parse_language)
    lang_index = {l.language_id: l for l in languages}
    managers = _each(doc, "managers", "", _parse_manager)
    models = _each(doc, "models", "", lambda m, path: _parse_model(m, path, lang_index))
    mappings = _each(doc, "mappings", "", _parse_mapping)
    services = _each(doc, "services", "", _parse_service)
    data_obj = _as_dict(doc.get("data"), "data")
    data = DataConfig(
        journal=_optional(data_obj, "journal", "data"),
        mandatory_metadata=_as_bool(data_obj.get("mandatory_metadata", True),
                                    "data.mandatory_metadata"),
        model_linkage=_as_bool(data_obj.get("model_linkage", True), "data.model_linkage"))

    id_lists = {
        "gateway": [g.descriptor.gateway_id for g in gateways],
        "language": [l.language_id for l in languages],
        "manager": [m.manager_id for m in managers],
        "model": [m.model_id for m in models],
        "mapping": [m.mapping_id for m in mappings],
        "service": [s.service_id for s in services],
    }
    for name, ids in id_lists.items():
        dupes = [i for i, n in Counter(ids).items() if n > 1]
        if dupes:
            raise ConfigParseError(f"duplicate {name} id(s): {sorted(dupes)}")

    return TwinConfiguration(twin_id=twin_id, gateways=gateways, languages=languages,
                             managers=managers, models=models, mappings=mappings,
                             services=services, data=data)


def load(path: str | Path) -> TwinConfiguration:
    return loads(read_file(path))
