"""Managed models: the twin's mutable state behind a mediation boundary.

Every model conforms to a registered modeling language (element kinds, typed
property schemas, integrity rules) and is owned by exactly one model
manager. The only ways a model changes are operator application (built-in
create/delete/set plus registered custom operators), mode switching, and
snapshot restore. Operator application is transactional: either the
transformed model satisfies every integrity rule and is committed, or the
model is left untouched. A transaction copies only the elements its operator
touches and re-checks only those, so its cost follows what changed, not the
size of the model. Managers may delegate operator applications to peers
along declared per-operator rules; a request never visits the same manager
twice.
"""

from __future__ import annotations

import copy
import fnmatch
from collections.abc import Iterable, Iterator, MutableMapping
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .data import ModelElementRef, PropertyType
from .errors import (
    ArgumentMismatch,
    DelegationCycle,
    DuplicateLanguage,
    DuplicateModel,
    IllFormedLanguage,
    IntegrityViolation,
    NotResponsible,
    SchemaViolation,
    UnknownLanguage,
    UnknownModel,
    UnknownOperator,
)
from .values import VALUE_TYPES, Value, canonical_json, check_value, digest, validate_value

MODE_PROPERTY = "mode"
LAST_UPDATE_PROPERTY = "last-update"


class ModelMode(str, Enum):
    ONLINE = "online"
    OFFLINE = "offline"


@dataclass(frozen=True)
class ModelProperty:
    name: str
    value: Value
    property_type: PropertyType | None = None


@dataclass
class ModelElement:
    element_id: str
    kind: str
    properties: dict[str, ModelProperty] = field(default_factory=dict)

    def value(self, name: str) -> Value:
        prop = self.properties.get(name)
        return prop.value if prop is not None else None


@dataclass
class Model:
    model_id: str
    language_id: str
    elements: dict[str, ModelElement] = field(default_factory=dict)
    model_properties: dict[str, ModelProperty] = field(default_factory=dict)

    @property
    def mode(self) -> ModelMode:
        prop = self.model_properties.get(MODE_PROPERTY)
        return ModelMode(prop.value) if prop is not None else ModelMode.OFFLINE

    @property
    def supports_last_update(self) -> bool:
        return LAST_UPDATE_PROPERTY in self.model_properties

    @property
    def last_update(self) -> int:
        prop = self.model_properties.get(LAST_UPDATE_PROPERTY)
        return int(prop.value) if prop is not None else 0

    def to_dict(self) -> dict:
        def prop_dict(p: ModelProperty) -> dict:
            return {"value": p.value,
                    "type": p.property_type.value if p.property_type else None}

        return {
            "model_id": self.model_id,
            "language": self.language_id,
            "elements": {
                eid: {"kind": el.kind,
                      "properties": {n: prop_dict(p) for n, p in sorted(el.properties.items())}}
                for eid, el in sorted(self.elements.items())
            },
            "model_properties": {n: prop_dict(p)
                                 for n, p in sorted(self.model_properties.items())},
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Model":
        def prop(name: str, spec: dict) -> ModelProperty:
            ptype = PropertyType(spec["type"]) if spec.get("type") else None
            return ModelProperty(name=name, value=spec["value"], property_type=ptype)

        elements = {
            eid: ModelElement(element_id=eid, kind=espec["kind"],
                              properties={n: prop(n, p) for n, p in espec["properties"].items()})
            for eid, espec in obj["elements"].items()
        }
        return cls(model_id=obj["model_id"], language_id=obj["language"], elements=elements,
                   model_properties={n: prop(n, p)
                                     for n, p in obj["model_properties"].items()})

    def digest(self) -> str:
        return digest(self.to_dict())


class RuleContext:
    """Read access to the other models of the owning manager."""

    def __init__(self, models: dict[str, Model]):
        self.models = models


@dataclass(frozen=True)
class PropertyRule:
    """Declarative integrity rule on elements of one kind.

    Compares a property against a constant bound or a sibling property with
    one of le/lt/ge/gt/eq/ne. Elements missing either property pass
    vacuously.
    """

    rule_id: str
    kind: str
    property_name: str
    op: str
    bound: Value | None = None
    other_property: str | None = None

    _OPS = {"le": lambda a, b: a <= b, "lt": lambda a, b: a < b,
            "ge": lambda a, b: a >= b, "gt": lambda a, b: a > b,
            "eq": lambda a, b: a == b, "ne": lambda a, b: a != b}

    def __post_init__(self):
        if self.op not in self._OPS:
            raise IllFormedLanguage(f"rule {self.rule_id}: unknown comparison {self.op!r}")
        if (self.bound is None) == (self.other_property is None):
            raise IllFormedLanguage(
                f"rule {self.rule_id}: exactly one of bound/other_property required")

    def check(self, model: Model, context: RuleContext) -> list[str]:
        return [violation for element in model.elements.values()
                for violation in self.check_element(model.model_id, element)]

    def check_element(self, model_id: str, element: ModelElement) -> list[str]:
        """Violations of this rule by one element; the rule reads nothing else."""
        if element.kind != self.kind:
            return []
        left = element.value(self.property_name)
        right = self.bound if self.other_property is None else element.value(self.other_property)
        if left is None or right is None:
            return []
        try:
            ok = self._OPS[self.op](left, right)
        except TypeError:
            ok = False
        if ok:
            return []
        return [f"{self.rule_id}: {model_id}/{element.element_id}."
                f"{self.property_name}={left!r} violates {self.op} {right!r}"]


@dataclass(frozen=True)
class CallableRule:
    """Programmatically registered rule; not expressible in configuration."""

    rule_id: str
    fn: Callable[[Model, RuleContext], list[str]]

    def check(self, model: Model, context: RuleContext) -> list[str]:
        return self.fn(model, context)


@dataclass(frozen=True)
class ModelingLanguage:
    language_id: str
    element_kinds: frozenset[str]
    property_schemas: dict[str, dict[str, str]]
    rules: tuple = ()

    def schema_for(self, kind: str) -> dict[str, str]:
        return self.property_schemas.get(kind, {})


@dataclass(frozen=True)
class DelegationRule:
    model_pattern: str
    target: str


@dataclass(frozen=True)
class OperatorDef:
    operator_id: str
    applicable_language: str  # language_id or "*"
    params: tuple[tuple[str, str], ...]  # (name, value type) with "any" allowed
    effect: Callable[[Model, dict[str, Value]], None]
    delegations: tuple[DelegationRule, ...] = ()


@dataclass(frozen=True)
class OperatorOutcome:
    model_id: str
    operator_id: str
    applied_by: str
    delegation_chain: tuple[str, ...]
    changed: tuple[tuple[str, str], ...]
    tick: int


@dataclass(frozen=True)
class ModelSnapshot:
    """Preserved model content; restoring yields an Offline copy.

    Mode is excluded so a snapshot of an Online model restores and
    re-snapshots identically. Equality ignores the source model id.
    """

    source_model_id: str = field(compare=False)
    language_id: str
    payload: dict = field(compare=False, default_factory=dict)
    canonical: str = ""

    @classmethod
    def of(cls, model: Model) -> "ModelSnapshot":
        payload = model.to_dict()
        payload.pop("model_id")
        payload["model_properties"].pop(MODE_PROPERTY, None)
        return cls(source_model_id=model.model_id, language_id=model.language_id,
                   payload=payload, canonical=canonical_json(payload))


class ModelManager:
    def __init__(self, manager_id: str):
        self.manager_id = manager_id
        self.managed: set[str] = set()
        self.operators: dict[str, OperatorDef] = {}


def _effect_create_element(model: Model, args: dict[str, Value]) -> None:
    eid = args["element"]
    if eid in model.elements:
        raise ArgumentMismatch(f"element {eid!r} already exists")
    props = {name: ModelProperty(name=name, value=value)
             for name, value in args.get("properties", {}).items()}
    model.elements[eid] = ModelElement(element_id=eid, kind=args["kind"], properties=props)


def _effect_delete_element(model: Model, args: dict[str, Value]) -> None:
    eid = args["element"]
    if eid not in model.elements:
        raise ArgumentMismatch(f"no element {eid!r}")
    del model.elements[eid]


def _effect_set_property(model: Model, args: dict[str, Value]) -> None:
    eid = args["element"]
    element = model.elements.get(eid)
    if element is None:
        raise ArgumentMismatch(f"no element {eid!r}")
    name = args["property"]
    old = element.properties.get(name)
    element.properties[name] = ModelProperty(
        name=name, value=args["value"],
        property_type=old.property_type if old is not None else None)


BUILTIN_OPERATORS = (
    OperatorDef("create_element", "*",
                (("element", "text"), ("kind", "text"), ("properties", "record")),
                _effect_create_element),
    OperatorDef("delete_element", "*", (("element", "text"),), _effect_delete_element),
    OperatorDef("set_property", "*",
                (("element", "text"), ("property", "text"), ("value", "any")),
                _effect_set_property),
)

# optional operator arguments that may be omitted in calls
_OPTIONAL_ARGS = {"create_element": {"properties"}}


class _CopyOnAccess(MutableMapping):
    """One transaction's view of a committed model's elements.

    An element is copied the first time the effect reads or writes it
    through ``[]`` or ``get``, so the effect may mutate what it gets; ``in``,
    ``len`` and iterating over keys copy nothing, while ``values()`` and
    ``items()`` copy every element they yield. Creates and deletes are
    recorded; the committed dict is never written to. Keys iterate in
    committed order followed by creations, as they would in a copied dict.
    """

    def __init__(self, committed: dict[str, ModelElement]):
        self._committed = committed
        self._copies: dict[str, ModelElement] = {}  # committed ids read or replaced
        self._created: dict[str, ModelElement] = {}  # ids new to the model, in order
        self._deleted: set[str] = set()  # committed ids removed

    def _live(self, element_id: str) -> bool:
        return element_id in self._committed and element_id not in self._deleted

    def __contains__(self, element_id) -> bool:
        return element_id in self._created or self._live(element_id)

    def __getitem__(self, element_id: str) -> ModelElement:
        if element_id in self._created:
            return self._created[element_id]
        if not self._live(element_id):
            raise KeyError(element_id)
        element = self._copies.get(element_id)
        if element is None:
            old = self._committed[element_id]
            element = self._copies[element_id] = ModelElement(
                old.element_id, old.kind, dict(sorted(old.properties.items())))
        return element

    def __setitem__(self, element_id: str, element: ModelElement) -> None:
        if self._live(element_id):
            self._copies[element_id] = element
        else:
            self._created[element_id] = element

    def __delitem__(self, element_id: str) -> None:
        if element_id in self._created:
            del self._created[element_id]
        elif self._live(element_id):
            self._deleted.add(element_id)
            self._copies.pop(element_id, None)
        else:
            raise KeyError(element_id)

    def __iter__(self) -> Iterator[str]:
        for element_id in self._committed:
            if element_id not in self._deleted:
                yield element_id
        yield from self._created

    def __len__(self) -> int:
        return len(self._committed) - len(self._deleted) + len(self._created)

    def touched(self) -> set[str]:
        """Every id read, written, created or deleted."""
        return self._copies.keys() | self._created.keys() | self._deleted

    def surviving(self) -> list[str]:
        """Touched ids still present, in the order a copy of the whole model
        would list them: committed ids sorted, then creations."""
        return sorted(self._copies) + list(self._created)

    def merged(self) -> dict[str, ModelElement]:
        """The committed elements with this transaction applied, in id order."""
        elements = dict(self._committed)
        elements.update(self._copies)
        for element_id in self._deleted:
            del elements[element_id]
        if self._created:
            elements.update(self._created)
            elements = dict(sorted(elements.items()))
        return elements


class ModelRegistry:
    """Owner of all languages, managers, and models.

    ``tick_supplier`` stamps last-update properties; the engine injects its
    own. Change and mode listeners let the engine maintain its edit ledger
    and suspend or resume mappings. ``sanctioned_mutations`` counts every
    committed mutation (operator application, mode switch, restore) so tests
    can prove no other code path mutates a model.
    """

    def __init__(self) -> None:
        self._languages: dict[str, ModelingLanguage] = {}
        self._managers: dict[str, ModelManager] = {}
        self._models: dict[str, Model] = {}
        self._owner: dict[str, str] = {}
        self.tick_supplier: Callable[[], int] = lambda: 0
        self.change_listeners: list[Callable[[str, tuple, str, int], None]] = []
        self.mode_listeners: list[Callable[[str, ModelMode], None]] = []
        self.sanctioned_mutations = 0

    # --- languages ---

    def register_language(self, language: ModelingLanguage) -> None:
        if language.language_id in self._languages:
            raise DuplicateLanguage(f"language {language.language_id!r} already registered")
        for kind in language.property_schemas:
            if kind not in language.element_kinds:
                raise IllFormedLanguage(
                    f"language {language.language_id!r}: schema for undeclared kind {kind!r}")
        for kind, schema in language.property_schemas.items():
            for name, vtype in schema.items():
                if vtype not in VALUE_TYPES:
                    raise IllFormedLanguage(
                        f"language {language.language_id!r}: property {kind}.{name} "
                        f"has unknown type {vtype!r}")
        for rule in language.rules:
            if isinstance(rule, PropertyRule) and rule.kind not in language.element_kinds:
                raise IllFormedLanguage(
                    f"language {language.language_id!r}: rule {rule.rule_id!r} "
                    f"references undeclared kind {rule.kind!r}")
        self._languages[language.language_id] = language

    def language(self, language_id: str) -> ModelingLanguage:
        lang = self._languages.get(language_id)
        if lang is None:
            raise UnknownLanguage(f"language {language_id!r} not registered")
        return lang

    def languages(self) -> list[str]:
        return sorted(self._languages)

    # --- managers ---

    def create_manager(self, manager_id: str) -> ModelManager:
        if manager_id in self._managers:
            raise ValueError(f"manager {manager_id!r} already exists")
        manager = ModelManager(manager_id)
        for op in BUILTIN_OPERATORS:
            manager.operators[op.operator_id] = op
        self._managers[manager_id] = manager
        return manager

    def manager(self, manager_id: str) -> ModelManager:
        mgr = self._managers.get(manager_id)
        if mgr is None:
            raise NotResponsible(f"unknown manager {manager_id!r}")
        return mgr

    def managers(self) -> list[str]:
        return sorted(self._managers)

    def register_operator(self, manager_id: str, operator: OperatorDef) -> None:
        self.manager(manager_id).operators[operator.operator_id] = operator

    def add_delegation(self, manager_id: str, operator_id: str,
                       target: str, model_pattern: str = "*") -> None:
        mgr = self.manager(manager_id)
        op = mgr.operators.get(operator_id)
        if op is None:
            raise UnknownOperator(f"{manager_id} has no operator {operator_id!r}")
        mgr.operators[operator_id] = OperatorDef(
            op.operator_id, op.applicable_language, op.params, op.effect,
            op.delegations + (DelegationRule(model_pattern=model_pattern, target=target),))

    # --- models ---

    def create_model(self, manager_id: str, model_id: str, language_id: str,
                     initial_elements: list[ModelElement] | None = None,
                     track_last_update: bool = False) -> Model:
        mgr = self.manager(manager_id)
        language = self.language(language_id)
        if model_id in self._models:
            raise DuplicateModel(f"model {model_id!r} already exists")
        elements: dict[str, ModelElement] = {}
        for element in initial_elements or []:
            if element.element_id in elements:
                raise IntegrityViolation(f"duplicate element {element.element_id!r}")
            elements[element.element_id] = element
        # committed element dicts are kept in id order, so effects see elements in id order
        model = Model(model_id=model_id, language_id=language_id,
                      elements=dict(sorted(elements.items())))
        model.model_properties[MODE_PROPERTY] = ModelProperty(
            MODE_PROPERTY, ModelMode.OFFLINE.value)
        if track_last_update:
            model.model_properties[LAST_UPDATE_PROPERTY] = ModelProperty(
                LAST_UPDATE_PROPERTY, 0, PropertyType.LAST_UPDATE)
        self._validate(model, language, owner=manager_id)
        self._models[model_id] = model
        self._owner[model_id] = manager_id
        mgr.managed.add(model_id)
        return model

    def model(self, model_id: str) -> Model:
        model = self._models.get(model_id)
        if model is None:
            raise UnknownModel(f"model {model_id!r} does not exist")
        return model

    def models(self) -> list[str]:
        return sorted(self._models)

    def owner_of(self, model_id: str) -> str:
        self.model(model_id)
        return self._owner[model_id]

    def resolve(self, ref: ModelElementRef) -> bool:
        """Resolver hook for the data manager's model links."""
        model = self._models.get(ref.model_id)
        if model is None:
            return False
        element = model.elements.get(ref.element_id)
        if element is None:
            return False
        return ref.property_name is None or ref.property_name in element.properties

    def property_value(self, model_id: str, element_id: str, name: str) -> Value:
        model = self.model(model_id)
        element = model.elements.get(element_id)
        if element is None or name not in element.properties:
            raise UnknownModel(f"{model_id}/{element_id}.{name} does not resolve")
        return element.properties[name].value

    def declared_type(self, model_id: str, element_id: str, name: str) -> str | None:
        """The value type the model's language declares for ``name`` on the
        element's kind; None when the model or element does not resolve or
        an id is not text."""
        if not (isinstance(model_id, str) and isinstance(element_id, str)
                and isinstance(name, str)):
            return None
        model = self._models.get(model_id)
        element = model.elements.get(element_id) if model is not None else None
        if element is None:
            return None
        return self.language(model.language_id).schema_for(element.kind).get(name)

    def digest(self, model_id: str) -> str:
        return self.model(model_id).digest()

    def digests(self) -> dict[str, str]:
        return {mid: m.digest() for mid, m in sorted(self._models.items())}

    # --- mutation surface ---

    def apply_operator(self, manager_id: str, operator_id: str, model_id: str,
                       args: dict[str, Value], cause: str = "operator") -> OperatorOutcome:
        model = self.model(model_id)
        applied_by, chain = self._route(manager_id, operator_id, model_id)
        operator = self._managers[applied_by].operators.get(operator_id)
        if operator is None:
            raise UnknownOperator(f"{applied_by} has no operator {operator_id!r}")
        if operator.applicable_language not in ("*", model.language_id):
            raise UnknownOperator(
                f"operator {operator_id!r} does not apply to language {model.language_id!r}")
        self._check_args(operator, args)

        elements = _CopyOnAccess(model.elements)
        view = Model(model_id, model.language_id, elements, dict(model.model_properties))
        operator.effect(view, args)
        candidate = Model(model_id, model.language_id, elements.merged(), view.model_properties)
        language = self.language(model.language_id)
        self._validate(candidate, language, owner=self._owner.get(model_id),
                       element_ids=elements.surviving())
        changed = _diff_elements(model.elements, candidate.elements, elements.touched())
        tick = self.tick_supplier()
        if candidate.supports_last_update:
            candidate.model_properties[LAST_UPDATE_PROPERTY] = ModelProperty(
                LAST_UPDATE_PROPERTY, tick, PropertyType.LAST_UPDATE)
        self._models[model_id] = candidate
        self.sanctioned_mutations += 1
        for listener in self.change_listeners:
            listener(model_id, changed, cause, tick)
        return OperatorOutcome(model_id=model_id, operator_id=operator_id,
                               applied_by=applied_by, delegation_chain=tuple(chain),
                               changed=changed, tick=tick)

    def set_mode(self, manager_id: str, model_id: str, mode: ModelMode) -> None:
        model = self.model(model_id)
        if model_id not in self.manager(manager_id).managed:
            raise NotResponsible(f"{manager_id} is not responsible for {model_id}")
        if model.mode is mode:
            return  # idempotent no-op
        model.model_properties[MODE_PROPERTY] = ModelProperty(MODE_PROPERTY, mode.value)
        self.sanctioned_mutations += 1
        for listener in self.mode_listeners:
            listener(model_id, mode)

    def snapshot(self, model_id: str) -> ModelSnapshot:
        return ModelSnapshot.of(self.model(model_id))

    def restore(self, manager_id: str, snapshot: ModelSnapshot,
                model_id: str | None = None) -> Model:
        mgr = self.manager(manager_id)
        language = self.language(snapshot.language_id)
        if model_id is None:
            base, n = snapshot.source_model_id, 1
            while f"{base}~{n}" in self._models:
                n += 1
            model_id = f"{base}~{n}"
        elif model_id in self._models:
            raise DuplicateModel(f"model {model_id!r} already exists")
        payload = copy.deepcopy(snapshot.payload)
        payload["model_id"] = model_id
        model = Model.from_dict(payload)
        model.model_properties[MODE_PROPERTY] = ModelProperty(
            MODE_PROPERTY, ModelMode.OFFLINE.value)
        self._validate(model, language, owner=manager_id)
        self._models[model_id] = model
        self._owner[model_id] = manager_id
        mgr.managed.add(model_id)
        self.sanctioned_mutations += 1
        return model

    # --- internals ---

    def _route(self, manager_id: str, operator_id: str, model_id: str) -> tuple[str, list[str]]:
        current = self.manager(manager_id)
        visited = {manager_id}
        chain: list[str] = []
        while True:
            if model_id in current.managed:
                return current.manager_id, chain
            operator = current.operators.get(operator_id)
            if operator is None:
                raise UnknownOperator(f"{current.manager_id} has no operator {operator_id!r}")
            target = None
            for rule in operator.delegations:
                if fnmatch.fnmatchcase(model_id, rule.model_pattern):
                    target = rule.target
                    break
            if target is None:
                raise NotResponsible(
                    f"{current.manager_id} is not responsible for {model_id} "
                    f"and declares no matching delegation")
            if target in visited:
                raise DelegationCycle(
                    f"delegation for {operator_id} on {model_id} revisits {target}")
            if target not in self._managers:
                raise NotResponsible(f"delegation target {target!r} does not exist")
            if not chain:
                chain.append(current.manager_id)
            chain.append(target)
            visited.add(target)
            current = self._managers[target]

    @staticmethod
    def _check_args(operator: OperatorDef, args: dict[str, Value]) -> None:
        if not isinstance(args, dict):
            raise ArgumentMismatch("operator arguments must be a mapping")
        optional = _OPTIONAL_ARGS.get(operator.operator_id, set())
        declared = {name for name, _ in operator.params}
        unknown = set(args) - declared
        if unknown:
            raise ArgumentMismatch(f"unknown argument(s) {sorted(unknown)}")
        for name, vtype in operator.params:
            if name not in args:
                if name in optional:
                    continue
                raise ArgumentMismatch(f"missing argument {name!r}")
            try:
                if vtype == "any":
                    validate_value(args[name])
                else:
                    check_value(args[name], vtype)
            except SchemaViolation as exc:
                raise ArgumentMismatch(f"argument {name!r}: {exc}") from exc

    def _validate(self, model: Model, language: ModelingLanguage, owner: str | None = None,
                  element_ids: Iterable[str] | None = None) -> None:
        """Check ``model`` against ``language``, raising IntegrityViolation.

        ``element_ids`` limits the kind, schema and PropertyRule checks to
        those elements, in that order; the rest are unchanged since they last
        passed. CallableRules always see the whole model and its peers.
        """
        elements = (list(model.elements.values()) if element_ids is None
                    else [model.elements[eid] for eid in element_ids])
        for element in elements:
            if element.kind not in language.element_kinds:
                raise IntegrityViolation(
                    f"element {element.element_id!r} has undeclared kind {element.kind!r}",
                    failed_rules=["kind-declared"])
            schema = language.schema_for(element.kind)
            for name, prop in element.properties.items():
                if name not in schema:
                    raise IntegrityViolation(
                        f"property {element.element_id}.{name} not declared for kind "
                        f"{element.kind!r}", failed_rules=["property-declared"])
                try:
                    check_value(prop.value, schema[name])
                except SchemaViolation as exc:
                    raise IntegrityViolation(
                        f"property {element.element_id}.{name}: {exc}",
                        failed_rules=["property-typed"]) from exc
        context = RuleContext(self._peer_models(model, owner))
        failed: list[str] = []
        messages: list[str] = []
        for rule in language.rules:
            if isinstance(rule, PropertyRule):
                violations = [violation for element in elements
                              for violation in rule.check_element(model.model_id, element)]
            else:
                violations = rule.check(model, context)
            if violations:
                failed.append(rule.rule_id)
                messages.extend(violations)
        if failed:
            raise IntegrityViolation("; ".join(messages), failed_rules=failed)

    def _peer_models(self, model: Model, owner: str | None) -> dict[str, Model]:
        if owner is None:
            owner = self._owner.get(model.model_id)
        if owner is None or owner not in self._managers:
            return {model.model_id: model}
        peers = {mid: self._models[mid]
                 for mid in self._managers[owner].managed if mid in self._models}
        # the candidate stands in for its committed state during validation
        peers[model.model_id] = model
        return peers


def _diff_elements(old: dict[str, ModelElement], new: dict[str, ModelElement],
                   element_ids: Iterable[str]) -> tuple[tuple[str, str], ...]:
    """(element, property) pairs that differ between ``old`` and ``new``.

    Only ``element_ids`` are compared, in id order; a created or deleted
    element contributes all of its properties.
    """
    changed: list[tuple[str, str]] = []
    for eid in sorted(element_ids):
        old_el = old.get(eid)
        new_el = new.get(eid)
        if old_el is None:
            changed.extend((eid, name) for name in sorted(new_el.properties))
            continue
        if new_el is None:
            changed.extend((eid, name) for name in sorted(old_el.properties))
            continue
        if old_el.kind != new_el.kind:
            changed.append((eid, "*"))
        for name in sorted(set(old_el.properties) | set(new_el.properties)):
            if old_el.properties.get(name) != new_el.properties.get(name):
                changed.append((eid, name))
    return tuple(changed)
