"""The full-copy transaction: the oracle for ``ModelRegistry.apply_operator``.

This is operator application done the obvious way: copy the whole model
through ``Model.from_dict(model.to_dict())``, run the effect on the copy,
check every element against the language and every rule, diff every element,
and commit. It costs three passes over the model per write, which is why the
registry copies and checks only what the effect touches; the two must agree
on every outcome, and the property tests in test_transactions.py hold them
to it.
"""

from __future__ import annotations

from twinrt.data import PropertyType
from twinrt.errors import IntegrityViolation, SchemaViolation, UnknownOperator
from twinrt.models import (
    LAST_UPDATE_PROPERTY,
    Model,
    ModelingLanguage,
    ModelProperty,
    ModelRegistry,
    OperatorOutcome,
    RuleContext,
)
from twinrt.values import check_value


def apply_full_copy(registry: ModelRegistry, manager_id: str, operator_id: str,
                    model_id: str, args: dict, cause: str = "operator") -> OperatorOutcome:
    """Apply an operator to ``registry`` through a copy of the whole model."""
    model = registry.model(model_id)
    applied_by, chain = registry._route(manager_id, operator_id, model_id)
    operator = registry._managers[applied_by].operators.get(operator_id)
    if operator is None:
        raise UnknownOperator(f"{applied_by} has no operator {operator_id!r}")
    if operator.applicable_language not in ("*", model.language_id):
        raise UnknownOperator(
            f"operator {operator_id!r} does not apply to language {model.language_id!r}")
    registry._check_args(operator, args)

    candidate = Model.from_dict(model.to_dict())
    operator.effect(candidate, args)
    language = registry.language(model.language_id)
    validate_full(registry, candidate, language, owner=registry._owner.get(model_id))
    changed = diff_full(model, candidate)
    tick = registry.tick_supplier()
    if candidate.supports_last_update:
        candidate.model_properties[LAST_UPDATE_PROPERTY] = ModelProperty(
            LAST_UPDATE_PROPERTY, tick, PropertyType.LAST_UPDATE)
    registry._models[model_id] = candidate
    registry.sanctioned_mutations += 1
    for listener in registry.change_listeners:
        listener(model_id, changed, cause, tick)
    return OperatorOutcome(model_id=model_id, operator_id=operator_id,
                           applied_by=applied_by, delegation_chain=tuple(chain),
                           changed=changed, tick=tick)


def validate_full(registry: ModelRegistry, model: Model, language: ModelingLanguage,
                  owner: str | None = None) -> None:
    """Every element against the language, then every rule over the whole model."""
    for element in model.elements.values():
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
    context = RuleContext(registry._peer_models(model, owner))
    failed: list[str] = []
    messages: list[str] = []
    for rule in language.rules:
        violations = rule.check(model, context)
        if violations:
            failed.append(rule.rule_id)
            messages.extend(violations)
    if failed:
        raise IntegrityViolation("; ".join(messages), failed_rules=failed)


def diff_full(old: Model, new: Model) -> tuple[tuple[str, str], ...]:
    """(element, property) pairs that differ, over every element of both models."""
    changed: list[tuple[str, str]] = []
    for eid in sorted(set(old.elements) | set(new.elements)):
        old_el = old.elements.get(eid)
        new_el = new.elements.get(eid)
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

