"""Taxonomy classification and the seven-rule configuration audit.

Classification follows the data-flow taxonomy: with no enabled mappings a
configuration is a digital model; an automated flow from the actual system
makes it a digital shadow; an automated flow back to the actual system as
well makes it a digital twin. "Automated" means an enabled mapping exists —
flows outside the configuration have no representation and cannot count.

The audit evaluates seven structural rules (C1..C7) and reports each as
satisfied, violated, or not applicable, with findings naming the
configuration items involved. Both operations are pure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum

from .config import TwinConfiguration
from .engine import Direction, TriggerKind
from .errors import TwinError, UnresolvedReference
from .gateway import ElementKind, PropertyAccess
from .runtime import build_registry
from .services import BUILTIN_SERVICE_NAMES


class TwinCategory(str, Enum):
    DIGITAL_MODEL = "digital-model"
    DIGITAL_SHADOW = "digital-shadow"
    DIGITAL_TWIN = "digital-twin"


@dataclass(frozen=True, slots=True)
class Classification:
    category: TwinCategory
    evidence: tuple[str, ...]  # mapping ids justifying the verdict

    def to_dict(self) -> dict:
        return {"category": self.category.value, "evidence": list(self.evidence)}


class RuleStatus(str, Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True, slots=True)
class RuleResult:
    conclusion: str
    title: str
    status: RuleStatus
    findings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"conclusion": self.conclusion, "title": self.title,
                "status": self.status.value, "findings": list(self.findings)}


@dataclass(frozen=True, slots=True)
class ConformanceReport:
    results: tuple[RuleResult, ...]

    def __post_init__(self):
        conclusions = [r.conclusion for r in self.results]
        if conclusions != [f"C{i}" for i in range(1, 8)]:
            raise ValueError(f"report must carry exactly C1..C7, got {conclusions}")

    @property
    def violated(self) -> list[str]:
        return [r.conclusion for r in self.results if r.status is RuleStatus.VIOLATED]

    def result(self, conclusion: str) -> RuleResult:
        for r in self.results:
            if r.conclusion == conclusion:
                return r
        raise KeyError(conclusion)

    def to_dict(self) -> dict:
        return {"results": [r.to_dict() for r in self.results],
                "violated": self.violated}


def classify(config: TwinConfiguration) -> Classification:
    """Pure data-flow classification of a configuration.

    Disabled mappings count as absent. Raises UnresolvedReference if the
    configuration is not referentially closed.
    """
    dangling = _closure_findings(config)
    if dangling:
        raise UnresolvedReference("; ".join(dangling))
    enabled = [m for m in config.mappings if m.enabled]
    to_dt = sorted(m.mapping_id for m in enabled
                   if m.direction in (Direction.AS_TO_DT, Direction.BIDIRECTIONAL))
    to_as = sorted(m.mapping_id for m in enabled
                   if m.direction in (Direction.DT_TO_AS, Direction.BIDIRECTIONAL))
    if to_dt and to_as:
        return Classification(TwinCategory.DIGITAL_TWIN,
                              tuple(sorted(set(to_dt) | set(to_as))))
    if to_dt:
        return Classification(TwinCategory.DIGITAL_SHADOW, tuple(to_dt))
    return Classification(TwinCategory.DIGITAL_MODEL, ())


def audit(config: TwinConfiguration) -> ConformanceReport:
    """Evaluate the seven conformance rules against a configuration."""
    return ConformanceReport(results=(
        _c1_asset_interfaces(config),
        _c2_abstraction_levels(config),
        _c3_managed_models(config),
        _c4_data_metadata(config),
        _c5_gateway_capabilities(config),
        _c6_gated_services(config),
        _c7_closed_boundary(config),
    ))


# --- individual rules -----------------------------------------------------------


def _c1_asset_interfaces(config: TwinConfiguration) -> RuleResult:
    title = "actual systems are reached only through gateway interfaces"
    if not config.gateways:
        return RuleResult("C1", title, RuleStatus.NOT_APPLICABLE,
                          ("no gateways declared; nothing is twinned",))
    bad = [gw.descriptor.gateway_id for gw in config.gateways
           if not gw.descriptor.endpoint.strip()]
    if bad:
        return RuleResult("C1", title, RuleStatus.VIOLATED,
                          tuple(f"gateway {g!r} has no transport endpoint" for g in bad))
    return RuleResult("C1", title, RuleStatus.SATISFIED,
                      (f"{len(config.gateways)} gateway(s) carry all asset communication",))


def _c2_abstraction_levels(config: TwinConfiguration) -> RuleResult:
    title = "digital objects exist on both data and model abstraction levels"
    if not config.models:
        return RuleResult("C2", title, RuleStatus.VIOLATED,
                          ("no models declared; only the data level is present",))
    return RuleResult("C2", title, RuleStatus.SATISFIED,
                      (f"{len(config.models)} model(s) alongside the managed data store",))


def _c3_managed_models(config: TwinConfiguration) -> RuleResult:
    title = "every model has one responsible manager; changes are operator-mediated"
    owners: dict[str, list[str]] = {m.model_id: [] for m in config.models}
    for manager in config.managers:
        for model_id in manager.models:
            if model_id in owners:
                owners[model_id].append(manager.manager_id)
    findings = []
    for model_id, managers in sorted(owners.items()):
        if not managers:
            findings.append(f"model {model_id!r} has no responsible manager")
        elif len(managers) > 1:
            findings.append(f"model {model_id!r} is claimed by {sorted(managers)}")
    if findings:
        return RuleResult("C3", title, RuleStatus.VIOLATED, tuple(findings))
    return RuleResult("C3", title, RuleStatus.SATISFIED,
                      (f"{len(config.models)} model(s) under {len(config.managers)} "
                       f"manager(s); mutation only via management operators",))


def _c4_data_metadata(config: TwinConfiguration) -> RuleResult:
    title = "data carries mandatory metadata and can be related to models"
    findings = []
    if not config.data.mandatory_metadata:
        findings.append("mandatory origin/timeliness metadata is disabled")
    if not config.data.model_linkage:
        findings.append("model linkage of data records is disabled")
    if findings:
        return RuleResult("C4", title, RuleStatus.VIOLATED, tuple(findings))
    return RuleResult("C4", title, RuleStatus.SATISFIED,
                      ("records require origin and timeliness; model linkage enabled",))


def _c5_gateway_capabilities(config: TwinConfiguration) -> RuleResult:
    title = "used gateways are read/observed; commanded gateways are writable"
    enabled = [m for m in config.mappings if m.enabled]
    if not enabled:
        return RuleResult("C5", title, RuleStatus.NOT_APPLICABLE,
                          ("no enabled mappings; no gateway is exercised",))
    declared = {gw.descriptor.gateway_id: gw.descriptor for gw in config.gateways}
    findings: list[str] = []
    used = sorted({m.gateway_id for m in enabled if m.gateway_id in declared})
    for gateway_id in used:
        gw_mappings = [m for m in enabled if m.gateway_id == gateway_id]
        reads = [m for m in gw_mappings
                 if m.direction in (Direction.AS_TO_DT, Direction.BIDIRECTIONAL)]
        writes = [m for m in gw_mappings
                  if m.direction in (Direction.DT_TO_AS, Direction.BIDIRECTIONAL)]
        if not reads:
            findings.append(f"gateway {gateway_id!r} is commanded but never read or observed")
        for mapping in writes:
            decl = _declared(declared, gateway_id, mapping.gateway_property, ElementKind.PROPERTY)
            if decl is not None and decl.access is not PropertyAccess.READ_WRITE:
                findings.append(f"mapping {mapping.mapping_id!r} writes read-only "
                                f"property {gateway_id}/{mapping.gateway_property}")
    if findings:
        return RuleResult("C5", title, RuleStatus.VIOLATED, tuple(findings))
    return RuleResult("C5", title, RuleStatus.SATISFIED,
                      (f"{len(used)} gateway(s) exercised with read/observe flows",))


def _c6_gated_services(config: TwinConfiguration) -> RuleResult:
    title = "every service runs under an explicit grant"
    if not config.services:
        return RuleResult("C6", title, RuleStatus.NOT_APPLICABLE,
                          ("no services declared",))
    ungated = [s.service_id for s in config.services if s.grant is None]
    if ungated:
        return RuleResult("C6", title, RuleStatus.VIOLATED,
                          tuple(f"service {s!r} declares no grant" for s in sorted(ungated)))
    return RuleResult("C6", title, RuleStatus.SATISFIED,
                      (f"{len(config.services)} service(s), all explicitly gated",))


def _c7_closed_boundary(config: TwinConfiguration) -> RuleResult:
    title = "configuration is referentially closed with gateway/service touchpoints only"
    findings = _closure_findings(config) + _startup_findings(config)
    if findings:
        return RuleResult("C7", title, RuleStatus.VIOLATED, tuple(findings))
    return RuleResult("C7", title, RuleStatus.SATISFIED,
                      (f"all references resolve; boundary: {len(config.gateways)} gateway(s), "
                       f"{len(config.services)} service(s)",))


def _startup_findings(config: TwinConfiguration) -> list[str]:
    """What start-up refuses that C3 and the closure leave unnamed: the model
    registry, built without the models they report, and a bidirectional
    mapping on a model that keeps no last-update property."""
    languages = {l.language_id for l in config.languages}
    claims = Counter(model_id for m in config.managers for model_id in m.models)
    no_last_update = {m.model_id for m in config.models if not m.last_update}
    findings = [f"mapping {m.mapping_id!r} is bidirectional but model {m.model_id!r} "
                f"keeps no last_update" for m in config.mappings
                if m.direction is Direction.BIDIRECTIONAL and m.model_id in no_last_update]
    try:
        build_registry(replace(config, models=tuple(
            m for m in config.models if claims[m.model_id] == 1 and m.language_id in languages)))
    except (TwinError, ValueError) as exc:
        findings.append(f"the model registry refuses the configuration: {exc}")
    return findings


def _closure_findings(config: TwinConfiguration) -> list[str]:
    findings: list[str] = []
    gateways = {gw.descriptor.gateway_id: gw.descriptor for gw in config.gateways}
    models = {m.model_id: m for m in config.models}
    languages = {l.language_id for l in config.languages}

    # (model id, element id) -> element; the first element with an id wins
    elements = {}
    for model in models.values():
        for element in model.elements:
            elements.setdefault((model.model_id, element.element_id), element)

    def model_ref_ok(model_id: str, element_id: str, property_name: str | None) -> bool:
        element = elements.get((model_id, element_id))
        if element is None:
            return False
        return property_name is None or property_name in element.properties

    for model in config.models:
        if model.language_id not in languages:
            findings.append(f"model {model.model_id!r} uses unknown language "
                            f"{model.language_id!r}")
    for manager in config.managers:
        for model_id in manager.models:
            if model_id not in models:
                findings.append(f"manager {manager.manager_id!r} claims unknown model "
                                f"{model_id!r}")
    for mapping in config.mappings:
        if not model_ref_ok(mapping.model_id, mapping.element_id, mapping.property_name):
            findings.append(f"mapping {mapping.mapping_id!r} references unresolved model "
                            f"property {mapping.model_id}/{mapping.element_id}."
                            f"{mapping.property_name}")
        if _declared(gateways, mapping.gateway_id, mapping.gateway_property,
                     ElementKind.PROPERTY) is None:
            findings.append(f"mapping {mapping.mapping_id!r} references unresolved gateway "
                            f"property {mapping.gateway_id}/{mapping.gateway_property}")
        trigger = mapping.schedule.trigger
        if trigger is not None:
            if trigger.kind is TriggerKind.MODEL_CHANGE:
                if not model_ref_ok(trigger.model_id, trigger.element_id,
                                    trigger.property_name):
                    findings.append(f"mapping {mapping.mapping_id!r} trigger references "
                                    f"unresolved model property")
            else:
                wanted = (ElementKind.PROPERTY if trigger.kind is TriggerKind.GATEWAY_CHANGE
                          else ElementKind.EVENT)
                if _declared(gateways, trigger.gateway_id, trigger.element, wanted) is None:
                    findings.append(f"mapping {mapping.mapping_id!r} trigger references "
                                    f"unresolved gateway element "
                                    f"{trigger.gateway_id}/{trigger.element}")
    for service in config.services:
        if service.grant is not None:
            for kind, target in sorted(service.grant.entries):
                if target == "*":
                    continue
                if kind in ("read-model", "write-model") and target not in models:
                    findings.append(f"service {service.service_id!r} grant names unknown "
                                    f"model {target!r}")
                if kind in ("read-gateway", "command-gateway") and target not in gateways:
                    findings.append(f"service {service.service_id!r} grant names unknown "
                                    f"gateway {target!r}")
        if service.builtin is not None:
            if service.builtin not in BUILTIN_SERVICE_NAMES:
                findings.append(f"service {service.service_id!r} names unknown builtin "
                                f"{service.builtin!r}")
            else:
                findings.extend(_builtin_param_findings(service, elements, gateways))
    return sorted(findings)


def _builtin_param_findings(service, elements, gateways) -> list[str]:
    findings = []
    params = service.params
    ref = (params.get("model"), params.get("element"), params.get("property"))
    if all(isinstance(part, str) for part in ref):
        element = elements.get((ref[0], ref[1]))
        if element is None or ref[2] not in element.properties:
            findings.append(f"service {service.service_id!r} watches unresolved model "
                            f"property {ref[0]}/{ref[1]}.{ref[2]}")
    else:
        findings.append(f"service {service.service_id!r} params lack a model property ref")
    if service.builtin == "threshold_guard":
        gateway_id = params.get("gateway")
        function = params.get("function")
        if _declared(gateways, gateway_id, function, ElementKind.FUNCTION) is None:
            findings.append(f"service {service.service_id!r} commands unresolved function "
                            f"{gateway_id}/{function}")
    return findings


def _declared(gateways: dict, gateway_id, name, kind: ElementKind):
    """The element ``name`` of ``kind`` that gateway ``gateway_id`` declares, or None."""
    descriptor = gateways.get(gateway_id)
    decl = descriptor.element(name) if descriptor and isinstance(name, str) else None
    return decl if decl is not None and decl.kind is kind else None
