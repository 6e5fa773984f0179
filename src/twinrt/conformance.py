"""Taxonomy classification and the seven-rule configuration audit.

Classification follows the data-flow taxonomy: with no enabled mappings a
configuration is a digital model; an automated flow from the actual system
makes it a digital shadow; an automated flow back to the actual system as
well makes it a digital twin. "Automated" means an enabled mapping exists —
flows outside the configuration have no representation and cannot count.

The audit evaluates seven structural rules (C1..C7) and reports each as
satisfied, violated, or not applicable, with findings naming the
configuration items involved. Both operations are pure. Each mapping and
service is judged by ``engine.wiring_findings``, as start-up judges it:
sides that resolve, declared types that meet, transforms that write no
fraction to an integer, a writable target (C5), last-update, trigger
kinds, grant targets, and a guard's function and args. The audit judges
them against the models as configured, so it names these faults even
where the model registry refuses the configuration.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum

from .config import ModelConfig, TwinConfiguration
from .data import ModelElementRef
from .engine import Direction, wiring_findings
from .errors import (
    DanglingGrantTarget,
    ReadOnlyTarget,
    TwinError,
    UnresolvedGatewaySide,
    UnresolvedModelSide,
    UnresolvedReference,
)
from .runtime import build_registry


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
    dangling = _closure_findings(config, _faults(config))
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
    faults = _faults(config)
    return ConformanceReport(results=(
        _c1_asset_interfaces(config),
        _c2_abstraction_levels(config),
        _c3_managed_models(config),
        _c4_data_metadata(config),
        _c5_gateway_capabilities(config, faults),
        _c6_gated_services(config),
        _c7_closed_boundary(config, faults),
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


def _c5_gateway_capabilities(config: TwinConfiguration, faults: list[TwinError]) -> RuleResult:
    title = "used gateways are read/observed; commanded gateways are writable"
    enabled = [m for m in config.mappings if m.enabled]
    used = sorted({m.gateway_id for m in enabled} & {gw.descriptor.gateway_id for gw in config.gateways})
    # a gateway is read through a stream a mapping opens: every pull's, every trigger's
    read = {gateway_id for m in enabled for gateway_id, _, _ in m.streams()}
    findings = [f"gateway {gateway_id!r} is commanded but never read or observed"
                for gateway_id in used if gateway_id not in read]
    findings += [str(fault) for fault in faults if isinstance(fault, ReadOnlyTarget)]
    if findings:
        return RuleResult("C5", title, RuleStatus.VIOLATED, tuple(findings))
    if not enabled:
        return RuleResult("C5", title, RuleStatus.NOT_APPLICABLE,
                          ("no enabled mappings; no gateway is exercised",))
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


def _c7_closed_boundary(config: TwinConfiguration, faults: list[TwinError]) -> RuleResult:
    title = "configuration is referentially closed with gateway/service touchpoints only"
    findings = (_closure_findings(config, faults) + _refusal(config)
                + [str(fault) for fault in faults
                   if not isinstance(fault, (*_DANGLING, ReadOnlyTarget))])
    if findings:
        return RuleResult("C7", title, RuleStatus.VIOLATED, tuple(findings))
    return RuleResult("C7", title, RuleStatus.SATISFIED,
                      (f"all references resolve; boundary: {len(config.gateways)} gateway(s), "
                       f"{len(config.services)} service(s)",))


# the faults that refer to nothing
_DANGLING = (UnresolvedModelSide, UnresolvedGatewaySide, UnresolvedReference, DanglingGrantTarget)


def _refusal(config: TwinConfiguration) -> list[str]:
    """The model registry's refusal, built without the models C3 and the
    closure report."""
    languages = {l.language_id for l in config.languages}
    claims = Counter(model_id for m in config.managers for model_id in m.models)
    try:
        build_registry(replace(config, models=tuple(
            m for m in config.models if claims[m.model_id] == 1 and m.language_id in languages)))
    except (TwinError, ValueError) as exc:
        return [f"the model registry refuses the configuration: {exc}"]
    return []


def _faults(config: TwinConfiguration) -> list[TwinError]:
    """Each wiring fault of the mappings and services, judged against the
    models and gateways as configured, whether or not the registry builds."""
    models = _ConfiguredModels(config)
    gateways = {gw.descriptor.gateway_id: gw for gw in config.gateways}
    return [fault for item in (*config.mappings, *config.services)
            for fault in wiring_findings(item, models, gateways)]


class _ConfiguredModels:
    """The configured models, answering ``wiring_findings`` as the registry
    would: an element's first declaration wins, and a property that no
    language declares resolves without a type."""

    def __init__(self, config: TwinConfiguration):
        languages = {l.language_id: l for l in config.languages}
        self._models = {m.model_id: m for m in config.models}
        self._elements = {  # (model id, element id) -> (element, its kind's schema)
            (model.model_id, element.element_id): (
                element, languages[model.language_id].schema_for(element.kind)
                if model.language_id in languages else {})
            for model in self._models.values() for element in reversed(model.elements)}

    def resolve(self, ref: ModelElementRef) -> bool:
        element, _ = self._elements.get((ref.model_id, ref.element_id), (None, None))
        return element is not None and (ref.property_name is None
                                        or ref.property_name in element.properties)

    def declared_type(self, ref: ModelElementRef) -> str | None:
        element, schema = self._elements.get((ref.model_id, ref.element_id), (None, None))
        if element is None or ref.property_name not in element.properties:
            return None
        return schema.get(ref.property_name)

    def model(self, model_id: str) -> ModelConfig:
        return self._models[model_id]

    def models(self) -> list[str]:
        return list(self._models)


def _closure_findings(config: TwinConfiguration, faults: list[TwinError]) -> list[str]:
    """The references to nothing: the configuration's own, and the wiring's."""
    models = {m.model_id for m in config.models}
    languages = {l.language_id for l in config.languages}
    findings = [str(fault) for fault in faults if isinstance(fault, _DANGLING)]
    for model in config.models:
        if model.language_id not in languages:
            findings.append(f"model {model.model_id!r} uses unknown language "
                            f"{model.language_id!r}")
    for manager in config.managers:
        for model_id in manager.models:
            if model_id not in models:
                findings.append(f"manager {manager.manager_id!r} claims unknown model "
                                f"{model_id!r}")
    return sorted(findings)
