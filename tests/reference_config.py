"""Linear reference versions of the configuration checks that now use indexes.

``closure_findings`` is the C7 referential-closure check as it was before the
element index: every model-property reference scans the model's elements
until the first one with the id. ``duplicate_id_error`` is the duplicate-id
check of ``config.loads`` done with ``list.count`` per id. Both are quadratic
on large configurations, which is why the runtime indexes instead; the
property tests in test_config_loader.py hold the two versions to the same
findings and the same error text.
"""

from __future__ import annotations

from twinrt.config import TwinConfiguration
from twinrt.engine import TriggerKind
from twinrt.gateway import ElementKind
from twinrt.services import BUILTIN_SERVICE_NAMES


def duplicate_id_error(id_lists: dict[str, list[str]]) -> str | None:
    """The ``ConfigParseError`` text ``loads`` gives for these id lists, if any."""
    for name, ids in id_lists.items():
        dupes = {i for i in ids if ids.count(i) > 1}
        if dupes:
            return f"duplicate {name} id(s): {sorted(dupes)}"
    return None


def closure_findings(config: TwinConfiguration) -> list[str]:
    findings: list[str] = []
    gateways = {gw.descriptor.gateway_id: gw.descriptor for gw in config.gateways}
    models = {m.model_id: m for m in config.models}
    languages = {l.language_id for l in config.languages}

    def model_ref_ok(model_id: str, element_id: str, property_name: str | None) -> bool:
        model = models.get(model_id)
        if model is None:
            return False
        for element in model.elements:
            if element.element_id == element_id:
                return property_name is None or property_name in element.properties
        return False

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
        descriptor = gateways.get(mapping.gateway_id)
        decl = descriptor.element(mapping.gateway_property) if descriptor else None
        if decl is None or decl.kind is not ElementKind.PROPERTY:
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
                descriptor = gateways.get(trigger.gateway_id)
                decl = descriptor.element(trigger.element) if descriptor else None
                wanted = (ElementKind.PROPERTY if trigger.kind is TriggerKind.GATEWAY_CHANGE
                          else ElementKind.EVENT)
                if decl is None or decl.kind is not wanted:
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
                findings.extend(_builtin_param_findings(service, models, gateways))
    return sorted(findings)


def _builtin_param_findings(service, models, gateways) -> list[str]:
    findings = []
    params = service.params
    ref = (params.get("model"), params.get("element"), params.get("property"))
    if all(isinstance(part, str) for part in ref):
        model = models.get(ref[0])
        element = None
        if model is not None:
            element = next((e for e in model.elements if e.element_id == ref[1]), None)
        if element is None or ref[2] not in element.properties:
            findings.append(f"service {service.service_id!r} watches unresolved model "
                            f"property {ref[0]}/{ref[1]}.{ref[2]}")
    else:
        findings.append(f"service {service.service_id!r} params lack a model property ref")
    if service.builtin == "threshold_guard":
        gateway_id = params.get("gateway")
        function = params.get("function")
        descriptor = gateways.get(gateway_id)
        decl = descriptor.element(function) if descriptor and isinstance(function, str) else None
        if decl is None or decl.kind is not ElementKind.FUNCTION:
            findings.append(f"service {service.service_id!r} commands unresolved function "
                            f"{gateway_id}/{function}")
    return findings
