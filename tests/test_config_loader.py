"""The YAML loader and the indexed configuration checks, held to references.

``config._LOADER`` is libyaml's ``CSafeLoader`` when PyYAML was built with it
and the pure-Python ``SafeLoader`` otherwise; both must give the same
configurations and scenarios. The closure check of the conformance audit and
the duplicate-id check of ``config.loads`` use indexes; the linear versions
in reference_config.py are their oracles.
"""

from __future__ import annotations

from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_config
import twinrt.config as config_mod
import twinrt.scenario as scenario_mod
from twinrt.conformance import _closure_findings
from twinrt.errors import ConfigParseError

REPO_ROOT = Path(__file__).parent.parent
C_LOADER = getattr(yaml, "CSafeLoader", None)
needs_libyaml = pytest.mark.skipif(C_LOADER is None, reason="PyYAML built without libyaml")
LOADERS = [pytest.param(yaml.SafeLoader, id="python"),
           pytest.param(C_LOADER, id="libyaml", marks=needs_libyaml)]


def under(loader, fn, *args):
    """``fn(*args)`` with ``loader`` as the configuration YAML loader."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(config_mod, "_LOADER", loader)
        return fn(*args)


def outcome(text: str):
    """What ``config.loads`` makes of ``text``: the configuration or the error text."""
    try:
        return config_mod.loads(text)
    except ConfigParseError as exc:
        return ("error", str(exc))


def fleet_yaml(n: int) -> str:
    """A configuration with an ``n``-element model and one mapping per element."""
    out = ["twin: fleet\n",
           "gateways:\n",
           "  - id: g\n",
           "    endpoint: tcp://127.0.0.1:0\n",
           "    elements: [{name: level, kind: property, type: real, access: ro}]\n",
           "languages: [{id: lang, kinds: {Tank: {level: real, capacity: real}}}]\n",
           "managers: [{id: plant, models: [fleet]}]\n",
           "models:\n",
           "  - id: fleet\n",
           "    language: lang\n",
           "    last_update: true\n",
           "    elements:\n"]
    out += [f"      - {{id: e{i}, kind: Tank, properties: {{level: 0, capacity: {i}.5}}}}\n"
            for i in range(n)]
    out.append("mappings:\n")
    out += [f"  - {{id: m{i}, model: {{model: fleet, element: e{i}, property: level}}, "
            f"gateway: {{gateway: g, property: level}}, direction: as-to-dt, "
            f"schedule: {{trigger: {{gateway: g, property: level}}}}}}\n"
            for i in range(n)]
    return "".join(out)


def test_libyaml_is_used_when_pyyaml_has_it():
    # the pure-Python parser costs about 2 s on a 1000-mapping configuration
    if yaml.__with_libyaml__:
        assert config_mod._LOADER is yaml.CSafeLoader
    else:
        assert config_mod._LOADER is yaml.SafeLoader


@needs_libyaml
class TestLoadersAgree:
    @pytest.mark.parametrize("text", [
        pytest.param((REPO_ROOT / "demo" / "tank.yaml").read_text(encoding="utf-8"),
                     id="demo"),
        pytest.param(fleet_yaml(1000), id="fleet-1000"),
    ])
    def test_configurations(self, text):
        c_config = under(C_LOADER, config_mod.loads, text)
        assert c_config == under(yaml.SafeLoader, config_mod.loads, text)
        assert len(c_config.mappings) >= 2

    def test_demo_scenario(self):
        text = (REPO_ROOT / "demo" / "tank_scenario.yaml").read_text(encoding="utf-8")
        c_steps = under(C_LOADER, scenario_mod.loads, text).steps
        assert c_steps == under(yaml.SafeLoader, scenario_mod.loads, text).steps
        assert c_steps


class TestMalformedYaml:
    @pytest.mark.parametrize("loader", LOADERS)
    @pytest.mark.parametrize("text", [
        "twin: t\ngateways:\n  - {id: g\n",
        "twin: !!python/object/apply:os.system ['true']\n",
        "twin: !!python/name:os.system\n",
        "twin: t\n  nested: wrong\n",
        "twin: \ud800\n",
    ], ids=["unclosed-flow", "python-object", "python-name", "bad-indent", "surrogate"])
    def test_rejected_by_config_and_scenario(self, loader, text):
        with pytest.raises(ConfigParseError, match="^invalid YAML: "):
            under(loader, config_mod.loads, text)
        with pytest.raises(ConfigParseError, match="^invalid scenario YAML: "):
            under(loader, scenario_mod.loads, text)

    @pytest.mark.parametrize("loader", LOADERS)
    def test_position_is_reported(self, loader):
        with pytest.raises(ConfigParseError, match="line 3, column 5"):
            under(loader, config_mod.loads, "twin: t\ngateways:\n  - {id: g\n")


# --- config-shaped documents ---------------------------------------------------


def config_docs(name):
    """Documents shaped like a configuration, with ids and names drawn from ``name``.

    Every document parses; ids may repeat within a section, and references
    may point at anything.
    """
    number = st.one_of(st.integers(-5, 5),
                       st.floats(allow_nan=False, allow_infinity=False, width=32))
    decl = st.one_of(
        st.fixed_dictionaries({"name": name, "kind": st.just("property"),
                               "type": st.sampled_from(["real", "integer"]),
                               "access": st.sampled_from(["ro", "rw"])}),
        st.fixed_dictionaries({"name": name, "kind": st.just("event"),
                               "payload": st.just("real")}),
        st.fixed_dictionaries({"name": name, "kind": st.just("function"),
                               "args": st.just([]), "result": st.just("boolean")}))
    gateway = st.fixed_dictionaries({
        "id": name, "endpoint": st.just("tcp://127.0.0.1:0"),
        "elements": st.lists(decl, max_size=3, unique_by=lambda d: d["name"])})
    language = st.fixed_dictionaries({
        "id": name, "kinds": st.just({"N": {"x": "real", "y": "integer"}})})
    manager = st.fixed_dictionaries({"id": name, "models": st.lists(name, max_size=2)})
    element = st.fixed_dictionaries({
        "id": name, "kind": st.just("N"),
        "properties": st.dictionaries(name, number, max_size=2)})
    model = st.fixed_dictionaries({
        "id": name, "language": name, "last_update": st.booleans(),
        "elements": st.lists(element, max_size=4)})
    model_ref = st.fixed_dictionaries({"model": name, "element": name, "property": name})
    trigger = st.one_of(
        model_ref,
        st.fixed_dictionaries({"gateway": name, "property": name}),
        st.fixed_dictionaries({"gateway": name, "event": name}))
    mapping = st.fixed_dictionaries(
        {"id": name, "model": model_ref,
         "gateway": st.fixed_dictionaries({"gateway": name, "property": name}),
         "direction": st.sampled_from(["as-to-dt", "dt-to-as", "bidirectional"]),
         "schedule": st.one_of(st.fixed_dictionaries({"every": st.integers(1, 3)}),
                               st.fixed_dictionaries({"trigger": trigger}))},
        optional={"transform": st.fixed_dictionaries(
            {"scale": st.sampled_from([2, 0.5, -1.25]), "offset": number}),
            "enabled": st.booleans()})
    capability = st.one_of(
        st.sampled_from(["read-data", "ingest-data"]),
        st.builds("{}:{}".format,
                  st.sampled_from(["read-model", "write-model", "read-gateway",
                                   "command-gateway"]),
                  st.one_of(st.just("*"), name)))
    hook = st.one_of(
        st.sampled_from(["on-tick", "on-decision"]),
        st.fixed_dictionaries({"on-event": st.fixed_dictionaries(
            {"gateway": name, "event": name})}))
    service = st.fixed_dictionaries(
        {"id": name},
        optional={"builtin": st.sampled_from(["kpi_monitor", "threshold_guard", "nope"]),
                  "params": st.fixed_dictionaries(
                      {}, optional={"model": name, "element": name, "property": name,
                                    "gateway": name, "function": name}),
                  "grant": st.lists(capability, max_size=3),
                  "hooks": st.lists(hook, max_size=2)})
    return st.fixed_dictionaries({
        "twin": name,
        "gateways": st.lists(gateway, max_size=4),
        "languages": st.lists(language, max_size=4),
        "managers": st.lists(manager, max_size=4),
        "models": st.lists(model, max_size=4),
        "mappings": st.lists(mapping, max_size=5),
        "services": st.lists(service, max_size=4),
        "data": st.fixed_dictionaries({"journal": st.none(),
                                       "mandatory_metadata": st.booleans(),
                                       "model_linkage": st.booleans()}),
    })


# a small pool, so that ids repeat and references sometimes resolve
POOL_NAMES = st.sampled_from(["a", "b", "c"])
ANY_NAMES = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)


def config_from_doc(doc: dict) -> config_mod.TwinConfiguration:
    """Parse ``doc`` section by section, keeping ids that ``loads`` would reject."""
    def section(key, parse):
        return tuple(parse(item, f"{key}[{i}]") for i, item in enumerate(doc[key]))

    languages = section("languages", config_mod._parse_language)
    lang_index = {lang.language_id: lang for lang in languages}
    return config_mod.TwinConfiguration(
        twin_id=doc["twin"],
        gateways=section("gateways", config_mod._parse_gateway),
        languages=languages,
        managers=section("managers", config_mod._parse_manager),
        models=section("models",
                       lambda m, path: config_mod._parse_model(m, path, lang_index)),
        mappings=section("mappings", config_mod._parse_mapping),
        services=section("services", config_mod._parse_service),
        data=config_mod.DataConfig(**doc["data"]))


@needs_libyaml
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=config_docs(ANY_NAMES), flow=st.booleans(), unicode=st.booleans())
def test_dumped_documents_load_equal(doc, flow, unicode):
    text = yaml.safe_dump(doc, default_flow_style=flow, allow_unicode=unicode)
    # PyYAML's emitter itself may not round-trip every string (a raw U+0085
    # under allow_unicode), so the loaders are compared with each other only
    assert (under(C_LOADER, config_mod._load_yaml, text)
            == under(yaml.SafeLoader, config_mod._load_yaml, text))
    assert under(C_LOADER, outcome, text) == under(yaml.SafeLoader, outcome, text)


@settings(max_examples=300, deadline=None)
@given(doc=config_docs(POOL_NAMES))
def test_duplicate_id_check_matches_reference(doc):
    sections = {"gateway": "gateways", "language": "languages", "manager": "managers",
                "model": "models", "mapping": "mappings", "service": "services"}
    expected = reference_config.duplicate_id_error(
        {name: [item["id"] for item in doc[key]] for name, key in sections.items()})
    result = outcome(yaml.safe_dump(doc))
    if expected is None:
        assert isinstance(result, config_mod.TwinConfiguration)
    else:
        assert result == ("error", expected)


@settings(max_examples=300, deadline=None)
@given(doc=config_docs(POOL_NAMES))
def test_closure_findings_match_reference(doc):
    config = config_from_doc(doc)
    assert _closure_findings(config) == reference_config.closure_findings(config)
