"""The YAML loader and the indexed configuration checks, held to references.

``config._LOADER`` is libyaml's ``CSafeLoader`` when PyYAML was built with it
and the pure-Python ``SafeLoader`` otherwise; both must give the same
configurations and scenarios. ``config._load_yaml`` builds values straight
from either loader's parser events; ``yaml.load`` with ``SafeLoader`` is its
oracle for documents without anchors, aliases or merge keys, which it
refuses at their line and column. The closure check of the conformance
audit and the duplicate-id check of ``config.loads`` use indexes; the
linear versions in reference_config.py are their oracles.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from yaml.composer import ComposerError
from yaml.constructor import ConstructorError

import reference_config
import twinrt.conformance as conformance
import twinrt.config as config_mod
import twinrt.scenario as scenario_mod
from twinrt.asset import AssetModel, AssetServer
from twinrt.conformance import audit
from twinrt.errors import ConfigParseError, TwinError
from twinrt.gateway import ElementKind
from twinrt.runtime import TwinRuntime
from twinrt.values import MAX_DEPTH

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


def fleet_yaml(n: int, simulate: bool = False) -> str:
    """A configuration with an ``n``-element model and one mapping per element.

    With ``simulate`` its gateway is a simulated tank with an open valve, so
    the configuration runs and every tick changes the mapped level.
    """
    out = ["twin: fleet\n",
           "gateways:\n",
           "  - id: g\n",
           "    endpoint: tcp://127.0.0.1:0\n",
           "    elements: [{name: level, kind: property, type: real, access: ro}]\n"]
    if simulate:
        out[-1] = ("    simulate: {model: tank, params: {valve: 1.0}}\n"
                   "    elements: [{name: level, kind: property, type: real, access: ro},\n"
                   "               {name: valve, kind: property, type: real, access: rw},\n"
                   "               {name: overflow, kind: event, payload: real},\n"
                   "               {name: flush, kind: function, args: [], result: boolean}]\n")
    out += ["languages: [{id: lang, kinds: {Tank: {level: real, capacity: real}}}]\n",
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

    @pytest.mark.parametrize("loader", LOADERS)
    @pytest.mark.parametrize("load, text, line", [
        pytest.param(config_mod.loads, "models:\n  - id: m\n    language: l\n    elements:\n"
                     "      - {id: e, kind: N, properties: {x: !!set {a}}}\n", 5,
                     id="config-set-property"),
        pytest.param(config_mod.loads, "services:\n  - id: s\n    builtin: kpi_monitor\n"
                     "    params: {window: !!omap [{a: 1}]}\n", 4, id="config-omap-param"),
        pytest.param(scenario_mod.loads, "steps:\n  - tick: 1\n"
                     "  - asset-set: {gateway: g, property: p, value: !!set {a}}\n", 3,
                     id="scenario-set-value"),
        pytest.param(scenario_mod.loads, "steps:\n  - tick: 1\n  - expect-record-count:\n"
                     "      {selector: !!omap [{origin: operator}], count: 0}\n", 4,
                     id="scenario-omap-selector"),
    ])
    def test_a_set_or_ordered_map_is_refused_at_its_line(self, loader, load, text, line):
        with pytest.raises(ConfigParseError, match="cannot build a") as raised:
            under(loader, load, text)
        assert f"line {line}, column " in str(raised.value)


# --- values built from events, held to yaml.load --------------------------------


def shape(value):
    """``value`` as nested tuples. Scalars compare by type and repr, so NaN equals NaN."""
    if isinstance(value, list):
        return ("list", [shape(v) for v in value])
    if isinstance(value, dict):
        return ("dict", [(shape(k), shape(v)) for k, v in value.items()])
    return (type(value).__name__, repr(value))


def built(load, text: str):
    """The shape of what ``load(text)`` builds, or the class of what it raises."""
    try:
        return shape(load(text))
    except Exception as exc:
        return ("raised", type(exc))


def assert_builds_as_yaml_load(loader, text: str):
    expected = built(lambda t: yaml.load(t, yaml.SafeLoader), text)
    assert under(loader, built, config_mod._load_yaml, text) == expected


ORACLE_TABLE = {
    "str": "[!!str 1, !!str true, '2', \"3\"]",
    "int": "[!!int '3', 0x1f, 017, 0b11, 1_000, 190:20:30, -2]",
    "float": "[!!float 1, 1.5e3, .inf, -.Inf, .nan, 1_0.5]",
    "binary": "!!binary aGVsbG8=",
    "bad-binary": "!!binary '=+'",
    "timestamp": "[!!timestamp '2001-12-14 21:59:43.10 -5', 2001-12-14, 2001-12-14t21:59:43Z]",
    "omap-two-pairs": "!!omap [{a: 1, b: 2}]",
    "omap-not-a-mapping": "!!omap [1]",
    "map": "!!map {a: 1}",
    "seq": "!!seq [a, 1]",
    "seq-of-scalar": "!!seq text",
    "map-of-scalar": "!!map text",
    "set-of-scalar": "!!set text",
    "non-specific": "[! 5, ! text, ! 'x']",
    "null-bool": "[~, null, '', yes, No, on, OFF]",
    "equals-key": "{=: 1}",
    "equals-value": "a: =",
    "merge-as-value": "[<<]",
    "local-tag": "!foo 5",
    "local-tag-mapping": "!foo {a: 1}",
    "python-tag": "!!python/tuple [1]",
    "unhashable-key": "{[1, 2]: 3}",
    "two-documents": "a: 1\n---\nb: 2\n",
    "two-documents-one-bad": "a: !foo x\n---\nb: 2\n",
    "empty": "",
    "comment-only": "# nothing\n",
    "empty-document": "---\n",
    "document-end": "a: 1\n...\n",
}


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("text", ORACLE_TABLE.values(), ids=ORACLE_TABLE.keys())
def test_values_as_yaml_load_builds_them(loader, text):
    assert_builds_as_yaml_load(loader, text)


# equal plain scalars are built once per load and shared; these hold texts
# that build alike only in some roles, or not at all, beside plain ones
SHARED_SCALARS = {
    "quoted-and-tagged": "[1000, '1000', \"1000\", !!str 1000, 1000, '1000', ! 1000]",
    "key-and-value": "{level: level, 0: 0, ~: ~, true: true}",
    "equals-key-then-value": "- {=: 1}\n- {=: 2}\n- =\n",
    "equals-value-then-key": "- =\n- {=: 1}\n",
    "merge-value-twice": "- <<\n- <<\n",
    "unbuildable-twice": "[=, =, 2001-13-45]",
}


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("text", SHARED_SCALARS.values(), ids=SHARED_SCALARS.keys())
def test_shared_scalars_build_as_yaml_load_builds_them(loader, text):
    assert_builds_as_yaml_load(loader, text)


def scalars(value, keys: list, values: list) -> None:
    """Append every scalar in ``value`` to ``keys`` or ``values`` by its role."""
    if isinstance(value, list):
        for item in value:
            scalars(item, keys, values)
    elif isinstance(value, dict):
        for key, item in value.items():
            keys.append(key)
            scalars(item, keys, values)
    else:
        values.append(value)


@pytest.mark.parametrize("loader", LOADERS)
def test_equal_plain_scalars_are_one_object(loader):
    keys, values = [], []
    scalars(under(loader, config_mod._load_yaml, fleet_yaml(50)), keys, values)
    # a key and a value of one text are one object too
    objects: dict[tuple, set[int]] = {}
    for scalar in keys + values:
        objects.setdefault((type(scalar), scalar), set()).add(id(scalar))
    assert all(len(ids) == 1 for ids in objects.values())
    assert any(len(ids) == 1 for (kind, text), ids in objects.items()
               if kind is str and text in keys and text in values)
    # 50 elements and mappings, each spelling out the same names
    assert len(keys) > 900 and len({id(key) for key in keys}) < 30
    config = under(loader, config_mod.loads, fleet_yaml(50))
    first, second = config.mappings[:2]
    assert first.model_id is second.model_id and first.gateway_property is second.gateway_property
    assert first.transform is second.transform
    elements = config.models[0].elements
    assert elements[0].kind is elements[1].kind


@pytest.mark.parametrize("loader", LOADERS)
def test_tagged_and_quoted_scalars_keep_their_own_objects(loader):
    data = under(loader, config_mod._load_yaml, SHARED_SCALARS["quoted-and-tagged"])
    assert data[0] is data[4] and data[1] is data[5] and type(data[3]) is str


@pytest.mark.parametrize("loader", LOADERS)
def test_an_unreadable_plain_scalar_is_refused_where_it_first_appears(loader):
    # a scalar that cannot be built is not kept for its next appearance
    with pytest.raises(ConstructorError, match="line 2, column 3"):
        under(loader, config_mod._load_yaml, "- 2001-12-14\n- 2001-13-45\n- 2001-13-45\n")


# SafeConstructor builds these as a set or a list of tuples, which lie outside
# the value union, so `_load_yaml` refuses each at its collection's tag
REFUSED_TAGS = {
    "set": "!!set {a, b, 1}",
    "omap": "!!omap [{a: 1}, {b: [2]}, {a: 3}]",
    "pairs": "!!pairs [{a: 1}, {a: 2}]",
    "omap-unhashable-key": "!!omap [{[1]: 2}]",
    "omap-entry-tagged": "!!omap [!foo {a: 1}]",
}


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("text", REFUSED_TAGS.values(), ids=REFUSED_TAGS.keys())
def test_refuses_collections_outside_the_value_union(loader, text):
    yaml.load(text, yaml.SafeLoader)
    with pytest.raises(ConstructorError, match="cannot build a"):
        under(loader, config_mod._load_yaml, text)


# SafeConstructor lets the scalar constructor's own error escape for these;
# `_load_yaml` raises a ConstructorError at the scalar instead
UNREADABLE = {
    "int": "a: !!int x", "bool": "a: !!bool maybe", "timestamp": "a: !!timestamp nope",
    "empty-int": "a: !!int ''", "float": "a: !!float x",
}


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("text", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_a_scalar_its_tag_cannot_read_is_a_constructor_error(loader, text):
    with pytest.raises(Exception) as raised:
        yaml.load(text, yaml.SafeLoader)
    assert not isinstance(raised.value, yaml.YAMLError)
    with pytest.raises(ConstructorError, match="line 1, column 4"):
        under(loader, config_mod._load_yaml, text)


FLOW_KEYS = [
    "0", "-2", "0x1f", "1_000", "1.5", ".inf", ".nan", "~", "yes", "No", "2001-12-14",
    "abc", "'q'", '"1"', "!!str 1", "!!int '3'", "!!float 1", "! 5", "!!binary aGk=", "="]
# these values cannot be built: SafeConstructor raises a ConstructorError for each
FLOW_SCALARS = FLOW_KEYS + ["!foo x", "<<"]
KEY_SCALARS = [text for text in FLOW_SCALARS if text not in ("=", "<<")]
# what `flow_documents` writes where it leaves its hole, and so what a load refuses there
HOLE = "\x00"
INSERTS = {"anchor": "&a ", "alias": "*a", "merge": "<<: {}, "}


@st.composite
def flow_documents(draw, hole: str | None = None):
    """Flow-style YAML text with tags: a tree without anchors or aliases.

    A key written as a node is never `<<` or `=`. With a ``hole`` from
    INSERTS, the text is one line with one ``HOLE`` in it: before a node
    for an anchor, in place of a node for an alias, and at the start of a
    mapping's entries for a merge key.
    """
    target = draw(st.integers(0, 3))
    seen = [0]  # nodes met, or mappings met when the hole is a merge key

    def here(counts: bool) -> bool:
        if not counts:
            return False
        seen[0] += 1
        return seen[0] - 1 == target

    def node(depth: int, key: bool = False) -> str:
        if here(hole in ("anchor", "alias")):
            if hole == "alias":
                return HOLE
            return HOLE + node(depth, key)
        choice = draw(st.integers(1, 5 if depth < 3 else 1))
        if choice <= 1:
            return draw(st.sampled_from(KEY_SCALARS if key else FLOW_SCALARS))
        if choice <= 3:
            tag = draw(st.sampled_from(["", "", "", "!!seq ", "!!str "]))
            items = [node(depth + 1) for _ in range(draw(st.integers(0, 3)))]
            return tag + "[" + ", ".join(items) + "]"
        tag = draw(st.sampled_from(["", "", "!!map ", "! "]))
        merge = HOLE if here(hole == "merge") else ""
        items = []
        for _ in range(draw(st.integers(0, 3))):
            key = node(depth + 1, key=True) if draw(st.integers(0, 5)) == 0 else draw(
                st.sampled_from(FLOW_KEYS))
            items.append(f"{key} : {node(depth + 1)}")
        return tag + "{" + merge + ", ".join(items) + "}"

    if hole is None and draw(st.integers(0, 9)) == 0:
        return ""
    text = node(0)
    if hole is None and draw(st.integers(0, 9)) == 0:
        text += "\n---\n" + node(0)
    if hole is not None and HOLE not in text:
        text = HOLE + text if hole == "anchor" else "{" + HOLE + f"k : {text}" + "}"
    return text + "\n"


@pytest.mark.parametrize("loader", LOADERS)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=flow_documents())
def test_flow_documents_build_as_yaml_load_builds_them(loader, text):
    assert_builds_as_yaml_load(loader, text)


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("hole", INSERTS)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_an_anchor_alias_or_merge_key_fails_the_load_where_it_stands(loader, hole, data):
    text = data.draw(flow_documents(hole))
    column = text.index(HOLE)
    text = text.replace(HOLE, INSERTS[hole])
    with pytest.raises(ComposerError, match="a configuration is a tree") as raised:
        under(loader, config_mod._load_yaml, text)
    mark = raised.value.problem_mark
    assert (mark.line, mark.column) == (0, column)


# a configuration is a tree: each of these is refused at the first anchor,
# alias or merge key, which is named with its line and column
NOT_A_TREE = {
    "alias": ("- &a [1, {b: 2}]\n- *a\n- {k: *a}\n", "anchor &a", 1, 3),
    "scalar-alias": ("{a: &s text, b: *s}", "anchor &s", 1, 5),
    "recursive-sequence": ("&r [1, *r]", "anchor &r", 1, 1),
    "recursive-mapping": ("&r {self: *r, list: [*r]}", "anchor &r", 1, 1),
    "alias-as-key": ("{a: &k key, *k : v}", "anchor &k", 1, 5),
    "anchored-key": ("{&k key: v}", "anchor &k", 1, 2),
    "anchor-without-alias": ("twin: t\ngateways:\n  - &g\n    id: g\n", "anchor &g", 3, 5),
    "anchored-after-plain": ("[1000, &a 1000]", "anchor &a", 1, 8),
    "duplicate-anchor": ("[&a 1, &a 2]", "anchor &a", 1, 2),
    "undefined-alias": ("[*nope]", "alias \\*nope", 1, 2),
    "bad-value-then-alias": ("[!foo x, *nope]", "alias \\*nope", 1, 10),
    "self-key": ("&r {*r : 1}", "anchor &r", 1, 1),
    "merge-one": ("- &base {x: 1, y: 2}\n- {<<: *base, z: 3}\n", "anchor &base", 1, 3),
    "merge-inline": ("{<<: [{a: 1}, {a: 2, b: 2}], <<: {c: 3}, c: 4}", "merge key <<", 1, 2),
    "merge-override": ("- {y: 9, <<: {x: 1, y: 2}}\n", "merge key <<", 1, 10),
    "merge-block": ("twin: t\ndata:\n  <<: {journal: j}\n", "merge key <<", 3, 3),
    "merge-not-a-mapping": ("{<<: 5}", "merge key <<", 1, 2),
    "merge-list-of-scalars": ("{<<: [5]}", "merge key <<", 1, 2),
    "merge-tagged": ("{!!merge x: {a: 1}}", "merge key <<", 1, 2),
    "merge-of-open-mapping": ("&a {x: {<<: *a}}", "anchor &a", 1, 1),
    "equals-value-aliased-as-key": ("{a: &e =, *e : 1}", "anchor &e", 1, 5),
    "omap-alias-of-open-mapping": ("&a {0: !!omap [*a]}", "anchor &a", 1, 1),
    "pairs-alias": ("!!pairs [&x {a: 1}, *x]", "anchor &x", 1, 10),
    "omap-anchored-entry": ("!!omap [&x {[1]: 2}]", "anchor &x", 1, 9),
}


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("text, what, line, column", NOT_A_TREE.values(),
                         ids=NOT_A_TREE.keys())
def test_an_anchor_alias_or_merge_key_is_refused_at_its_mark(loader, text, what, line, column):
    for load, prefix in ((config_mod.loads, "invalid YAML: "),
                         (scenario_mod.loads, "invalid scenario YAML: ")):
        with pytest.raises(ConfigParseError,
                           match=f"^{prefix}found {what}: a configuration is a tree") as raised:
            under(loader, load, text)
        assert f"line {line}, column {column}" in str(raised.value)


def laughs(levels: int) -> str:
    """The "billion laughs": ``levels`` lines, each naming nine aliases of the one above."""
    lines = ['a0: &a0 ["lol","lol","lol","lol","lol","lol","lol","lol","lol"]\n']
    lines += [f"a{i}: &a{i} [" + ",".join([f"*a{i - 1}"] * 9) + "]\n" for i in range(1, levels)]
    return "".join(lines)


HOSTILE = {
    # 9 ** 9 "lol"s in 600 bytes, as a property every check walks
    "alias-bomb": (laughs(9) + "twin: t\nlanguages: [{id: l, kinds: {N: {x: list}}}]\n"
                   "models: [{id: m, language: l, elements: [{id: e, kind: N, "
                   "properties: {x: *a8}}]}]\n", "line 1, column 5"),
    "self-referencing-alias": ("twin: t\ndata: &d {journal: *d}\n", "line 2, column 7"),
    "merge-key": ("twin: t\n<<: {data: {journal: j.ndjson}}\n", "line 2, column 1"),
    "nested-too-deep": ("x: " + "[" * 3000 + "]" * 3000 + "\n",
                        f"line 1, column {3 + MAX_DEPTH}"),
}


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("text, mark", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_documents_are_refused_at_once(loader, text, mark):
    for load in (config_mod.loads, scenario_mod.loads):
        start = time.perf_counter()
        with pytest.raises(ConfigParseError, match="invalid (scenario )?YAML: found") as raised:
            under(loader, load, text)
        assert time.perf_counter() - start < 1.0
        assert mark in str(raised.value)


def nested(depth: int) -> str:
    """A flow mapping holding one key whose value nests ``depth`` levels in all."""
    inner = "[" * (depth - 1) + "]" * (depth - 1)
    return "{x: " + inner + "}\n"


@pytest.mark.parametrize("loader", LOADERS)
def test_a_document_nests_at_most_max_depth(loader):
    assert under(loader, config_mod.loads, nested(MAX_DEPTH)).twin_id == "twin"
    with pytest.raises(ConfigParseError, match=f"nested deeper than {MAX_DEPTH} levels") as raised:
        under(loader, config_mod.loads, nested(MAX_DEPTH + 1))
    assert f"line 1, column {4 + MAX_DEPTH}" in str(raised.value)
    block = "".join("  " * i + "-\n" for i in range(MAX_DEPTH + 1))
    with pytest.raises(ConfigParseError, match=f"nested deeper than {MAX_DEPTH} levels"):
        under(loader, scenario_mod.loads, block)


def test_load_keeps_no_node_tree():
    # yaml.load held a node per scalar and collection until the document was built
    text = fleet_yaml(1000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        doc = config_mod._load_yaml(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(doc["mappings"]) == 1000
    assert peak - base <= 2 * (retained - base)


# --- config-shaped documents ---------------------------------------------------


# the value types the generated languages and catalogs declare, and each one's zero
ZEROS = {"boolean": False, "integer": 0, "real": 0.0, "text": ""}


def config_docs(name, loadable=True):
    """Documents shaped like a configuration, with ids and names drawn from ``name``.

    Every document parses; ids may repeat within a section, and references
    may point at anything. A model property is ``x``, ``y`` or a name, so
    references into models resolve, and the types that languages and
    catalogs declare vary. Unless ``loadable``, a built-in service's
    parameters are any subset of the ones it reads, as a configuration
    built in code may hold, which ``loads`` refuses.
    """
    number = st.one_of(st.integers(-5, 5),
                       st.floats(allow_nan=False, allow_infinity=False, width=32))
    value_type = st.sampled_from(sorted(ZEROS))
    value = st.one_of(number, st.booleans(), name)
    prop = st.one_of(st.sampled_from(["x", "y"]), name)
    decl = st.one_of(
        st.fixed_dictionaries({"name": name, "kind": st.just("property"),
                               "type": value_type,
                               "access": st.sampled_from(["ro", "rw"])}),
        st.fixed_dictionaries({"name": name, "kind": st.just("event"),
                               "payload": value_type}),
        st.fixed_dictionaries({"name": name, "kind": st.just("function"),
                               "args": st.lists(value_type, max_size=2),
                               "result": st.just("boolean")}))
    gateway = st.fixed_dictionaries({
        "id": name, "endpoint": st.just("tcp://127.0.0.1:0"),
        "elements": st.lists(decl, max_size=3, unique_by=lambda d: d["name"])})
    language = st.fixed_dictionaries({
        "id": name, "kinds": st.fixed_dictionaries(
            {"N": st.fixed_dictionaries({"x": value_type, "y": value_type})})})
    manager = st.fixed_dictionaries({"id": name, "models": st.lists(name, max_size=2)})
    element = st.fixed_dictionaries({
        "id": name, "kind": st.just("N"),
        "properties": st.dictionaries(prop, value, max_size=2)})
    model = st.fixed_dictionaries({
        "id": name, "language": name, "last_update": st.booleans(),
        "elements": st.lists(element, max_size=4)})
    model_ref = st.fixed_dictionaries({"model": name, "element": name, "property": prop})
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
    watched = {"model": name, "element": name, "property": prop}
    args = st.lists(value, max_size=2)
    if loadable:
        # a built-in's parameters are checked as the configuration loads, so
        # the two built-ins get whole parameter sets; an unknown one gets any
        builtin = st.one_of(
            st.just({}),
            st.fixed_dictionaries({"builtin": st.just("kpi_monitor"),
                                   "params": st.fixed_dictionaries(
                                       {**watched, "window": st.integers(1, 4)})}),
            st.fixed_dictionaries({"builtin": st.just("threshold_guard"),
                                   "params": st.fixed_dictionaries(
                                       {**watched, "bound": number, "gateway": name,
                                        "function": name}, optional={"args": args})}),
            st.fixed_dictionaries({"builtin": st.just("nope")}, optional={
                "params": st.fixed_dictionaries({}, optional={**watched, "gateway": name})}))
    else:
        builtin = st.fixed_dictionaries({}, optional={
            "builtin": st.sampled_from(["kpi_monitor", "threshold_guard", "nope"]),
            "params": st.fixed_dictionaries(
                {}, optional={**watched, "gateway": name, "function": name, "args": args})})
    service = st.builds(
        lambda base, extra: {**base, **extra},
        st.fixed_dictionaries({"id": name},
                              optional={"grant": st.lists(capability, max_size=3)}),
        builtin)
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
    """Parse ``doc`` section by section, keeping ids that ``loads`` would reject.

    A service keeps its built-in name and parameters as written, unchecked,
    as a configuration built in code may hold them.
    """
    def section(key, parse):
        return tuple(parse(item, f"{key}[{i}]") for i, item in enumerate(doc[key]))

    def service(obj, path):
        parsed = config_mod._parse_service(
            {k: v for k, v in obj.items() if k not in ("builtin", "params")}, path)
        return replace(parsed, builtin=obj.get("builtin"), params=obj.get("params", {}))

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
        services=section("services", service),
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
@given(doc=config_docs(POOL_NAMES, loadable=False))
def test_closure_findings_match_reference(doc):
    config = config_from_doc(doc)
    closure = conformance._closure_findings(config, conformance._faults(config))
    assert closure == reference_config.closure_findings(config)


class Served(AssetModel):
    """An asset that serves a catalog given to a subclass: each property holds
    its type's zero until it is written, and each function returns its
    result type's zero."""

    def __init__(self):
        super().__init__()
        self._values = {d.name: ZEROS[d.value_type] for d in self.catalog
                        if d.kind is ElementKind.PROPERTY}

    def state(self) -> dict:
        return dict(self._values)

    def _set(self, name: str, value) -> None:
        self._values[name] = value

    def _invoke(self, name: str, args: list):
        return ZEROS[self._decls[name].value_type]


def unique_ids(doc: dict) -> dict:
    """``doc`` with only the first item of each id in each section."""
    out = dict(doc)
    for key in ("gateways", "languages", "managers", "models", "mappings", "services"):
        first: dict = {}
        for item in doc[key]:
            first.setdefault(item["id"], item)
        out[key] = list(first.values())
    return out


@st.composite
def wired_docs(draw):
    """Configurations whose every reference resolves, but whose wiring may
    still be wrong: the declared types, access, last-update, directions,
    transforms, trigger kinds and a guard's function and ``args`` vary.

    Each choice is mostly one that can be wired, so that about a third of
    the configurations pass the audit and one wrong choice among right ones
    is common: gateway property ``p`` mostly has the type of model property
    ``x`` and ``q`` that of ``y``, a mapping mostly joins the two, and a
    transform is mostly drawn only between numbers. Model properties lean
    to integers and mappings to pulling, since a pull through a transform
    is where a fraction meets an integer in the first ticks."""
    def right() -> bool:
        """True seven times in eight."""
        return draw(st.sampled_from([True] * 7 + [False]))

    value_type = st.sampled_from(sorted(ZEROS))
    model_type = st.sampled_from(["integer", "integer", "real", "boolean", "text"])
    schema = {"x": draw(model_type), "y": draw(model_type)}
    joins = {"p": "x", "q": "y"}
    types = {name: schema[prop] if right() else draw(value_type) for name, prop in joins.items()}
    elements = [{"name": name, "kind": "property", "type": types[name],
                 "access": "rw" if right() else "ro"} for name in joins]
    arg_types = draw(st.lists(value_type, max_size=2))
    elements += [{"name": "e", "kind": "event", "payload": draw(value_type)},
                 {"name": "f", "kind": "function", "args": arg_types,
                  "result": draw(value_type)}]
    model_ref = st.fixed_dictionaries({"model": st.just("m"), "element": st.just("n"),
                                       "property": st.sampled_from(["x", "y"])})
    trigger = st.one_of(model_ref,
                        st.fixed_dictionaries({"gateway": st.just("g"),
                                               "property": st.sampled_from(["p", "q", "e"])}),
                        st.fixed_dictionaries({"gateway": st.just("g"),
                                               "event": st.sampled_from(["e", "f"])}))
    mappings = []
    for _ in range(draw(st.integers(1, 2))):
        name = draw(st.sampled_from(sorted(joins)))
        prop = joins[name] if right() else draw(st.sampled_from(["x", "y"]))
        mapping = {"model": {"model": "m", "element": "n", "property": prop},
                   "gateway": {"gateway": "g", "property": name},
                   "direction": draw(st.sampled_from(["as-to-dt", "as-to-dt", "dt-to-as",
                                                      "bidirectional"])),
                   "schedule": {"every": draw(st.integers(1, 3))} if right() else {
                       "trigger": draw(trigger)},
                   "enabled": right()}
        if {schema[prop], types[name]} <= {"integer", "real"}:
            transformed = draw(st.sampled_from([True] * 3 + [False]))
        else:
            transformed = not right()
        if transformed:
            mapping["transform"] = {"scale": draw(st.sampled_from([2, 0.5, -1])),
                                    "offset": draw(st.sampled_from([0, 3, 0.5]))}
        mappings.append(mapping)
    services = []
    for builtin in draw(st.lists(st.sampled_from(["kpi_monitor", "threshold_guard"]),
                                 max_size=2)):
        params = {"model": "m", "element": "n", "property": draw(st.sampled_from(["x", "y"]))}
        if builtin == "kpi_monitor":
            params["window"] = 2
        else:
            params.update(bound=0.5, gateway="g", function="f" if right() else "p", args=(
                [ZEROS[t] for t in arg_types] if right() else
                draw(st.lists(st.sampled_from(list(ZEROS.values())), max_size=2))))
        services.append({"builtin": builtin, "params": params})
    return {
        "twin": "t",
        "gateways": [{"id": "g", "endpoint": "tcp://127.0.0.1:0", "elements": elements}],
        "languages": [{"id": "l", "kinds": {"N": schema}}],
        "managers": [{"id": "mm", "models": ["m"]}],
        "models": [{"id": "m", "language": "l", "last_update": right(),
                    "elements": [{"id": "n", "kind": "N", "properties": {
                        name: ZEROS[vtype] for name, vtype in schema.items()}}]}],
        "mappings": [{"id": f"m{i}", **m} for i, m in enumerate(mappings)],
        "services": [{"id": f"s{i}", **svc,
                      "grant": ["read-model:m", "ingest-data", "command-gateway:g"]}
                     for i, svc in enumerate(services)],
        "data": {"journal": None, "mandatory_metadata": True, "model_linkage": True},
    }


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=st.one_of(config_docs(POOL_NAMES), wired_docs()))
def test_a_configuration_the_audit_passes_starts_and_keeps_its_mappings(doc):
    """If C3, C5 and C7 are clean, the twin starts against assets serving
    its declared catalogs, and its first 3 ticks disable no mapping and
    give no built-in service an error. So if start-up refuses, the audit
    violates one of the three."""
    config = config_mod.loads(yaml.safe_dump(unique_ids(doc)))
    clean = not {"C3", "C5", "C7"} & set(audit(config).violated)
    servers = []
    try:
        gateways = []
        for gw in config.gateways:
            servers.append(AssetServer(type("Asset", (Served,), {
                "catalog": gw.descriptor.elements})()))
            gateways.append(replace(gw, descriptor=replace(
                gw.descriptor, endpoint=servers[-1].endpoint)))
        notices: list[dict] = []
        try:
            runtime = TwinRuntime(replace(config, gateways=tuple(gateways)),
                                  decision_sink=notices.append)
        except (TwinError, ValueError) as exc:
            assert not clean, f"the audit passes what start-up refuses: {exc!r}"
            return
        try:
            enabled = [m.mapping_id for m in runtime.engine.mappings() if m.enabled]
            for _ in range(3):
                runtime.tick()
            kept = [m.mapping_id for m in runtime.engine.mappings() if m.enabled]
        finally:
            runtime.close()
        if clean:
            assert kept == enabled, [d.to_dict() for d in runtime.engine.decisions]
            assert [n for n in notices if n["kind"] == "service" and n["event"] == "error"] == []
    finally:
        for server in servers:
            server.close()
