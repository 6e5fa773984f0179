"""Every function and method of src/twinrt has a caller.

The check reads each file with the standard library's ``ast``. A function
or method (dunders aside) has a caller if its name appears somewhere in
``src/twinrt``, ``perfbench`` or ``demo`` outside its own definition: as an
attribute, or as a string, since the engine looks up a service's
``on_tick`` and a handle's stream methods with ``getattr``. A function
also has a caller where its name appears as a bare name; a method does not,
since a bare name there is a local variable or a parameter that shares the
method's name. Tests do not count as callers. A function nothing calls
must be on ``ALLOWED``, with the reason it is kept.

The check matches by name only, so a dead method that shares its name with
a live one passes unseen: a ``DataManager.get`` would pass on the strength of
every ``dict.get`` in the source, and ``ModelRegistry.digests``, which only
tests call, passes on the ``"digests"`` key of perfbench's baseline.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINED = ROOT / "src" / "twinrt"
CALLERS = (DEFINED, ROOT / "perfbench", ROOT / "demo")

# functions that nothing in CALLERS calls, by qualified name, and why each stays
ALLOWED = {
    "DataRecord.prop": "documented API: how a service reads one property of a record "
                       "that query_data returned",
    "ModelRegistry.snapshot": "documented API: takes the snapshot that restore makes "
                              "an offline copy of",
    "ModelRegistry.register_operator": "documented API: an operator with its own effect "
                                       "is registered from Python",
    "ModelRegistry.restore": "documented API: restores a model snapshot as an offline copy",
    "ServiceClient.query_data": "documented API for a service's read-data requests",
    "ServiceClient.read_gateway_property": "documented API for a service's read-gateway "
                                           "requests",
    "Transcript.render": "test hook: renders a recorded exchange for the golden transcripts",
}


def _names(node: ast.AST) -> tuple[Counter, Counter]:
    """Under ``node``: each bare name, and each attribute and string
    constant, counted."""
    bare: Counter = Counter()
    members: Counter = Counter()
    for part in ast.walk(node):
        if isinstance(part, ast.Name):
            bare[part.id] += 1
        elif isinstance(part, ast.Attribute):
            members[part.attr] += 1
        elif isinstance(part, ast.Constant) and isinstance(part.value, str):
            members[part.value] += 1
    return bare, members


def _definitions(tree: ast.Module):
    """``(qualified name, node, is a method)`` of each function and method,
    nested ones too."""
    def walk(body, prefix, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.", True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{prefix}{node.name}", node, in_class
                yield from walk(node.body, f"{prefix}{node.name}.", False)
    return walk(tree.body, "", False)


def uncalled(defined: Path = DEFINED, callers=CALLERS) -> list[str]:
    """The qualified names of the functions under ``defined`` that nothing
    under ``callers`` names outside their own definition."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for root in callers for path in sorted(root.rglob("*.py"))}
    bare: Counter = Counter()
    members: Counter = Counter()
    for tree in trees.values():
        tree_bare, tree_members = _names(tree)
        bare += tree_bare
        members += tree_members
    dead = []
    for path in sorted(defined.rglob("*.py")):
        for qualname, node, method in _definitions(trees[path]):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own_bare, own_members = _names(node)
            calls = members[name] - own_members[name]
            if not method:
                calls += bare[name] - own_bare[name]
            if calls <= 0:
                dead.append(qualname)
    return dead


def test_every_function_has_a_caller_or_a_reason():
    assert sorted(uncalled()) == sorted(ALLOWED)


def test_the_check_sees_a_function_with_no_caller(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used(box):\n    return getattr(box, 'looked_up')()\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used(Box())\n\n"
        "class Box:\n    def __len__(self):\n        return 0\n\n"
        "    def looked_up(self):\n        return 1\n\n"
        "    def lonely(self):\n        pass\n")
    assert uncalled(tmp_path, (tmp_path,)) == ["recursive", "Box.lonely"]


def test_a_local_variable_does_not_call_a_method(tmp_path):
    # outside their definitions, both names appear only as bare names: that
    # calls the function helper, but not the method Record.prop
    (tmp_path / "mod.py").write_text(
        "def helper():\n    return 1\n\n"
        "prop = helper\n\n"
        "class Record:\n    def prop(self):\n        return prop()\n")
    assert uncalled(tmp_path, (tmp_path,)) == ["Record.prop"]
