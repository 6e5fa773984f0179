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

A method that shares its name with a method of a built-in type the code
calls (``BUILTIN_TYPES``: a ``get``, ``append``, ``close``, ``send`` ...) cannot
be matched by name, since every ``dict.get`` or ``sock.close`` would call it.
Such a method has a caller only through ``TIES``: a function under
``CALLERS``, named by its file and qualified name, that reads the method's
name on an instance of the method's class. The check verifies that the
function exists and reads that name; that the instance is of that class is
what the entry asserts. A method of this kind with no tie must be on
``ALLOWED``.

The check still matches other names by name only, so a dead method that
shares its name with a live one of another class passes unseen:
``ModelRegistry.digests``, which only tests call, passes on the
``"digests"`` key of perfbench's baseline.
"""

import ast
import io
import socket
from collections import Counter, deque
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINED = ROOT / "src" / "twinrt"
CALLERS = (DEFINED, ROOT / "perfbench", ROOT / "demo")

# the built-in types whose methods the code calls; a method named like one
# of theirs has a caller only through TIES
BUILTIN_TYPES = (dict, list, set, frozenset, tuple, str, bytes, bytearray, int, float,
                 deque, io.TextIOWrapper, io.BufferedWriter, socket.socket)
BUILTIN_METHODS = frozenset(name for kind in BUILTIN_TYPES for name in dir(kind)
                            if not name.startswith("_") and callable(getattr(kind, name)))

# each method named like a built-in's, by qualified name -> a function, as
# "<file under the repository root>:<qualified name>", that calls it on an
# instance of its class
TIES = {
    "AssetModel.read": "src/twinrt/asset.py:AssetServer._dispatch",
    "AssetModel.write": "src/twinrt/asset.py:AssetServer._dispatch",
    "_Session.send": "src/twinrt/asset.py:AssetServer._handle",
    "AssetServer.close": "src/twinrt/asset.py:main",
    "AssetControl.close": "src/twinrt/runtime.py:TwinRuntime.close",
    "LineLog.append": "src/twinrt/data.py:DataManager.ingest",
    "LineLog.close": "src/twinrt/data.py:DataManager.close",
    "DataManager.count": "perfbench/workloads.py:TwinCommand.final_checks",
    "DataManager.close": "src/twinrt/runtime.py:TwinRuntime.close",
    "Engine.close": "src/twinrt/runtime.py:TwinRuntime.close",
    "GatewayHandle.close": "src/twinrt/engine.py:Engine.close",
    "TwinRuntime.close": "src/twinrt/cli.py:cmd_run",
    "LineChannel.send": "src/twinrt/runtime.py:TwinRuntime._answer_control",
    "LineChannel.recv": "src/twinrt/wire.py:LineChannel.request",
    "LineChannel.close": "src/twinrt/gateway.py:GatewayHandle._kill",
    "LineServer.close": "src/twinrt/asset.py:AssetServer.close",
}

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


def _tied(path: Path, method: str, tie: str | None, root: Path, trees: dict) -> bool:
    """``tie``, a ``TIES`` entry, names a function under ``root`` that reads
    the name of ``method``, defined in ``path``, outside its definition."""
    if tie is None:
        return False
    tie_path, _, caller = tie.partition(":")
    if root / tie_path == path and (caller == method or caller.startswith(f"{method}.")):
        return False
    tree = trees.get(root / tie_path)
    name = method.rsplit(".", 1)[-1]
    return tree is not None and any(qualname == caller and _names(node)[1][name] > 0
                                    for qualname, node, _ in _definitions(tree))


def uncalled(defined: Path = DEFINED, callers=CALLERS, ties=TIES, root: Path = ROOT) -> list[str]:
    """The qualified names of the functions under ``defined`` that nothing
    under ``callers`` names outside their own definition, and of the
    methods named like a built-in's that ``ties`` ties to no function
    under ``callers`` (its files named relative to ``root``)."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for root_dir in callers for path in sorted(root_dir.rglob("*.py"))}
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
            if method and name in BUILTIN_METHODS:
                if not _tied(path, qualname, ties.get(qualname), root, trees):
                    dead.append(qualname)
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


def test_each_tie_is_of_a_method_named_like_a_builtin():
    assert all(qualname.rsplit(".", 1)[-1] in BUILTIN_METHODS for qualname in TIES)


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


def test_a_method_named_like_a_builtin_needs_a_tie(tmp_path):
    # the dict.get in lookup does not call Store.get; a tie to a function
    # that reads no .get, or to the method itself, does not either
    (tmp_path / "mod.py").write_text(
        "def lookup(table):\n    return table.get('key')\n\n"
        "def size(table):\n    return len(table)\n\n"
        "READERS = (lookup, size)\n\n"
        "class Store:\n    def get(self, key):\n        return self.get(key)\n")
    assert uncalled(tmp_path, (tmp_path,), {}, tmp_path) == ["Store.get"]
    for tie in ("mod.py:size", "mod.py:Store.get", "other.py:lookup"):
        assert uncalled(tmp_path, (tmp_path,), {"Store.get": tie}, tmp_path) == ["Store.get"]
    assert uncalled(tmp_path, (tmp_path,), {"Store.get": "mod.py:lookup"}, tmp_path) == []
