"""No private module-level function or class of the package lingers unused.

A module-level `def` or `class` in `src/weakhopf` whose name starts with `_`
is internal, so something else in `src/` must refer to it: a name, an
attribute or an import anywhere outside its own definition.  Tests do not
count, so a retired kernel kept only as a test reference is flagged until it
moves to `tests/`.  Each such name is also defined in one module only, so a
kernel has one home.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "weakhopf"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _private_defs(modules):
    """(module, node) for every private module-level function and class."""
    return [
        (name, node)
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, DEFS) and node.name.startswith("_")
    ]


def _references(node):
    """The names that node and its subtree refer to, each with its node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id, sub
        elif isinstance(sub, ast.Attribute):
            yield sub.attr, sub
        elif isinstance(sub, ast.alias):
            yield sub.name, sub


def _unused(modules):
    """`module:line name` of each private definition referenced nowhere else."""
    refs = [ref for tree in modules.values() for ref in _references(tree)]
    out = []
    for module, node in _private_defs(modules):
        own = {id(sub) for sub in ast.walk(node)}
        if not any(name == node.name and id(sub) not in own for name, sub in refs):
            out.append(f"{module}:{node.lineno} {node.name}")
    return out


def test_private_definitions_are_referenced():
    unused = _unused(_modules())
    assert not unused, "private definitions referenced nowhere else in src/: " + ", ".join(unused)


def test_private_definitions_have_one_home():
    homes = {}
    for module, node in _private_defs(_modules()):
        homes.setdefault(node.name, []).append(module)
    assert {name: where for name, where in homes.items() if len(where) > 1} == {}


def test_guard_flags_a_helper_only_its_own_body_calls():
    source = "def _kept():\n    return _kept()\n\n\nclass _Used:\n    pass\n\n\nx = _Used()\n"
    assert _unused({"m.py": ast.parse(source)}) == ["m.py:1 _kept"]
