"""No private function, class, method or slot of the package lingers unused.

A module-level `def` or `class` in `src/weakhopf` whose name starts with `_`
is internal, so something else in `src/` must refer to it: a name, an
attribute or an import anywhere outside its own definition.  The same holds
for a private method of a class (dunders aside).  A private `__slots__`
entry must be read as an attribute somewhere in `src/`, so state that is
only ever written (a stale cache of an older form) is flagged.  Tests do not
count, so a retired kernel kept only as a test reference is flagged until it
moves to `tests/`.  Each private module-level name is also defined in one
module only, so a kernel has one home.  A module refers to every name it
imports; the re-exports of `__init__.py` are its purpose and are exempt.
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


def _private_methods(modules):
    """(module, node) for every private method, dunders aside, of a module-level class."""
    return [
        (name, node)
        for name, tree in modules.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, DEFS) and node.name.startswith("_") and not node.name.endswith("__")
    ]


def _private_slots(modules):
    """(module, line, name) for every private entry of a class's literal `__slots__`."""
    out = []
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
            ):
                for elt in getattr(node.value, "elts", ()):
                    if isinstance(elt, ast.Constant) and elt.value.startswith("_"):
                        out.append((name, node.lineno, elt.value))
    return out


def _unused(modules):
    """`module:line name` of each private definition referenced nowhere else."""
    refs = [ref for tree in modules.values() for ref in _references(tree)]
    out = []
    for module, node in _private_defs(modules) + _private_methods(modules):
        own = {id(sub) for sub in ast.walk(node)}
        if not any(name == node.name and id(sub) not in own for name, sub in refs):
            out.append(f"{module}:{node.lineno} {node.name}")
    return out


def _unread_slots(modules):
    """`module:line name` of each private slot never read as an attribute."""
    read = {
        sub.attr
        for tree in modules.values()
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    return [f"{module}:{line} {name}" for module, line, name in _private_slots(modules) if name not in read]


def _unused_imports(modules):
    """`module:line name` of each name a module imports and never refers to."""
    out = []
    for module, tree in modules.items():
        if module == "__init__.py":
            continue
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        out.append(f"{module}:{node.lineno} {bound}")
    return out


def test_private_definitions_are_referenced():
    unused = _unused(_modules())
    assert not unused, "private definitions referenced nowhere else in src/: " + ", ".join(unused)


def test_private_slots_are_read():
    unread = _unread_slots(_modules())
    assert not unread, "private slots never read as an attribute in src/: " + ", ".join(unread)


def test_imports_are_referenced():
    unused = _unused_imports(_modules())
    assert not unused, "names imported and never referred to in their module: " + ", ".join(unused)


def test_private_definitions_have_one_home():
    homes = {}
    for module, node in _private_defs(_modules()):
        homes.setdefault(node.name, []).append(module)
    assert {name: where for name, where in homes.items() if len(where) > 1} == {}


def test_guard_flags_a_helper_only_its_own_body_calls():
    source = "def _kept():\n    return _kept()\n\n\nclass _Used:\n    pass\n\n\nx = _Used()\n"
    assert _unused({"m.py": ast.parse(source)}) == ["m.py:1 _kept"]


def test_guard_flags_a_method_only_its_own_body_calls_and_an_unread_slot():
    source = (
        "class C:\n"
        "    __slots__ = ('x', '_kept', '_stale')\n"
        "    def _loop(self):\n"
        "        return self._loop()\n"
        "    def _used(self):\n"
        "        return self._kept\n"
        "    def __repr__(self):\n"
        "        object.__setattr__(self, '_stale', 1)\n"
        "        return self._used()\n"
    )
    tree = {"m.py": ast.parse(source)}
    assert _unused(tree) == ["m.py:3 _loop"]
    assert _unread_slots(tree) == ["m.py:2 _stale"]


def test_guard_flags_an_import_its_module_never_refers_to():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .m import a, b as c, d\n"
        "def f(x: a) -> None:\n"
        "    return os.sep, d\n"
    )
    tree = ast.parse(source)
    assert _unused_imports({"m.py": tree, "__init__.py": tree}) == ["m.py:3 c"]
