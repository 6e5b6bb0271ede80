"""Every definition in `src/twistfock` that nothing else there uses is
named below, with the reason it stays.

A top-level function or class is used when its name occurs outside its
own definition somewhere in the package: as a name, as an attribute or as
an imported name.  A method of a top-level class is used when its name
occurs there as an attribute, since a method is only reached through one;
a local variable or function of the same name does not count.  A method
named like a method of a builtin type (``get``, ``add``, ...) is used only
through a receiver of its own class: ``self`` or ``cls`` in the class
body, the class itself, a call of the class, or a name bound to such a
call in the same top-level definition; so ``dict.get`` does not keep a
``get`` method alive.  A use inside a definition that is itself unused
and not allowed below does not count either, so dead code that only
calls dead code is found.
Dunder methods are called implicitly and are not listed.  Apart from the
builtin names the rule goes by name, so a method shares the uses of every
attribute with its name: it can miss dead code, but it never reports a
method that is used through an attribute of its name.  A new definition
without a user fails this test until it gets one or an entry here, and so
does an entry whose definition gains a user or is deleted.
"""

import ast
from collections import Counter
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "twistfock"

ALLOWED = {
    "twist.u_functor_sigma_mode": "timed by the benchmark's tracer; "
                                  "acceptance criterion 12",
    "twist.TwistedModuleView.twisted_weight_eigenvalue":
        "acceptance criterion 10",
    "__init__.clear_caches": "the one reset of every cache, for a caller "
                             "that measures or plants errors from a cold "
                             "start (tests/test_caches.py)",
}

BUILTIN_METHODS = frozenset(
    name
    for kind in (dict, list, set, frozenset, tuple, str, bytes, int, float,
                 Fraction)
    for name in dir(kind)
    if not name.startswith("__")
)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _walk(node, skip):
    """ast.walk without the subtrees whose root is in ``skip``."""
    if node in skip:
        return
    yield node
    for child in ast.iter_child_nodes(node):
        yield from _walk(child, skip)


def _class_of(receiver, classes, bound) -> str | None:
    """The package class a receiver expression is known to be of."""
    if isinstance(receiver, ast.Call):
        receiver = receiver.func
    elif isinstance(receiver, ast.Name) and receiver.id in bound:
        return bound[receiver.id]
    if isinstance(receiver, ast.Name) and receiver.id in classes:
        return receiver.id
    return None


def _uses(node, classes, skip=frozenset(), owner=None) -> tuple:
    """How often each identifier occurs in a syntax tree: in any role, as
    an attribute, and as (class, attribute) through a receiver of a known
    package class; ``self`` and ``cls`` are of the class ``owner``."""
    names, attributes, typed = Counter(), Counter(), Counter()
    if isinstance(node, ast.ClassDef):
        owner = node.name
    bound = {} if owner is None else {"self": owner, "cls": owner}
    nodes = list(_walk(node, skip))
    for sub in nodes:
        if (isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call)
                and isinstance(sub.value.func, ast.Name)
                and sub.value.func.id in classes):
            for target in sub.targets:
                if isinstance(target, ast.Name):
                    bound[target.id] = sub.value.func.id
    for sub in nodes:
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
            attributes[sub.attr] += 1
            receiver = _class_of(sub.value, classes, bound)
            if receiver is not None:
                typed[receiver, sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name] += 1
    return names, attributes, typed


def _definitions(module: str, tree: ast.Module):
    """(qualified name, key into the use counters, node, counter index,
    owning class) of every top-level function and class and every
    non-dunder method of a top-level class: index 0 counts names, 1
    attributes and 2 attributes through a receiver of the method's class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node, 0, None
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not _dunder(sub.name):
                        if sub.name in BUILTIN_METHODS:
                            key, index = (node.name, sub.name), 2
                        else:
                            key, index = sub.name, 1
                        yield (f"{module}.{node.name}.{sub.name}", key, sub,
                               index, node.name)


def unused_definitions(src: Path = SRC, kept=ALLOWED) -> set:
    """The definitions without a user; the uses inside an unused definition
    are dropped until none is left to drop, except in those ``kept``."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    definitions = [entry for module, tree in trees.items()
                   for entry in _definitions(module, tree)]
    dead = {}
    while True:
        skip = frozenset(entry[2] for qualified, entry in dead.items()
                         if qualified not in kept)
        total = (Counter(), Counter(), Counter())
        for tree in trees.values():
            for top in tree.body:
                for counter, found in zip(total, _uses(top, classes, skip)):
                    counter += found
        found = {
            qualified: entry
            for entry in definitions
            for qualified, key, node, index, owner in [entry]
            if qualified not in dead
            and total[index][key] == _uses(node, classes, skip, owner)[index][key]
        }
        if not found:
            return set(dead)
        dead.update(found)


def test_unused_definitions_are_the_allowlist():
    assert unused_definitions() == set(ALLOWED)


# The private names one module of the package imports from another: only
# fermion's helpers of the numerator format, the running sum `_add`, its
# reduction `_lowest` and the doubled level `_level2` read off a state's
# first word.  A module that reaches into another's privates fails here.
PRIVATE_IMPORTS = {
    ("cli", "fermion", "_level2"),
    ("deltak", "fermion", "_add"),
    ("deltak", "fermion", "_level2"),
    ("deltak", "fermion", "_lowest"),
    ("twist", "fermion", "_level2"),
    ("verify", "fermion", "_add"),
}


def private_imports(src: Path = SRC) -> set:
    """(importer, module, name) of every ``from .module import _name``
    (or ``from twistfock.module import _name``) in the package."""
    return {
        (path.stem, node.module.rpartition(".")[2], alias.name)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("twistfock."))
        for alias in node.names
        if alias.name.startswith("_")
    }


def test_cross_module_private_imports_are_pinned():
    assert private_imports() == PRIVATE_IMPORTS


def test_builtin_named_method_needs_a_receiver_of_its_class(tmp_path):
    # dict.get does not keep Table.get alive, and is_known, called only by
    # the dead get, is dead too; Counts.add is reached through a name bound
    # to a call of its class, and Bag.add through self; run has no user
    # but is kept, so its uses count
    (tmp_path / "mod.py").write_text(
        "class Table:\n"
        "    def get(self, key):\n"
        "        return self.is_known(key)\n"
        "    def is_known(self, key):\n"
        "        return True\n"
        "class Counts:\n"
        "    def add(self, n):\n"
        "        pass\n"
        "class Bag:\n"
        "    def add(self, n):\n"
        "        pass\n"
        "    def fill(self):\n"
        "        self.add(1)\n"
        "def run():\n"
        "    counts = Counts()\n"
        "    counts.add({}.get(1))\n"
        "    return Table, Bag().fill()\n"
    )
    assert unused_definitions(tmp_path, kept={"mod.run"}) == {
        "mod.Table.get", "mod.Table.is_known", "mod.run"}
