"""Every definition in `src/twistfock` that nothing else there uses is
named below, with the reason it stays.

A top-level function or class is used when its name occurs outside its
own definition somewhere in the package: as a name, as an attribute or as
an imported name.  A method of a top-level class is used when its name
occurs there as an attribute, since a method is only reached through one;
a local variable or function of the same name does not count.  Dunder
methods are called implicitly and are not listed.  The rule goes by name,
so a method shares the uses of every attribute with its name: it can miss
dead code, but it never reports code that is used.  A new definition
without a user fails this test until it gets one or an entry here, and so
does an entry whose definition gains a user or is deleted.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "twistfock"

ORACLE = "the generator's modes, an oracle for the mode recursion"

ALLOWED = {
    "twist.u_functor_sigma_mode": "timed by the benchmark's tracer; "
                                  "acceptance criterion 12",
    "twist.TwistedModuleView.twisted_weight_eigenvalue":
        "acceptance criterion 10",
    "fermion.fermion_mode": ORACLE,
    "ramond.ramond_mode": ORACLE,
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _uses(node) -> tuple:
    """How often each identifier occurs in a syntax tree: in any role, and
    as an attribute."""
    names, attributes = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
            attributes[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name] += 1
    return names, attributes


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, node, is a method) of every top-level
    function and class and every non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not _dunder(sub.name):
                        yield (f"{module}.{node.name}.{sub.name}", sub.name,
                               sub, True)


def unused_definitions() -> set:
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    total = (Counter(), Counter())
    for tree in trees.values():
        for counter, found in zip(total, _uses(tree)):
            counter += found
    # a method counts its attribute uses only: entry 1 of each pair
    return {
        qualified
        for module, tree in trees.items()
        for qualified, name, node, method in _definitions(module, tree)
        if total[method][name] == _uses(node)[method][name]
    }


def test_unused_definitions_are_the_allowlist():
    assert unused_definitions() == set(ALLOWED)
