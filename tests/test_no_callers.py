"""Every definition in `src/twistfock` that nothing else there uses is
named below, with the reason it stays.

A top-level function or class, or a method of a top-level class, is used
when its name occurs outside its own definition somewhere in the package:
as a name, as an attribute or as an imported name.  Dunder methods are
called implicitly and are not listed.  The rule goes by name, so a method
shares the uses of every attribute with its name: it can miss dead code,
but it never reports code that is used.  A new definition without a user
fails this test until it gets one or an entry here, and so does an entry
whose definition gains a user or is deleted.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "twistfock"

TENSOR_LAYER = ("the V^(x)k layer, kept for the twisted Jacobi check's "
                "iterate side (ROADMAP G)")
ORACLE = "the generator's modes, an oracle for the mode recursion"

ALLOWED = {
    "twist.tensor_operator": TENSOR_LAYER,
    "fermion.tensor_vertex_mode": TENSOR_LAYER,
    "fermion.tensor_parity": TENSOR_LAYER,
    "fermion.tensor_slot_vector": TENSOR_LAYER,
    "fermion.permutation_action": TENSOR_LAYER,
    "fermion.cycle_permutation": TENSOR_LAYER,
    "fermion.compose_permutations": TENSOR_LAYER,
    "twist.u_functor_sigma_mode": "timed by the benchmark's tracer; "
                                  "acceptance criterion 12",
    "twist.TwistedModuleView.twisted_weight_eigenvalue":
        "acceptance criterion 10",
    "deltak.DeltaExpansion.leading_exponent":
        "the coordinate change's weight law, tested in test_deltak",
    "fermion.fermion_mode": ORACLE,
    "ramond.ramond_mode": ORACLE,
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _names(node) -> Counter:
    """How often each identifier occurs in a syntax tree."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name] += 1
    return found


def _definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, node) of every top-level function and
    class and every non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not _dunder(sub.name):
                        yield f"{module}.{node.name}.{sub.name}", sub.name, sub


def unused_definitions() -> set:
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    total = Counter()
    for tree in trees.values():
        total += _names(tree)
    return {
        qualified
        for module, tree in trees.items()
        for qualified, name, node in _definitions(module, tree)
        if total[name] == _names(node)[name]
    }


def test_unused_definitions_are_the_allowlist():
    assert unused_definitions() == set(ALLOWED)
