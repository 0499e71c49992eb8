"""A public module-level name in qrtmodal stays only if the package
itself or the benchmark uses it: it is exported from ``__init__``, a
module of the package refers to it (its own module, past the
definition, counts), or bench/ reads it. A public method or property of
a class stays only if some module of the package, or of bench/, reads an
attribute of its name. A name only the tests use belongs in the tests.
The scan reads the sources without importing them."""

import ast
from pathlib import Path

from test_bench_names import qrtmodal_names

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qrtmodal"


def defined(tree):
    """The public functions, classes and assigned names of a module body."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not n.startswith("_")]


def methods(tree):
    """The public methods and properties of a module's classes, as
    "Class.name"."""
    return [
        f"{node.name}.{item.name}"
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    ]


def referenced(tree):
    """Every name a module reads, as a plain name or an attribute, or
    imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def unused_public_names():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    # exported from __init__, or referred to by some module of the package
    used = referenced(trees.pop("__init__")).union(*map(referenced, trees.values()))
    bench = set().union(
        *(qrtmodal_names(ast.parse(p.read_text())) for p in (ROOT / "bench").glob("*.py"))
    )
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in defined(tree)
        if name not in used
        and not {f"qrtmodal.{module}.{name}", f"qrtmodal.{name}"} & bench
    ]


def unused_public_methods():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    bench = [ast.parse(p.read_text()) for p in sorted((ROOT / "bench").glob("*.py"))]
    # a method is read as an attribute, whatever the object
    read = set().union(*map(referenced, trees + bench))
    return [
        name for tree in trees for name in methods(tree) if name.split(".")[1] not in read
    ]


def test_every_public_name_has_a_use_outside_the_tests():
    assert unused_public_names() == []


def test_every_public_method_has_a_use_outside_the_tests():
    assert unused_public_methods() == []
