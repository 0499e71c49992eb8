"""A public module-level name in qrtmodal stays only if the package
itself or the benchmark uses it: it is exported from ``__init__``, a
module of the package refers to it (its own module, past the
definition, counts), or bench/ reads it. A public method or property of
a class stays only if some module of the package, or of bench/, reads an
attribute of its name. A name only the tests use belongs in the tests.
A private module-level name or method stays only if some module of the
package reads it outside its own definition. The scan reads the sources
without importing them."""

import ast
from collections import Counter
from pathlib import Path

from test_bench_names import qrtmodal_names

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qrtmodal"


def definitions(tree):
    """(name, node) of every function, class and assigned name of a module
    body."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, ast.Assign):
            out += [(t.id, node) for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.append((node.target.id, node))
    return out


def defined(tree):
    """The public functions, classes and assigned names of a module body."""
    return [n for n, _ in definitions(tree) if not n.startswith("_")]


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


def reads(tree):
    """Each name a module or node reads, as a plain name or an attribute,
    or imports, with the number of times it does."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def referenced(tree):
    """Every name a module reads, as a plain name or an attribute, or
    imports."""
    return set(reads(tree))


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


def unused_private_names():
    """The private module-level names and methods, as "module.name" and
    "module.Class.name", that no module of the package reads outside their
    own definition; a dunder name belongs to the language."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = sum(map(reads, trees.values()), Counter())
    private = [
        (f"{module}.{name}", name, node)
        for module, tree in trees.items()
        for name, node in definitions(tree)
    ] + [
        (f"{module}.{node.name}.{item.name}", item.name, item)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
    ]
    return [
        label
        for label, name, node in private
        if name.startswith("_") and not name.endswith("__") and read[name] == reads(node)[name]
    ]


def test_every_public_name_has_a_use_outside_the_tests():
    assert unused_public_names() == []


def test_every_public_method_has_a_use_outside_the_tests():
    assert unused_public_methods() == []


def test_every_private_name_has_a_reader_in_the_package():
    assert unused_private_names() == []
