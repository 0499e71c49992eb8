"""The benchmark under bench/ reads names from qrtmodal and calls them;
one that is renamed or deleted, or a keyword it passes that is renamed,
makes every benchmark run fail. These tests check, without running the
benchmark, that each name it reads still exists and that each call it
makes binds to the callee's signature."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

from qrtmodal import corpus

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_tree(name):
    path = BENCH / name
    if not path.exists():
        pytest.skip(f"no bench/{name} in this checkout")
    return ast.parse(path.read_text())


def qrtmodal_bindings(tree):
    """{local name: dotted qrtmodal name} for every qrtmodal module or
    attribute a module imports, and the set of those that are modules."""
    bound = {}
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "qrtmodal":
                    continue
                # a plain `import qrtmodal.x` binds the package only
                local = alias.asname or "qrtmodal"
                bound[local] = alias.name if alias.asname else "qrtmodal"
                modules.add(local)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qrtmodal":
            for alias in node.names:
                local = alias.asname or alias.name
                bound[local] = f"{node.module}.{alias.name}"
                try:
                    importlib.import_module(bound[local])
                except ModuleNotFoundError:
                    pass  # a plain attribute, or a deleted module
                else:
                    modules.add(local)
    return bound, modules


def dotted(node, bound):
    """The dotted qrtmodal name an expression reads, or None."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in bound:
        return ".".join([bound[node.id], *reversed(chain)])
    return None


def qrtmodal_names(tree):
    """The dotted qrtmodal names a module reads: every name imported from
    a qrtmodal module, and every attribute chain off a local name bound to
    a qrtmodal module."""
    bound, modules = qrtmodal_bindings(tree)
    names = {bound[local] for local in bound.keys() - modules}
    off_modules = {local: bound[local] for local in modules}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = dotted(node, off_modules)
            if name is not None:
                names.add(name)
    return names


def qrtmodal_calls(tree):
    """(line, callee, positional count, keyword names) of every call whose
    callee is a dotted qrtmodal name. A call that unpacks ``*args`` or
    ``**kwargs`` is left out: it cannot be bound without running it."""
    bound, _ = qrtmodal_bindings(tree)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = dotted(node.func, bound)
        if callee is None:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            continue
        calls.append((node.lineno, callee, len(node.args), tuple(k.arg for k in node.keywords)))
    return calls


def resolves(dotted):
    """Whether the dotted name is a qrtmodal module or an attribute chain
    off one."""
    try:
        pkgutil.resolve_name(dotted)
    except (ImportError, AttributeError):
        return False
    return True


@pytest.mark.parametrize("name", ["workloads.py", "oracles.py"])
def test_names_the_workloads_read_exist(name):
    used = qrtmodal_names(bench_tree(name))
    if name == "workloads.py":
        # the scan itself finds names the workloads are known to call
        assert {
            "qrtmodal.translate.to_starred_model",
            "qrtmodal.smc.build_smc",
            "qrtmodal.smc.free_objects",
        } <= used
    assert sorted(n for n in used if not resolves(n)) == []


@pytest.mark.parametrize("name", ["workloads.py", "oracles.py"])
def test_calls_the_workloads_make_bind(name):
    calls = qrtmodal_calls(bench_tree(name))
    if name == "workloads.py":
        # the scan itself finds calls the workloads are known to make
        assert {
            ("qrtmodal.formulas.is_valid", 2, ("warn_domains",)),
            ("qrtmodal.generate.generate_qrt", 1, ("index",)),
            ("qrtmodal.harness.run_theorems", 0, ("seed", "count")),
        } <= {call[1:] for call in calls}
    unbound = []
    for line, callee, n_args, keywords in calls:
        if not resolves(callee):
            continue  # reported by test_names_the_workloads_read_exist
        try:
            inspect.signature(pkgutil.resolve_name(callee)).bind(
                *[None] * n_args, **dict.fromkeys(keywords)
            )
        except TypeError as exc:
            unbound.append(f"bench/{name}:{line}: {callee}: {exc}")
    assert unbound == []


def test_traced_layers_exist():
    # the tracer imports each layer module; a traced method that is gone is
    # skipped there and reads as 0 calls, so only the layers can break a run
    tree = bench_tree("tracer.py")
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    )
    assert [layer for layer in layers if not resolves(f"qrtmodal.{layer}")] == []


def test_the_attributes_the_benchmark_reads_off_a_theory_exist():
    # the scans above see dotted names only: the exhaustive oracle reads
    # functions, free_states and system() off a theory, and the ingest
    # workload reads nodes
    bench_tree("oracles.py")
    spec = importlib.util.spec_from_file_location("bench_oracles", BENCH / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    q = corpus.chain_qrt()
    copy = q.relabeled({s.id: f"{s.id}_r" for s in q.systems}, {s.id: {st: f"{st}_r" for st in s.states} for s in q.systems})
    assert oracles.labeled_isomorphic(q, copy)
    assert len(copy.nodes) == len(q.nodes) > 0
