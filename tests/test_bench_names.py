"""The benchmark under bench/ reads names from qrtmodal; one that is
renamed or deleted makes every benchmark run fail. These tests check,
without running the benchmark, that each name it reads still exists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_tree(name):
    path = BENCH / name
    if not path.exists():
        pytest.skip(f"no bench/{name} in this checkout")
    return ast.parse(path.read_text())


def qrtmodal_names(tree):
    """The dotted qrtmodal names a module reads: every name imported from
    a qrtmodal module, and every attribute chain off a local name bound to
    a qrtmodal module."""
    modules = {}  # local name -> module
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.split(".")[0] == "qrtmodal":
                    modules[alias.asname] = alias.name
                elif alias.name.split(".")[0] == "qrtmodal":
                    modules["qrtmodal"] = "qrtmodal"  # binds the package only
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qrtmodal":
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                try:
                    importlib.import_module(full)
                except ModuleNotFoundError:
                    names.add(full)  # a plain attribute, or a deleted module
                else:
                    modules[alias.asname or alias.name] = full
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            names.add(".".join([modules[node.id], *reversed(chain)]))
    return names


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
