"""Reference checks that do not run the code they check.

- A formula AST of plain tuples with its own printer and a set-based
  labelling model checker, so ``modelcheck`` ops are checked without the
  program's parser or evaluator.
- Checks that an isomorphism witness really maps one Kripke model (and
  preorder) onto the other, and an exhaustive labeled-isomorphism test of
  two theories.
- The pinned SHA-256 digests of ``theorems --json`` reports.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

PINNED_FILE = Path(__file__).with_name("theorems_sha256.json")

# -- formulas as tuples --------------------------------------------------------
# ("atom", name) | ("not", f) | ("imp", f, g) | ("and", f, g) | ("or", f, g)
# | ("box", f) | ("dia", f)

_BINARY = {"imp": "->", "and": "&", "or": "|"}


def to_text(f) -> str:
    """Concrete syntax accepted by ``qrtmodal.formulas.parse``."""
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind == "not":
        return f"~ {to_text(f[1])}"
    if kind == "box":
        return f"[] {to_text(f[1])}"
    if kind == "dia":
        return f"<> {to_text(f[1])}"
    return f"({to_text(f[1])} {_BINARY[kind]} {to_text(f[2])})"


def modal_depth(f) -> int:
    kind = f[0]
    if kind == "atom":
        return 0
    if kind in ("box", "dia"):
        return 1 + modal_depth(f[1])
    return max(modal_depth(g) for g in f[1:])


def label(model: dict, f) -> frozenset:
    """The set of worlds where f holds. Atom truth is global, so an atom
    labels every world or none."""
    worlds = frozenset(model["worlds"])
    kind = f[0]
    if kind == "atom":
        return worlds if model["interp"][f[1]] == 1 else frozenset()
    if kind == "not":
        return worlds - label(model, f[1])
    if kind in ("box", "dia"):
        sub = label(model, f[1])
        succ = model["succ"]
        if kind == "box":
            return frozenset(w for w in worlds if succ[w] <= sub)
        return frozenset(w for w in worlds if succ[w] & sub)
    left, right = label(model, f[1]), label(model, f[2])
    if kind == "imp":
        return (worlds - left) | right
    if kind == "and":
        return left & right
    return left | right


def validity(model: dict, f) -> tuple[bool, str | None]:
    """(valid, first failing world in sorted order), as ``is_valid`` reports it."""
    failing = sorted(frozenset(model["worlds"]) - label(model, f))
    return (not failing, failing[0] if failing else None)


def with_successors(model: dict) -> dict:
    succ = {w: set() for w in model["worlds"]}
    for a, b in model["access"]:
        succ[a].add(b)
    return {**model, "succ": {w: frozenset(s) for w, s in succ.items()}}


# -- isomorphism witnesses -----------------------------------------------------


def kripke_witness_ok(a, b, world_map: dict, atom_map: dict, order_a=None, order_b=None) -> bool:
    """True when the maps are bijections carrying a's accessibility,
    domains, truth (and preorder) exactly onto b's."""
    if sorted(world_map) != sorted(a.worlds) or sorted(world_map.values()) != sorted(b.worlds):
        return False
    if sorted(atom_map) != sorted(a.domain) or sorted(atom_map.values()) != sorted(b.domain):
        return False
    if {(world_map[x], world_map[y]) for x, y in a.access} != set(b.access):
        return False
    for w in a.worlds:
        if {atom_map[p] for p in a.domains[w]} != set(b.domains[world_map[w]]):
            return False
    if any(a.interp[p] != b.interp[atom_map[p]] for p in a.domain):
        return False
    if order_a is not None:
        return {(atom_map[x], atom_map[y]) for x, y in order_a} == set(order_b)
    return True


def labeled_isomorphic(x, y) -> bool:
    """Exhaustive labeled-isomorphism test of two theories: some system
    bijection with equal dimensions and some per-system bijection of named
    states (free onto free) carry x's free set and induced-function table
    exactly onto y's. Unpruned apart from the free/non-free split; it
    reads the theories' derived tables but shares no search code."""
    xs, ys = [s.id for s in x.systems], [s.id for s in y.systems]
    fx = {pair: set(keys) for pair, keys in x.functions.items()}
    fy = {pair: set(keys) for pair, keys in y.functions.items()}
    if len(xs) != len(ys) or len(fx) != len(fy):
        return False
    free_x, free_y = set(x.free_states), set(y.free_states)

    def bijections(a, b):
        sa, sb = x.system(a), y.system(b)
        if sa.dim != sb.dim or len(sa.states) != len(sb.states):
            return []
        groups = []
        for free in (True, False):
            xa = sorted(st for st in sa.states if ((a, st) in free_x) == free)
            yb = sorted(st for st in sb.states if ((b, st) in free_y) == free)
            if len(xa) != len(yb):
                return []
            groups.append([dict(zip(xa, p)) for p in itertools.permutations(yb)])
        return [g0 | g1 for g0, g1 in itertools.product(*groups)]

    for perm in itertools.permutations(ys):
        sys_map = dict(zip(xs, perm))
        options = [bijections(a, b) for a, b in sys_map.items()]
        for combo in itertools.product(*options):
            st = dict(zip(xs, combo))
            if all(
                {tuple(sorted((st[a][s], st[b][i]) for s, i in key)) for key in keys}
                == fy.get((sys_map[a], sys_map[b]))
                for (a, b), keys in fx.items()
            ):
                return True
    return False


# -- pinned theorem reports ----------------------------------------------------


def pinned_digests() -> dict:
    """{"<count>:<seed>": sha256 hex} of ``io.dumps(run_theorems(...))``."""
    return json.loads(PINNED_FILE.read_text())
