"""Small helpers for binary relations stored as sets of ordered pairs,
and the one isomorphism search engine shared by models and theories."""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, TypeVar

from . import config
from .errors import ResourceLimitError

T = TypeVar("T", bound=Hashable)


def reflexive_transitive_closure(
    pairs: Iterable[tuple[T, T]], universe: Iterable[T]
) -> frozenset:
    """The pairs with a self-loop on every element of universe added,
    closed under transitivity by iterative squaring."""
    rel = set(pairs)
    rel.update((x, x) for x in universe)
    while True:
        succ: dict[T, set[T]] = {}
        for a, b in rel:
            succ.setdefault(a, set()).add(b)
        new = set(
            (a, c)
            for a, b in rel
            for c in succ.get(b, ())
            if (a, c) not in rel
        )
        if not new:
            return frozenset(rel)
        rel |= new


def find_nonreflexive(pairs: frozenset, universe: Iterable[T]):
    """First element missing its self-loop, or None."""
    for x in sorted(universe):
        if (x, x) not in pairs:
            return x
    return None


def find_nontransitive(pairs: frozenset):
    """First witnessing triple (a, b, c) with a->b, b->c but not a->c."""
    succ: dict = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    for a, b in sorted(pairs):
        for c in sorted(succ.get(b, ())):
            if (a, c) not in pairs:
                return (a, b, c)
    return None


# -- isomorphism search --------------------------------------------------------


def bijections(view_x: tuple, view_y: tuple, fits: Callable | None) -> Iterator[dict]:
    """Yield, each as a fresh dict, every colour-preserving bijection from
    x's vertices onto y's that carries the labelled links among placed
    vertices onto equal links, and for which ``fits(x, y, m)`` holds at
    every placement (``m`` is the live partial map, x already on y).

    Each view is (key, colour, links): ``colour`` maps each vertex to its
    colour, ``key`` is the sorted tuple of the colours, and ``links[u]`` is
    {v: label}, kept at both ends of each link and never for u itself (a
    vertex's relations with itself belong in its colour). Only views with
    equal keys are searched: no bijection exists otherwise.
    Vertex ids must be mutually comparable. The placement order is fixed
    up front: the vertex with the most links to placed ones first, then
    the one in the smaller colour class, then the smaller id. A vertex with
    a placed neighbour draws its candidates from the links of that
    neighbour's image, in y's links order, any other from its colour
    class in id order. Each candidate tried costs one node, and the node
    past ``config.MAX_ISO_NODES``, read when the search starts, raises
    ResourceLimitError naming that cap. Witnesses are thus deterministic;
    a report carries one only for a falsification candidate."""
    (key_x, colour_x, links_x), (key_y, colour_y, links_y) = view_x, view_y
    if key_x != key_y:
        return
    classes: dict = {}
    for v in sorted(colour_y):
        classes.setdefault(colour_y[v], []).append(v)
    rank = {v: (len(classes.get(c, ())), v) for v, c in colour_x.items()}
    placed_links = dict.fromkeys(colour_x, 0)
    order: list = []
    back: list = []  # per position: [(placed neighbour, label), ...]
    while rank:
        x = min(rank, key=lambda v: (-placed_links[v], rank[v]))
        del rank[x]
        lx = links_x.get(x, {})
        back.append([(v, lx[v]) for v in order if v in lx])
        order.append(x)
        for v in lx:
            placed_links[v] += 1
    m: dict = {}
    used: set = set()
    cap, spent = config.MAX_ISO_NODES, 0

    def place(k: int):
        nonlocal spent
        if k == len(order):
            yield dict(m)
            return
        x, bx = order[k], back[k]
        want = {m[v]: label for v, label in bx}
        pool = links_y.get(m[bx[0][0]], {}) if bx else classes.get(colour_x[x], ())
        for y in pool:
            if y in used or colour_y[y] != colour_x[x]:
                continue
            spent += 1
            if spent > cap:
                raise ResourceLimitError(f"isomorphism search exceeded {cap} nodes")
            if {w: label for w, label in links_y.get(y, {}).items() if w in used} != want:
                continue
            m[x] = y
            if fits is None or fits(x, y, m):
                used.add(y)
                yield from place(k + 1)
                used.discard(y)
            del m[x]

    yield from place(0)
