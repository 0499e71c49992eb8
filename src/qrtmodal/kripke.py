"""Variable-domain Kripke models.

A model is the 5-tuple (worlds W, accessibility R, global atom domain D,
per-world domains Q, global truth interpretation I). The starred variant
adds a preorder on D. World and atom ids are opaque strings; isomorphism
never depends on labels. Each model, and each starred model, builds the
search's view of itself (key, vertex colours, links) once, on first use;
each model builds its index for the model-side checks (each world's
successors and true atoms) the same way.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

from .errors import StructuralError
from .relations import bijection, find_nonreflexive, find_nontransitive


class KripkeModel:
    __slots__ = ("worlds", "access", "domain", "domains", "interp", "_search", "_rows")

    def __init__(
        self,
        worlds: Iterable[str],
        access: Iterable[tuple[str, str]],
        domain: Iterable[str],
        domains: Mapping[str, Iterable[str]],
        interp: Mapping[str, int],
    ):
        w = frozenset(worlds)
        d = frozenset(domain)
        r = frozenset(map(tuple, access))
        q = {wid: frozenset(domains.get(wid, ())) for wid in w}
        i = dict(interp)
        if not w:
            raise StructuralError("the world set is empty")
        if not d:
            raise StructuralError("the global domain is empty")
        for a, b in r:
            if a not in w or b not in w:
                raise StructuralError(f"accessibility pair ({a}, {b}) leaves the world set")
        for wid in domains:
            if wid not in w:
                raise StructuralError(f"domain given for world {wid}, which is not in the world set")
        for wid, sub in q.items():
            if not sub <= d:
                raise StructuralError(f"domain of world {wid} is not a subset of the global domain")
        for atom, v in i.items():
            if type(v) is not int or v not in (0, 1):
                raise StructuralError(f"truth value of atom {atom} is {v!r}, not 0 or 1")
        for atom in d:
            if atom not in i:
                raise StructuralError(f"interpretation is not total over the domain (atom {atom})")
        extra = set(i) - set(d)
        if extra:
            raise StructuralError(f"interpretation mentions unknown atoms: {sorted(extra)}")
        object.__setattr__(self, "worlds", w)
        object.__setattr__(self, "access", r)
        object.__setattr__(self, "domain", d)
        object.__setattr__(self, "domains", q)
        object.__setattr__(self, "interp", i)
        object.__setattr__(self, "_search", None)  # the search's view, built by _view
        object.__setattr__(self, "_rows", None)  # the model-side checks' index, built by _index

    def __setattr__(self, name, value):
        raise AttributeError("KripkeModel is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, KripkeModel)
            and self.worlds == other.worlds
            and self.access == other.access
            and self.domain == other.domain
            and self.domains == other.domains
            and self.interp == other.interp
        )

    def __hash__(self):
        return hash((self.worlds, self.access, self.domain))

    def __repr__(self):
        return f"KripkeModel(|W|={len(self.worlds)}, |D|={len(self.domain)})"


class StarredModel:
    """A Kripke model together with a preorder on its global domain."""

    __slots__ = ("model", "order", "_search")

    def __init__(self, model: KripkeModel, order: Iterable[tuple[str, str]]):
        rel = frozenset(map(tuple, order))
        for a, b in rel:
            if a not in model.domain or b not in model.domain:
                raise StructuralError(f"order pair ({a}, {b}) leaves the domain")
        missing = find_nonreflexive(rel, model.domain)
        if missing is not None:
            raise StructuralError(f"order is not reflexive at {missing}")
        triple = find_nontransitive(rel)
        if triple is not None:
            raise StructuralError(f"order is not transitive, witness {triple}")
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "order", rel)
        object.__setattr__(self, "_search", None)  # the search's view under the order, built by _view

    def __setattr__(self, name, value):
        raise AttributeError("StarredModel is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, StarredModel)
            and self.model == other.model
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.model, self.order))


def is_s4(m: KripkeModel) -> tuple[bool, object]:
    """Reflexive and transitive accessibility; returns a violating world
    or triple as the counterexample."""
    w = find_nonreflexive(m.access, m.worlds)
    if w is not None:
        return False, w
    triple = find_nontransitive(m.access)
    if triple is not None:
        return False, triple
    return True, None


def _index(m: KripkeModel) -> tuple[dict, dict]:
    """The model-side checks' index of m, built on first use and cached on
    m: (successors, true atoms) by world, both in sorted world order."""
    if m._rows is None:
        succ: dict = {w: [] for w in sorted(m.worlds)}
        for w, u in sorted(m.access):
            succ[w].append(u)
        true = {w: frozenset(p for p in m.domains[w] if m.interp[p] == 1) for w in succ}
        object.__setattr__(m, "_rows", ({w: tuple(row) for w, row in succ.items()}, true))
    return m._rows


def is_sub_model(sub: KripkeModel, sup: KripkeModel) -> bool:
    """W' in W, R' the restriction of R, domains agreeing on W', and
    truth only lost, never gained: I'(a)=1 implies I(a)=1 on D'."""
    if not sub.worlds <= sup.worlds:
        return False
    rows = _index(sup)[0]
    if any(row != tuple(u for u in rows[w] if u in sub.worlds) for w, row in _index(sub)[0].items()):
        return False
    if not sub.domain <= sup.domain:
        return False
    for w in sub.worlds:
        if sub.domains[w] != sup.domains[w]:
            return False
    for atom in sub.domain:
        if sub.interp[atom] == 1 and sup.interp[atom] != 1:
            return False
    return True


# -- isomorphism search -------------------------------------------------------

# Worlds and atoms are searched jointly as the vertices (0, world) and
# (1, atom) of one structure. Link labels: access out of and into a world,
# domain membership, and the preorder below and above an atom.
_OUT, _IN, _MEMBER, _BELOW, _ABOVE = 1, 2, 4, 8, 16


def _colours(m: KripkeModel, order: frozenset) -> dict:
    """Each vertex's colour: a world by its access degrees, self-loop,
    domain size and true atoms; an atom by its truth, the number of worlds
    holding it and its preorder degrees."""
    outs, ins = Counter(u for u, _ in m.access), Counter(v for _, v in m.access)
    held = Counter(p for dom in m.domains.values() for p in dom)
    below, above = Counter(p for p, _ in order), Counter(q for _, q in order)
    colour = {
        (0, w): (0, ins[w], outs[w], (w, w) in m.access, len(dom), sum(m.interp[p] for p in dom))
        for w, dom in m.domains.items()
    }
    colour.update(((1, p), (1, m.interp[p], held[p], below[p], above[p])) for p in m.domain)
    return colour


def _links(m: KripkeModel, order: frozenset) -> dict:
    """Labelled links between distinct vertices, added in sorted order so
    that the search, and so its witness, does not depend on set order."""
    rels = [((0, u), (0, v), _OUT, _IN) for u, v in m.access if u != v]
    rels += [((0, w), (1, p), _MEMBER, _MEMBER) for w in m.worlds for p in m.domains[w]]
    rels += [((1, p), (1, q), _BELOW, _ABOVE) for p, q in order if p != q]
    links: dict = {}
    for u, v, forward, backward in sorted(rels):
        for s, t, label in ((u, v, forward), (v, u, backward)):
            row = links.setdefault(s, {})
            row[t] = row.get(t, 0) | label
    return links


def _view(s: KripkeModel | StarredModel) -> tuple:
    """The search's view of s, a model under the empty order or a starred
    model under its order: (key, colour, links), built on first use and
    cached on s. The key, the sorted vertex colours, fixes the sizes too:
    |W| and |D| count the vertex kinds, |R| sums the out-degrees and the
    order's size the ``below`` counts."""
    if s._search is None:
        m, order = (s.model, s.order) if isinstance(s, StarredModel) else (s, frozenset())
        colour = _colours(m, order)
        object.__setattr__(s, "_search", (tuple(sorted(colour.values())), colour, _links(m, order)))
    return s._search


def model_key(m: KripkeModel | StarredModel) -> tuple:
    """The model side's per-model key: the sorted vertex colours that
    ``models_isomorphic``, or for a starred model ``starred_isomorphic``,
    compares before it searches. Two models, or two starred models, are
    isomorphic only when their keys are equal."""
    return _view(m)[0]


def _isomorphic(a, b) -> tuple[bool, tuple[dict, dict] | None]:
    # two models or two starred models
    m = bijection(_view(a), _view(b), None)
    if m is None:
        return False, None
    maps: tuple[dict, dict] = ({}, {})
    for (kind, u), (_, v) in m.items():
        maps[kind][u] = v
    return True, maps


def models_isomorphic(a: KripkeModel, b: KripkeModel) -> tuple[bool, tuple[dict, dict] | None]:
    """Search for bijections (phi_W, phi_D) preserving R, per-world
    domains, and I. Returns the witness pair when found."""
    return _isomorphic(a, b)


def starred_isomorphic(a: StarredModel, b: StarredModel) -> tuple[bool, tuple[dict, dict] | None]:
    """As models_isomorphic with the extra clause that the domain
    preorders correspond: x <= y iff phi_D(x) <=' phi_D(y)."""
    return _isomorphic(a, b)
