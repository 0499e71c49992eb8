"""Variable-domain Kripke models.

A model is the 5-tuple (worlds W, accessibility R, global atom domain D,
per-world domains Q, global truth interpretation I). The starred variant
adds a preorder on D. World and atom ids are opaque strings; isomorphism
never depends on labels.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping

from .config import MAX_ISO_NODES
from .errors import ResourceLimitError, StructuralError
from .relations import find_nonreflexive, find_nontransitive


class KripkeModel:
    __slots__ = ("worlds", "access", "domain", "domains", "interp")

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
        r = frozenset((a, b) for a, b in access)
        q = {wid: frozenset(domains.get(wid, ())) for wid in w}
        i = {atom: int(v) for atom, v in interp.items()}
        if not w:
            raise StructuralError("the world set is empty")
        if not d:
            raise StructuralError("the global domain is empty")
        for a, b in r:
            if a not in w or b not in w:
                raise StructuralError(f"accessibility pair ({a}, {b}) leaves the world set")
        for wid, sub in q.items():
            if not sub <= d:
                raise StructuralError(f"domain of world {wid} is not a subset of the global domain")
        for atom in d:
            if atom not in i or i[atom] not in (0, 1):
                raise StructuralError(f"interpretation is not total over the domain (atom {atom})")
        extra = set(i) - set(d)
        if extra:
            raise StructuralError(f"interpretation mentions unknown atoms: {sorted(extra)}")
        object.__setattr__(self, "worlds", w)
        object.__setattr__(self, "access", r)
        object.__setattr__(self, "domain", d)
        object.__setattr__(self, "domains", q)
        object.__setattr__(self, "interp", i)

    def __setattr__(self, name, value):
        raise AttributeError("KripkeModel is immutable")

    def successors(self, w: str) -> frozenset:
        return frozenset(b for a, b in self.access if a == w)

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

    __slots__ = ("model", "order")

    def __init__(self, model: KripkeModel, order: Iterable[tuple[str, str]]):
        rel = frozenset((a, b) for a, b in order)
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


def is_sub_model(sub: KripkeModel, sup: KripkeModel) -> bool:
    """W' in W, R' the restriction of R, domains agreeing on W', and
    truth only lost, never gained: I'(a)=1 implies I(a)=1 on D'."""
    if not sub.worlds <= sup.worlds:
        return False
    restricted = frozenset(
        (a, b) for a, b in sup.access if a in sub.worlds and b in sub.worlds
    )
    if sub.access != restricted:
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


def _world_signature(m: KripkeModel, w: str) -> tuple:
    in_deg = sum(1 for a, b in m.access if b == w)
    out_deg = sum(1 for a, b in m.access if a == w)
    true_atoms = sum(1 for atom in m.domains[w] if m.interp[atom] == 1)
    return (in_deg, out_deg, len(m.domains[w]), true_atoms)


def _atom_membership(m: KripkeModel, atom: str) -> frozenset:
    return frozenset(w for w in m.worlds if atom in m.domains[w])


def _atom_groups(m: KripkeModel, world_map: dict | None):
    """Group atoms by truth value and (optionally mapped) world membership."""
    groups: dict = {}
    for atom in m.domain:
        member = _atom_membership(m, atom)
        if world_map is not None:
            member = frozenset(world_map[w] for w in member)
        groups.setdefault((m.interp[atom], member), []).append(atom)
    return groups


class _Budget:
    def __init__(self, cap: int):
        self.cap = cap
        self.used = 0

    def spend(self, n: int = 1):
        self.used += n
        if self.used > self.cap:
            raise ResourceLimitError(
                f"isomorphism search exceeded {self.cap} nodes"
            )


def _world_bijections(a: KripkeModel, b: KripkeModel, budget: _Budget):
    """Yield R-preserving world bijections, pruned by world signatures."""
    sig_a = {w: _world_signature(a, w) for w in a.worlds}
    sig_b = {w: _world_signature(b, w) for w in b.worlds}
    if sorted(sig_a.values()) != sorted(sig_b.values()):
        return
    order = sorted(a.worlds, key=lambda w: (sig_a[w], w))
    candidates = {
        w: sorted(u for u in b.worlds if sig_b[u] == sig_a[w]) for w in order
    }
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def consistent(w: str, u: str) -> bool:
        for w2, u2 in mapping.items():
            if ((w, w2) in a.access) != ((u, u2) in b.access):
                return False
            if ((w2, w) in a.access) != ((u2, u) in b.access):
                return False
        return ((w, w) in a.access) == ((u, u) in b.access)

    def rec(idx: int):
        if idx == len(order):
            yield dict(mapping)
            return
        w = order[idx]
        for u in candidates[w]:
            if u in used:
                continue
            budget.spend()
            if not consistent(w, u):
                continue
            mapping[w] = u
            used.add(u)
            yield from rec(idx + 1)
            del mapping[w]
            used.discard(u)

    yield from rec(0)


def models_isomorphic(
    a: KripkeModel, b: KripkeModel, max_nodes: int = MAX_ISO_NODES
) -> tuple[bool, tuple[dict, dict] | None]:
    """Backtracking search for bijections (phi_W, phi_D) preserving R,
    per-world domains, and I. Returns the witness pair when found."""
    if len(a.worlds) != len(b.worlds) or len(a.domain) != len(b.domain):
        return False, None
    budget = _Budget(max_nodes)
    for world_map in _world_bijections(a, b, budget):
        ga = _atom_groups(a, world_map)
        gb = _atom_groups(b, None)
        if set(ga) != set(gb):
            continue
        if any(len(ga[k]) != len(gb[k]) for k in ga):
            continue
        atom_map: dict[str, str] = {}
        for key, atoms in ga.items():
            for x, y in zip(sorted(atoms), sorted(gb[key])):
                atom_map[x] = y
        return True, (world_map, atom_map)
    return False, None


def starred_isomorphic(
    a: StarredModel, b: StarredModel, max_nodes: int = MAX_ISO_NODES
) -> tuple[bool, tuple[dict, dict] | None]:
    """As models_isomorphic with the extra clause that the domain
    preorders correspond: x <= y iff phi_D(x) <=' phi_D(y)."""
    ma, mb = a.model, b.model
    if len(ma.worlds) != len(mb.worlds) or len(ma.domain) != len(mb.domain):
        return False, None
    if len(a.order) != len(b.order):
        return False, None
    budget = _Budget(max_nodes)

    def order_degrees(sm: StarredModel, atom: str) -> tuple[int, int]:
        outs = sum(1 for x, y in sm.order if x == atom)
        ins = sum(1 for x, y in sm.order if y == atom)
        return (outs, ins)

    for world_map in _world_bijections(ma, mb, budget):
        ga = _atom_groups(ma, world_map)
        gb = _atom_groups(mb, None)
        if set(ga) != set(gb) or any(len(ga[k]) != len(gb[k]) for k in ga):
            continue
        # refine groups with preorder in/out degrees; the key sort must not
        # depend on frozenset iteration order
        keys = sorted(ga, key=lambda k: (k[0], tuple(sorted(k[1]))))
        slots: list[tuple[list, list]] = []
        ok = True
        for key in keys:
            xs: dict = {}
            ys: dict = {}
            for atom in ga[key]:
                xs.setdefault(order_degrees(a, atom), []).append(atom)
            for atom in gb[key]:
                ys.setdefault(order_degrees(b, atom), []).append(atom)
            if set(xs) != set(ys) or any(len(xs[d]) != len(ys[d]) for d in xs):
                ok = False
                break
            for d in sorted(xs):
                slots.append((sorted(xs[d]), sorted(ys[d])))
        if not ok:
            continue

        atom_map: dict[str, str] = {}

        def compatible(x: str, y: str) -> bool:
            for x2, y2 in atom_map.items():
                if ((x, x2) in a.order) != ((y, y2) in b.order):
                    return False
                if ((x2, x) in a.order) != ((y2, y) in b.order):
                    return False
            return True

        def assign(slot_idx: int) -> bool:
            if slot_idx == len(slots):
                return True
            xs, ys = slots[slot_idx]

            def fill(i: int, remaining: list) -> bool:
                if i == len(xs):
                    return assign(slot_idx + 1)
                x = xs[i]
                for j, y in enumerate(remaining):
                    budget.spend()
                    if not compatible(x, y):
                        continue
                    atom_map[x] = y
                    if fill(i + 1, remaining[:j] + remaining[j + 1:]):
                        return True
                    del atom_map[x]
                return False

            return fill(0, list(ys))

        if assign(0):
            return True, (world_map, dict(atom_map))
    return False, None


# -- exhaustive oracle (used by tests to certify the pruned search) -----------


def isomorphic_exhaustive(a: KripkeModel, b: KripkeModel) -> bool:
    """Unpruned search over all world and atom bijections."""
    if len(a.worlds) != len(b.worlds) or len(a.domain) != len(b.domain):
        return False
    aw, bw = sorted(a.worlds), sorted(b.worlds)
    ad, bd = sorted(a.domain), sorted(b.domain)
    for wperm in itertools.permutations(bw):
        wmap = dict(zip(aw, wperm))
        if any(
            ((x, y) in a.access) != ((wmap[x], wmap[y]) in b.access)
            for x in aw
            for y in aw
        ):
            continue
        for dperm in itertools.permutations(bd):
            dmap = dict(zip(ad, dperm))
            if any(a.interp[x] != b.interp[dmap[x]] for x in ad):
                continue
            if all(
                frozenset(dmap[x] for x in a.domains[w]) == b.domains[wmap[w]]
                for w in aw
            ):
                return True
    return False

