"""The strict symmetric monoidal category built on a starred model.

Objects are finite atom sets (conjunctions) normalized by dropping the
unit atom and deduplicating; the tensor is normalized union and the unit
is the empty set. A one-component arrow x -> y exists when x precedes y in
the domain preorder and some accessible world pair hosts the two atoms. A
morphism is a set of such components with every source atom on the left
and every target atom on the right, the unit padding either side; it
composes relationally, a component into the unit staying and one out of
the unit passing through, and a unit-to-unit component is no component.

Internally objects are bitmasks over the k non-unit atoms, and the
one-component arrow relation is built once per category as bit rows over
the atoms with the unit at index k. The law sweep checks the encoding, not
the laws of bitwise OR: with each atom its own bit, the unit absorbed and
tensor equal to OR, atoms_of is an injective homomorphism from (masks, |,
0) onto (atom sets, union, empty set), so the tensor laws are those of set
union. The capped object set is a window onto that monoid and is not
closed under tensor. Composition is decided on the k+1 arrow rows, with
no morphism built, and its closure implies hom transitivity. Over n
objects the encoding checks cost O(n k) array work and O(n + k) Python
calls, identities O(n), and closure O(k^2) row operations.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from .config import OBJECT_CAP
from .errors import StructuralError
from .kripke import StarredModel, _index
from .translate import unit_world_candidates


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_object_cap(object_cap: int) -> None:
    """A cap below 1 is an input error, not a verdict on the theory."""
    if object_cap < 1:
        raise StructuralError(f"the object size cap must be at least 1, got {object_cap}")


def _arrow_rows(sm: StarredModel, index: dict) -> tuple:
    """The one-component arrow relation as two tuples of bit rows over the
    atom indices: out[i] has bit j and in[j] has bit i when atom i precedes
    atom j in the order and some accessible world pair hosts the two."""
    m = sm.model
    hosts: dict = {a: set() for a in m.domain}
    for w in m.worlds:
        for a in m.domains[w]:
            hosts[a].add(w)
    succ = _index(m)[0]
    onward = {a: set().union(*(succ[w] for w in ws)) for a, ws in hosts.items()}
    out, into = [0] * len(index), [0] * len(index)
    for a, b in sm.order:
        if not onward[a].isdisjoint(hosts[b]):
            out[index[a]] |= 1 << index[b]
            into[index[b]] |= 1 << index[a]
    return tuple(out), tuple(into)


class SmcCategory:
    """Category description: atoms, a hom-existence oracle, and the
    tensor. Objects are enumerated up to a size cap."""

    def __init__(self, sm: StarredModel, object_cap: int = OBJECT_CAP):
        check_object_cap(object_cap)
        m = sm.model
        candidates = unit_world_candidates(m)
        if not candidates:
            raise StructuralError("no unit world: the model cannot host the category")
        # the unit atom must be true; several worlds may qualify shape-wise
        c_world = next(
            (c for c in candidates if m.interp[next(iter(m.domains[c]))] == 1),
            None,
        )
        if c_world is None:
            raise StructuralError("the unit atom must be true")
        (p_c,) = m.domains[c_world]
        self.starred = sm
        self.c_world = c_world
        self.unit_atom = p_c
        self.atoms = tuple(sorted(m.domain - {p_c}))
        self.object_cap = object_cap
        # the unit atom takes index k, so bit k of a row is "the unit"
        self._index = {a: i for i, a in enumerate(self.atoms + (p_c,))}
        self._unit_bit = 1 << len(self.atoms)
        self._out, self._in = _arrow_rows(sm, self._index)

    # -- objects as bitmasks ----------------------------------------------------

    def mask_of(self, atoms) -> int:
        mask = 0
        for a in atoms:
            mask |= 1 << self._index[a]
        return mask & ~self._unit_bit  # the unit is absorbed

    def atoms_of(self, mask: int) -> frozenset:
        return frozenset(self.atoms[i] for i in _bits(int(mask)))

    @cached_property
    def objects(self) -> tuple:
        """All normalized objects with at most object_cap atoms."""
        out = []
        for size in range(min(self.object_cap, len(self.atoms)) + 1):
            for combo in itertools.combinations(range(len(self.atoms)), size):
                out.append(sum(1 << i for i in combo))
        return tuple(sorted(out))

    def tensor(self, x: int, y: int) -> int:
        return x | y

    unit = 0

    def hom_nonempty(self, x: int, y: int) -> bool:
        """A pairing exists iff every source atom has some arrow into the
        target (or the unit) and every target atom is hit from the source
        (or the unit)."""
        if any(not self._out[i] & (y | self._unit_bit) for i in _bits(x)):
            return False
        return all(self._in[j] & (x | self._unit_bit) for j in _bits(y))

    def free_objects(self) -> list:
        """Objects with a morphism out of the unit, as atom sets."""
        return [
            self.atoms_of(x) for x in self.objects if self.hom_nonempty(self.unit, x)
        ]


def build_smc(sm: StarredModel, object_cap: int = OBJECT_CAP) -> SmcCategory:
    return SmcCategory(sm, object_cap)


def free_objects(cat: SmcCategory) -> list:
    return cat.free_objects()


# the report keys that "ok" reads
_LAWS = ("objects_canonical", "tensor_is_union", "identities", "compose_closed")


def _mask_dtype(n_atoms: int) -> type:
    """The narrowest unsigned dtype holding a mask over n_atoms atoms."""
    for dt in (np.uint8, np.uint16, np.uint32, np.uint64):
        if n_atoms <= np.iinfo(dt).bits:
            return dt
    raise StructuralError(f"{n_atoms} non-unit atoms do not fit a 64-bit object mask")


def _objects_canonical(cat: SmcCategory, objs: np.ndarray) -> bool:
    """The objects are exactly the atom sets of size at most the cap:
    strictly increasing (so distinct), no bit at or above k, every
    popcount within the cap, and as many as there are such sets."""
    k, cap = len(cat.atoms), cat.object_cap
    # the bits at or above k that the dtype has; none when k fills it
    high = ~((1 << k) - 1) & int(np.iinfo(objs.dtype).max)
    return (
        len(objs) == sum(math.comb(k, i) for i in range(min(k, cap) + 1))
        and bool(np.all(objs[1:] > objs[:-1]))
        and not np.any(objs & high)
        and bool(np.all(np.bitwise_count(objs) <= cap))
    )


def _tensor_is_union(cat: SmcCategory, objs: np.ndarray) -> bool:
    """The encoding the tensor laws rest on: each atom is its own bit, the
    unit is absorbed and has no atoms, every object round-trips through
    its atom set, and tensor is OR on every (object, generator) pair."""
    singles = np.array([1 << i for i in range(len(cat.atoms))], dtype=objs.dtype)
    tensor = np.asarray(cat.tensor(objs[:, None], singles[None, :]))
    return (
        all(cat.mask_of((a,)) == 1 << i and cat.atoms_of(1 << i) == {a}
            for i, a in enumerate(cat.atoms))
        and cat.mask_of((cat.unit_atom,)) == cat.unit
        and not cat.atoms_of(cat.unit)
        and all(cat.mask_of(cat.atoms_of(x)) == x for x in cat.objects)
        and np.array_equal(tensor, objs[:, None] | singles)
    )


def _broken_chain(cat: SmcCategory) -> tuple | None:
    """The first (i, j, l) in index order, the unit at index k, with
    i -> j -> l, j a real atom, and l outside out[i]."""
    out, real = cat._out, cat._unit_bit - 1
    for i, row in enumerate(out):
        for j in _bits(row & real):
            extra = out[j] & ~row
            if extra:
                return i, j, (extra & -extra).bit_length() - 1
    return None


def verify_smc_laws(cat: SmcCategory) -> dict:
    """Check the object set (objects_canonical) and the encoding
    (tensor_is_union), which make atoms_of an injective homomorphism onto
    (atom sets, union, empty set), so the tensor laws are those of union;
    then identities over all objects and closure of composition on the
    arrow rows, each of which decides its law for every capped object.
    Hom transitivity follows from closure and has no check of its own.

    Composition is closed for every morphism iff for every row i (the
    atoms and the unit) and every real atom j in out[i], out[j] lies in
    out[i]. On the unit's row a unit-to-unit component is no component, so
    out[j] counts there without the unit bit; that needs no case of its
    own, since the unit always has its self-arrow (the order is reflexive,
    and the unit world reaches itself because its atom is true).
    Sufficient: row i of g o f is f's unit bit plus the union of g's rows
    over the real atoms j of f's row, each row inside out[j], so under the
    condition it stays inside out[i]; its sources are f's and its targets
    g's, with the unit allowed to pad. Necessary: if i -> j -> l with l
    not in out[i], the single-component morphisms {i} -> {j} -> {l} have
    an invalid composite, the empty object standing in for the unit at
    either end, and every cap of at least 1 has these objects. The first
    such chain is compose_counterexample, as atom ids, the unit by its own.

    The other two composition laws need no check. f o id = f = id o f
    holds row by row whenever every atom has its self-arrow, which is
    exactly identities; relational composition with the unit passed
    through is associative for any rows.

    Closure implies hom transitivity. Transitivity on objects of at most
    one atom decides it on all. If x -> y -> z but not x -> z, either some
    a in x has no arrow into z nor the unit, so a -> b for some b in y,
    and b has an arrow into some c in z or into the unit: ({a}, {b}, {c})
    or ({a}, {b}, {}) fails. Or some c in z is hit from neither x nor the
    unit, so b -> c for some b in y, and b is hit from some a in x or from
    the unit: ({a}, {b}, {c}) or ({}, {b}, {c}) fails. On those small
    objects, write u for the unit: hom({a}, {b}) holds iff (a -> b or
    a -> u) and (a -> b or u -> b), hom({a}, {}) iff a -> u, and
    hom({}, {c}) iff u -> c. Take hom({a}, {b}) and hom({b}, {c}). If
    a -> b, closure of row a puts out[b] inside out[a], so b -> c or
    b -> u -> c gives a -> c or a -> u -> c. Otherwise a -> u and u -> b,
    and closure of the unit's row puts out[b] inside out[u], apart from
    the unit bit, so b -> c or b -> u -> c gives u -> c, with a -> u.
    Either case gives hom({a}, {c}). The cases with an empty end are the
    same with one side dropped: b -> u gives a -> u, and u -> b with
    hom({b}, {c}) gives u -> c.

    Cost for n objects over k atoms: the encoding checks are O(n k) numpy
    work plus O(n + k) Python calls in the narrowest unsigned mask dtype,
    identities O(n) and closure O(k^2) row operations."""
    dtype = _mask_dtype(len(cat.atoms))  # raises before any object is built
    objs = np.array(cat.objects, dtype=dtype)
    report: dict = {
        "n_objects": len(objs),
        "objects_canonical": _objects_canonical(cat, objs),
        "tensor_is_union": _tensor_is_union(cat, objs),
    }

    no_loop = sum(1 << i for i in range(len(cat.atoms)) if not cat._out[i] >> i & 1)
    ident_bad = [cat.atoms_of(x) for x in objs[(objs & no_loop) != 0]]
    report["identities"] = not ident_bad
    if ident_bad:
        report["identity_counterexample"] = sorted(map(sorted, ident_bad))[:3]

    chain = _broken_chain(cat)
    report["compose_closed"] = chain is None
    if chain is not None:
        label = cat.atoms + (cat.unit_atom,)
        report["compose_counterexample"] = [label[t] for t in chain]

    report["ok"] = all(report[k] for k in _LAWS)
    return report
