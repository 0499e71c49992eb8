"""Small helpers for binary relations stored as sets of ordered pairs."""

from __future__ import annotations

from typing import Hashable, Iterable, TypeVar

T = TypeVar("T", bound=Hashable)


def reflexive_closure(pairs: Iterable[tuple[T, T]], universe: Iterable[T]) -> frozenset:
    rel = set(pairs)
    rel.update((x, x) for x in universe)
    return frozenset(rel)


def transitive_closure(pairs: Iterable[tuple[T, T]]) -> frozenset:
    """Transitive closure by iterative squaring."""
    rel = set(pairs)
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


def reflexive_transitive_closure(
    pairs: Iterable[tuple[T, T]], universe: Iterable[T]
) -> frozenset:
    return transitive_closure(reflexive_closure(pairs, universe))


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
