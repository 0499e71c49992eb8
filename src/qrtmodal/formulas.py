"""The modal formula language: grammar, parser, printer, valuation.

Grammar, with U a prefix connective of ``_UNARY`` and B a binary one of
``_BINARY``; those two tables are the one place the syntax is written:

    atom  :=  NAME ("." NAME)?
    phi   :=  atom | U phi | "(" phi B phi ")"

A NAME is a letter or "_", then letters, digits or "_", as str.isalpha
and str.isalnum judge them. Implication and the biconditional are nodes;
"&" and "|" are sugar, desugared at parse time into {Not, Implies}.
Diamond is a first-class node but is definitionally ~[]~; evaluation of
both forms must agree (and is property-tested).

Atom truth is global: the valuation reads the interpretation regardless of
the world, per the variable-domain semantics used here. The valuation
walks a formula left to right, an implication's antecedent first and a
biconditional's two sides each once, left first; box and
diamond walk a world's successors in sorted world order, read off the
model's index, and stop at the first that settles them; ``is_valid`` walks
the worlds in sorted order and stops at the first that fails. With
``warn_domains``, each evaluation of an atom at a world whose domain does
not contain it emits one DomainWarning, never an error: an atom at a world
the walk does not reach never warns, and one it evaluates twice there
warns twice (Python's default filter shows a message repeated from one
line once).
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

from .config import MAX_FORMULA_DEPTH
from .errors import FormulaSyntaxError, UnknownSymbolError
from .kripke import KripkeModel, _index
from .linalg import DensityMatrix
from .qrt import node_name
from .translate import TranslationRecord


class DomainWarning(UserWarning):
    """An atom was evaluated at a world whose domain does not contain it."""


# -- AST -----------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Box:
    sub: "Formula"


@dataclass(frozen=True)
class Diamond:
    sub: "Formula"


Formula = Atom | Not | Implies | Iff | Box | Diamond


def conj(a: Formula, b: Formula) -> Formula:
    return Not(Implies(a, Not(b)))


def disj(a: Formula, b: Formula) -> Formula:
    return Implies(Not(a), b)


# -- concrete syntax -----------------------------------------------------------

# read by the tokenizer, the parser, the printer and generate.random_formula
_UNARY = {"~": Not, "[]": Box, "<>": Diamond}
_BINARY = {"->": Implies, "&": conj, "|": disj, "<->": Iff}
_SYMBOL = {node: sym for sym, node in (*_UNARY.items(), *_BINARY.items())}
# a connective or parenthesis (none is a prefix of another, so their order
# is free); a name and its qualifier; or any other character but a space,
# which is an error
_TOKEN = re.compile("(" + "|".join(map(re.escape, [*_UNARY, *_BINARY, "(", ")"])) + r")|(\w+)(\.\w*)?|(\S)")


def _tokens(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of every token: a connective or parenthesis
    is its own kind, a name is "IDENT"."""
    out = []
    for m in _TOKEN.finditer(text):
        punct, name, qualifier, other = m.groups()
        if punct:
            out.append((punct, punct, m.start()))
        elif other or not (name[0].isalpha() or name[0] == "_"):
            raise FormulaSyntaxError(f"unexpected character {m.group()[0]!r}", m.start())
        elif qualifier and not (qualifier[1:2].isalpha() or qualifier[1:2] == "_"):
            raise FormulaSyntaxError("expected identifier after '.'", m.start(3))
        else:
            out.append(("IDENT", m.group(), m.start()))
    return out


def parse(text: str) -> Formula:
    """Parse formula text; raises FormulaSyntaxError with a position, also
    at the connective or parenthesis that nests an atom deeper than
    MAX_FORMULA_DEPTH."""
    toks = _tokens(text)

    def peek(idx: int):
        return toks[idx] if idx < len(toks) else (None, None, len(text))

    def formula(idx: int, depth: int) -> tuple[Formula, int]:
        kind, value, pos = peek(idx)
        if kind is None:
            raise FormulaSyntaxError("unexpected end of input", pos)
        if kind == "IDENT":
            return Atom(value), idx + 1
        if depth == MAX_FORMULA_DEPTH and (kind in _UNARY or kind == "("):
            raise FormulaSyntaxError(f"formula nested deeper than {MAX_FORMULA_DEPTH} levels", pos)
        if kind in _UNARY:
            sub, nxt = formula(idx + 1, depth + 1)
            return _UNARY[kind](sub), nxt
        if kind == "(":
            left, nxt = formula(idx + 1, depth + 1)
            op, _, op_pos = peek(nxt)
            if op not in _BINARY:
                raise FormulaSyntaxError("expected a binary connective", op_pos)
            right, nxt = formula(nxt + 1, depth + 1)
            close, _, close_pos = peek(nxt)
            if close != ")":
                raise FormulaSyntaxError("expected ')'", close_pos)
            return _BINARY[op](left, right), nxt + 1
        raise FormulaSyntaxError(f"unexpected token {value!r}", pos)

    tree, end = formula(0, 0)
    if end != len(toks):
        raise FormulaSyntaxError("unexpected trailing input", toks[end][2])
    return tree


def print_formula(f: Formula) -> str:
    """Concrete syntax that parses back to an identical AST."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, (Implies, Iff)):
        return f"({print_formula(f.left)} {_SYMBOL[type(f)]} {print_formula(f.right)})"
    if type(f) not in _UNARY.values():
        raise TypeError(f"not a formula node: {f!r}")
    return f"{_SYMBOL[type(f)]} {print_formula(f.sub)}"


# -- valuation -----------------------------------------------------------------


def _require_atoms(m: KripkeModel, f: Formula) -> None:
    """Raise UnknownSymbolError for the first atom of f, left to right,
    that the model does not declare."""
    if isinstance(f, Atom):
        if f.name not in m.domain:
            raise UnknownSymbolError(f"unknown atom {f.name!r}")
    elif isinstance(f, (Implies, Iff)):
        _require_atoms(m, f.left)
        _require_atoms(m, f.right)
    elif isinstance(f, (Not, Box, Diamond)):
        _require_atoms(m, f.sub)


def _value(m: KripkeModel, f: Formula, w: str, warn_domains: bool) -> int:
    if isinstance(f, Atom):
        if warn_domains and f.name not in m.domains[w]:
            warnings.warn(
                f"atom {f.name} evaluated at world {w} outside its domain",
                DomainWarning,
                stacklevel=2,
            )
        return m.interp[f.name]
    if isinstance(f, Not):
        return 1 - _value(m, f.sub, w, warn_domains)
    if isinstance(f, Implies):
        if _value(m, f.left, w, warn_domains) == 0:
            return 1
        return _value(m, f.right, w, warn_domains)
    if isinstance(f, Iff):
        return int(_value(m, f.left, w, warn_domains) == _value(m, f.right, w, warn_domains))
    if isinstance(f, (Box, Diamond)):
        settles = int(isinstance(f, Diamond))  # a false successor settles a box, a true one a diamond
        for u in _index(m)[0][w]:  # in sorted order
            if _value(m, f.sub, u, warn_domains) == settles:
                return settles
        return 1 - settles
    raise TypeError(f"not a formula node: {f!r}")


def evaluate(m: KripkeModel, f: Formula, w: str, warn_domains: bool = True) -> int:
    """The inductive valuation: atoms read the global interpretation,
    negation, implication and the biconditional are classical, box
    quantifies over all accessible worlds and diamond over some
    accessible world.

    An unknown world or an atom the model does not declare, anywhere in f,
    raises UnknownSymbolError before anything is evaluated."""
    if w not in m.worlds:
        raise UnknownSymbolError(f"unknown world {w!r}")
    _require_atoms(m, f)
    return _value(m, f, w, warn_domains)


def is_valid(
    m: KripkeModel, f: Formula, warn_domains: bool = True
) -> tuple[bool, str | None]:
    """Validity in the model: true at every world; otherwise the first
    failing world (in sorted order) is returned. An atom the model does
    not declare, anywhere in f, raises UnknownSymbolError first."""
    _require_atoms(m, f)
    for w in sorted(m.worlds):
        if _value(m, f, w, warn_domains) == 0:
            return False, w
    return True, None


# -- theory-level reports ------------------------------------------------------


def conversion_possibility_report(rec: TranslationRecord) -> dict:
    """For every conversion edge rho -> sigma, the formula
    (rho -> <> sigma) must be valid in the translated model."""
    instances = []
    ok = True
    for (src, dst, cid) in sorted(rec.edges):
        f = Implies(Atom(node_name(src)), Diamond(Atom(node_name(dst))))
        valid, witness = is_valid(rec.model, f, warn_domains=False)
        instances.append(
            {
                "edge": [node_name(src), node_name(dst), cid],
                "formula": print_formula(f),
                "valid": bool(valid),
                "witness": witness,
            }
        )
        ok &= valid
    return {"instances": instances, "ok": ok}


def is_resource_preserving(rec: TranslationRecord) -> tuple[bool, list]:
    """True when no conversion edge takes an untrue (resource) atom to a
    true (free) one. Each edge is checked by evaluating
    (<> sigma -> rho) at the edge's source world; failures are exactly
    the resource-destroying edges and are returned as witnesses."""
    witnesses = []
    for (src, dst, cid) in sorted(rec.edges):
        f = Implies(Diamond(Atom(node_name(dst))), Atom(node_name(src)))
        if evaluate(rec.model, f, src[0], warn_domains=False) == 0:
            witnesses.append((node_name(src), node_name(dst), cid))
    return (not witnesses), witnesses


# -- the convexity predicate ---------------------------------------------------


def _pair_verdict(
    q, rec: TranslationRecord, sid: str, st1: str, st2: str, p: float
) -> str:
    a1, a2 = node_name((sid, st1)), node_name((sid, st2))
    if rec.model.interp[a1] == 0 or rec.model.interp[a2] == 0:
        return "holds"  # one argument is not free
    m1: DensityMatrix = q.system(sid).states[st1]
    m2: DensityMatrix = q.system(sid).states[st2]
    combo = DensityMatrix(p * m1.mat + (1 - p) * m2.mat, q.tol)
    hit = q.match_named(sid, combo)
    if hit is None:
        return "closure-indeterminate"
    return "holds" if rec.model.interp[node_name((sid, hit))] == 1 else "fails"


def convexity_report(q, rec: TranslationRecord, p_samples) -> list[dict]:
    """The convexity predicate at each sampled weight p, one report per p.

    For an ordered pair of named states the predicate holds when one of
    them is not free or their p-weighted combination matches a free named
    state. Combinations across systems are dimensionally meaningless, so
    the pairs range over each system's own states. A pair whose
    combination leaves the named universe is indeterminate, a third
    verdict distinct from failure. Raises ValueError for a p outside
    [0, 1]."""
    out = []
    for p in map(float, p_samples):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
        holds, fails, indet = [], [], []
        for s in q.systems:
            for st1 in sorted(s.states):
                for st2 in sorted(s.states):
                    verdict = _pair_verdict(q, rec, s.id, st1, st2, p)
                    bucket = {"holds": holds, "fails": fails}.get(verdict, indet)
                    bucket.append((f"{s.id}.{st1}", f"{s.id}.{st2}"))
        out.append(
            {"p": p, "holds": holds, "fails": fails, "indeterminate": indet, "ok": not fails}
        )
    return out
