"""The modal formula language: grammar, parser, printer, valuation.

Grammar (fully parenthesized binary connectives):

    atom  :=  IDENT ("." IDENT)?
    phi   :=  atom | "~" phi | "[]" phi | "<>" phi
            | "(" phi "->" phi ")" | "(" phi "&" phi ")"
            | "(" phi "|" phi ")" | "(" phi "<->" phi ")"

And/Or/Iff are sugar, desugared at parse time into {~, ->}. Diamond is a
first-class node but is definitionally ~[]~; evaluation of both forms must
agree (and is property-tested).

Atom truth is global: the valuation reads the interpretation regardless of
the world, per the variable-domain semantics used here. Evaluating an atom
at a world whose domain does not contain it emits DomainWarning, never an
error.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import FormulaSyntaxError, UnknownSymbolError
from .kripke import KripkeModel
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
class Box:
    sub: "Formula"


@dataclass(frozen=True)
class Diamond:
    sub: "Formula"


Formula = Atom | Not | Implies | Box | Diamond


def conj(a: Formula, b: Formula) -> Formula:
    return Not(Implies(a, Not(b)))


def disj(a: Formula, b: Formula) -> Formula:
    return Implies(Not(a), b)


def iff(a: Formula, b: Formula) -> Formula:
    return conj(Implies(a, b), Implies(b, a))


# -- parsing -------------------------------------------------------------------

_PUNCT = ("<->", "->", "[]", "<>", "~", "(", ")", "&", "|")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        matched = False
        for p in _PUNCT:
            if text.startswith(p, i):
                out.append((p, p, i))
                i += len(p)
                matched = True
                break
        if matched:
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if j < n and text[j] == ".":
                k = j + 1
                if k < n and (text[k].isalpha() or text[k] == "_"):
                    m = k
                    while m < n and (text[m].isalnum() or text[m] == "_"):
                        m += 1
                    name = text[i:m]
                    j = m
                else:
                    raise FormulaSyntaxError("expected identifier after '.'", j)
            out.append(("IDENT", name, i))
            i = j
            continue
        raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    return out


def parse(text: str) -> Formula:
    """Parse formula text; raises FormulaSyntaxError with a position."""
    toks = _tokenize(text)

    def peek(idx: int):
        return toks[idx] if idx < len(toks) else (None, None, len(text))

    def formula(idx: int) -> tuple[Formula, int]:
        kind, value, pos = peek(idx)
        if kind is None:
            raise FormulaSyntaxError("unexpected end of input", pos)
        if kind == "IDENT":
            return Atom(value), idx + 1
        if kind == "~":
            sub, nxt = formula(idx + 1)
            return Not(sub), nxt
        if kind == "[]":
            sub, nxt = formula(idx + 1)
            return Box(sub), nxt
        if kind == "<>":
            sub, nxt = formula(idx + 1)
            return Diamond(sub), nxt
        if kind == "(":
            left, nxt = formula(idx + 1)
            op_kind, _, op_pos = peek(nxt)
            if op_kind not in ("->", "&", "|", "<->"):
                raise FormulaSyntaxError("expected a binary connective", op_pos)
            right, nxt2 = formula(nxt + 1)
            close, _, close_pos = peek(nxt2)
            if close != ")":
                raise FormulaSyntaxError("expected ')'", close_pos)
            built = {
                "->": Implies,
                "&": conj,
                "|": disj,
                "<->": iff,
            }[op_kind](left, right)
            return built, nxt2 + 1
        raise FormulaSyntaxError(f"unexpected token {value!r}", pos)

    tree, end = formula(0)
    if end != len(toks):
        raise FormulaSyntaxError("unexpected trailing input", toks[end][2])
    return tree


def print_formula(f: Formula) -> str:
    """Concrete syntax that parses back to an identical AST."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return f"~ {print_formula(f.sub)}"
    if isinstance(f, Box):
        return f"[] {print_formula(f.sub)}"
    if isinstance(f, Diamond):
        return f"<> {print_formula(f.sub)}"
    if isinstance(f, Implies):
        return f"({print_formula(f.left)} -> {print_formula(f.right)})"
    raise TypeError(f"not a formula node: {f!r}")


# -- valuation -----------------------------------------------------------------


def evaluate(m: KripkeModel, f: Formula, w: str, warn_domains: bool = True) -> int:
    """The inductive valuation: atoms read the global interpretation,
    negation and implication are classical, box quantifies over all
    accessible worlds and diamond over some accessible world."""
    if w not in m.worlds:
        raise UnknownSymbolError(f"unknown world {w!r}")
    if isinstance(f, Atom):
        if f.name not in m.domain:
            raise UnknownSymbolError(f"unknown atom {f.name!r}")
        if warn_domains and f.name not in m.domains[w]:
            warnings.warn(
                f"atom {f.name} evaluated at world {w} outside its domain",
                DomainWarning,
                stacklevel=2,
            )
        return m.interp[f.name]
    if isinstance(f, Not):
        return 1 - evaluate(m, f.sub, w, warn_domains)
    if isinstance(f, Implies):
        if evaluate(m, f.left, w, warn_domains) == 0:
            return 1
        return evaluate(m, f.right, w, warn_domains)
    if isinstance(f, Box):
        for u in sorted(m.worlds):
            if (w, u) in m.access and evaluate(m, f.sub, u, warn_domains) == 0:
                return 0
        return 1
    if isinstance(f, Diamond):
        for u in sorted(m.worlds):
            if (w, u) in m.access and evaluate(m, f.sub, u, warn_domains) == 1:
                return 1
        return 0
    raise TypeError(f"not a formula node: {f!r}")


def is_valid(
    m: KripkeModel, f: Formula, warn_domains: bool = True
) -> tuple[bool, str | None]:
    """Validity in the model: true at every world; otherwise the first
    failing world (in sorted order) is returned."""
    for w in sorted(m.worlds):
        if evaluate(m, f, w, warn_domains) == 0:
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


# -- the bounded predicate layer -----------------------------------------------


@dataclass(frozen=True)
class ConvexCombination:
    """The built-in two-place predicate family: true for a pair of states
    when both are free and their p-weighted combination matches a free
    named state, or when at least one of them is not free."""

    p: float
    left: str
    right: str

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")


@dataclass(frozen=True)
class PredicateFormula:
    """A bounded universal prefix (up to two variables over the global
    domain) around a built-in predicate."""

    variables: tuple
    body: ConvexCombination

    def __post_init__(self):
        if not 1 <= len(self.variables) <= 2:
            raise ValueError("only one or two bound variables are supported")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variables must be bound exactly once")
        for v in (self.body.left, self.body.right):
            if v not in self.variables:
                raise ValueError(f"unbound variable {v!r}")


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


def evaluate_predicate(q, rec: TranslationRecord, pf: PredicateFormula) -> dict:
    """Sweep the bounded quantifiers over same-system ordered pairs.

    Combinations across systems are dimensionally meaningless, so the
    quantifier domain is restricted to pairs on a shared system. Pairs
    whose combination leaves the named universe are reported as
    closure-indeterminate, a third verdict distinct from failure."""
    holds, fails, indet = [], [], []
    for s in q.systems:
        for st1 in sorted(s.states):
            for st2 in sorted(s.states):
                verdict = _pair_verdict(q, rec, s.id, st1, st2, pf.body.p)
                bucket = {"holds": holds, "fails": fails}.get(verdict, indet)
                bucket.append((f"{s.id}.{st1}", f"{s.id}.{st2}"))
    return {
        "p": pf.body.p,
        "holds": holds,
        "fails": fails,
        "indeterminate": indet,
        "ok": not fails,
    }


def convexity_report(q, rec: TranslationRecord, p_samples) -> list[dict]:
    """Evaluate the convexity predicate schema at each sampled p."""
    out = []
    for p in p_samples:
        pf = PredicateFormula(("r1", "r2"), ConvexCombination(float(p), "r1", "r2"))
        out.append(evaluate_predicate(q, rec, pf))
    return out
