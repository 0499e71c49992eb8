"""Monoidal category tests: construction, tensor and hom laws, free
objects, the shipped hom-transitivity negative, a differential check of
the law sweep against the host-scanning, int64 reference algorithm with
its n^3 tensor sweep, full hom matrix and name-pair morphism arithmetic,
closure on the arrow rows against those oracles on random models, hom
transitivity (which the sweep does not check) implied by closure on
random models, the unit detour that hom transitivity cannot see, and
encoding mutants that the encoding checks catch and that the n^3 sweep
does not."""

import itertools
import random
import tracemalloc
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from qrtmodal import corpus, harness, smc
from qrtmodal.errors import StructuralError
from qrtmodal.generate import GeneratorConfig, generate_qrt
from qrtmodal.harness import build_family, run_theorems
from qrtmodal.kripke import KripkeModel, StarredModel
from qrtmodal.qrt import complete_composition
from qrtmodal.relations import reflexive_transitive_closure
from qrtmodal.smc import SmcCategory, build_smc, free_objects, verify_smc_laws
from qrtmodal.translate import to_starred_model

from helpers import arrow


def entanglement_category(cap=5):
    rec = to_starred_model(corpus.entanglement_qrt())
    return rec, build_smc(rec.starred, cap)


class TestBuild:
    def test_unit_comes_from_the_singleton_world(self):
        rec, cat = entanglement_category()
        assert cat.unit_atom == "c.one"
        assert cat.c_world == "c"
        assert cat.unit == 0

    def test_missing_unit_world_rejected(self):
        with pytest.raises(StructuralError):
            build_smc(StarredModel(
                corpus.broken_no_unit_model(),
                [("a", "a"), ("b", "b")],
            ))

    def test_unit_chosen_among_several_singleton_worlds(self):
        # a singleton-domain resource world also fits the unit shape; the
        # category must still settle on the world whose atom is true
        m = KripkeModel(
            ["a_lone", "c", "w"],
            [
                ("a_lone", "a_lone"), ("c", "c"), ("w", "w"),
                ("c", "w"), ("a_lone", "w"), ("a_lone", "c"),
            ],
            ["q", "p", "x"],
            {"a_lone": {"q"}, "c": {"p"}, "w": {"x"}},
            {"q": 0, "p": 1, "x": 1},
        )
        order = [(t, t) for t in "qpx"] + [("p", "x")]
        from qrtmodal.translate import unit_world_candidates

        assert unit_world_candidates(m) == ["a_lone", "c"]
        cat = build_smc(StarredModel(m, order))
        assert cat.unit_atom == "p"
        assert cat.c_world == "c"

    @pytest.mark.parametrize("cap", [0, -1])
    def test_object_cap_below_one_rejected(self, cap):
        rec = to_starred_model(corpus.entanglement_qrt())
        with pytest.raises(StructuralError, match="cap"):
            build_smc(rec.starred, cap)

    def test_cap_past_the_atom_count_lists_every_object_once(self, monkeypatch):
        rec = to_starred_model(corpus.entanglement_qrt())
        full = build_smc(rec.starred, 10**11)
        k = len(full.atoms)
        sizes = []

        def combinations(pool, r):
            # a size past the atom count has no combination to enumerate
            assert r <= k
            sizes.append(r)
            return itertools.combinations(pool, r)

        monkeypatch.setattr(smc, "itertools", SimpleNamespace(combinations=combinations))
        assert full.objects == tuple(range(1 << k))
        assert sizes == list(range(k + 1))
        assert verify_smc_laws(full) == verify_smc_laws(build_smc(rec.starred, k))

    def test_false_unit_atom_rejected(self):
        m = KripkeModel(
            ["c", "w"],
            [("c", "c"), ("w", "w")],
            ["p", "a"],
            {"c": {"p"}, "w": {"a"}},
            {"p": 0, "a": 0},
        )
        with pytest.raises(StructuralError):
            build_smc(StarredModel(m, [("p", "p"), ("a", "a")]))

    def test_objects_are_normalized_and_capped(self):
        _, cat = entanglement_category(cap=2)
        n_atoms = len(cat.atoms)
        expected = 1 + n_atoms + n_atoms * (n_atoms - 1) // 2
        assert len(cat.objects) == expected
        assert all(bin(x).count("1") <= 2 for x in cat.objects)

    def test_tensor_is_normalized_union(self):
        _, cat = entanglement_category()
        x = cat.mask_of(["A.a0", "B.b0"])
        y = cat.mask_of(["B.b0", "AB.bell"])
        assert cat.atoms_of(cat.tensor(x, y)) == {"A.a0", "B.b0", "AB.bell"}
        # the unit atom is absorbed during normalization
        assert cat.mask_of(["c.one", "A.a0"]) == cat.mask_of(["A.a0"])


class TestLaws:
    def test_entanglement_image_passes_all_laws(self):
        _, cat = entanglement_category()
        report = verify_smc_laws(cat)
        assert report["ok"], report

    def test_all_corpus_images_pass(self):
        for build in (
            corpus.trivial_qrt,
            corpus.chain_qrt,
            corpus.convex_closed_qrt,
            corpus.convexity_demo_qrt,
            corpus.resource_destroying_qrt,
        ):
            cat = build_smc(to_starred_model(build()).starred)
            report = verify_smc_laws(cat)
            assert report["ok"], (build.__name__, report)

    def test_associativity_instance(self):
        _, cat = entanglement_category()
        x = cat.mask_of(["A.a0"])
        y = cat.mask_of(["B.b0"])
        z = cat.mask_of(["AB.p00"])
        assert cat.tensor(x, cat.tensor(y, z)) == cat.tensor(cat.tensor(x, y), z)

    def test_broken_model_fails_hom_transitivity(self):
        cat = build_smc(corpus.broken_smc_model())
        report = verify_smc_laws(cat)
        assert not report["ok"]
        assert not report["compose_closed"]
        ref = ReferenceCategory(cat)
        assert first_intransitive_triple(ref, ref.hom_matrix()) == [["a"], ["b"], ["d"]]


class TestHomAndMorphisms:
    def test_identity_morphism_exists_everywhere(self):
        _, cat = entanglement_category()
        ref = ReferenceCategory(cat)
        assert verify_smc_laws(cat)["identities"]
        for x in cat.objects:
            assert cat.hom_nonempty(x, x)
            ident = ref.identity_morphism(int(x))
            assert ident is not None and ref.valid_morphism(ident)

    def test_composition_with_identity(self):
        # the law the sweep derives from identities, in the oracle's arithmetic
        _, cat = entanglement_category()
        ref = ReferenceCategory(cat)
        x = cat.mask_of(["A.a0"])
        y = cat.mask_of(["B.b0"])
        assert cat.hom_nonempty(x, y)
        f = ref.canonical_morphism(x, y)
        assert f is not None and ref.valid_morphism(f)
        idx = ref.identity_morphism(x)
        idy = ref.identity_morphism(y)
        assert ref.compose_morphisms(f, idx) == f
        assert ref.compose_morphisms(idy, f) == f

    def test_hom_transitivity_on_image(self):
        _, cat = entanglement_category()
        objs = cat.objects
        for x in objs[:40]:
            for y in objs[:40]:
                if not cat.hom_nonempty(x, y):
                    continue
                for z in objs[:40]:
                    if cat.hom_nonempty(y, z):
                        assert cat.hom_nonempty(x, z)

    def test_invalid_morphism_detected(self):
        _, cat = entanglement_category()
        ref = ReferenceCategory(cat)
        x, y = cat.mask_of(["AB.bell"]), cat.mask_of(["A.a0"])
        bogus = PairMorphism(
            frozenset({"AB.bell"}), frozenset({"A.a0"}), frozenset({("AB.bell", "A.a0")})
        )
        assert not arrow(cat, "AB.bell", "A.a0")
        assert not ref.valid_morphism(bogus)
        assert not cat.hom_nonempty(x, y) and ref.canonical_morphism(x, y) is None


class TestFreeObjects:
    def test_unit_is_free(self):
        _, cat = entanglement_category()
        assert frozenset() in set(free_objects(cat))

    def test_atoms_free_iff_true(self):
        rec, cat = entanglement_category()
        singles = {next(iter(s)) for s in free_objects(cat) if len(s) == 1}
        expected = {
            a for a, v in rec.model.interp.items() if v == 1 and a != "c.one"
        }
        assert singles == expected
        assert "AB.bell" not in singles

    def test_object_free_iff_every_atom_free(self):
        rec, cat = entanglement_category()
        frees = set(map(frozenset, free_objects(cat)))
        free_atoms = {
            a for a, v in rec.model.interp.items() if v == 1 and a != "c.one"
        }
        for x in cat.objects:
            atoms = cat.atoms_of(x)
            assert (frozenset(atoms) in frees) == (atoms <= free_atoms)


# -- differential oracle ----------------------------------------------------------


@dataclass(frozen=True)
class PairMorphism:
    """A morphism as its component pairing of atom names: every source
    atom on the left, every target atom on the right, the unit atom
    padding either side."""

    source: frozenset
    target: frozenset
    pairs: frozenset


class ReferenceCategory:
    """The hom structure of a category derived the way the law sweep did
    before the arrow table: every arrow by scanning pairs of host worlds,
    the atoms of a mask by scanning the index, and morphisms as sets of
    name pairs with the pairing arithmetic of that time."""

    def __init__(self, cat):
        m = cat.starred.model
        self.cat = cat
        self.starred = cat.starred
        self.atoms = cat.atoms
        self.unit_atom = cat.unit_atom
        self.objects = cat.objects
        self.unit = 0
        self._index = {a: i for i, a in enumerate(self.atoms)}
        self._hosts = {
            a: frozenset(w for w in m.worlds if a in m.domains[w]) for a in m.domain
        }
        self.out_masks = self._out_masks()
        self.in_masks = self._in_masks()

    def arrow(self, a, b):
        if (a, b) not in self.starred.order:
            return False
        access = self.starred.model.access
        return any((w, u) in access for w in self._hosts[a] for u in self._hosts[b])

    def atoms_of(self, mask):
        return frozenset(a for a, i in self._index.items() if mask >> i & 1)

    def _out_masks(self):
        masks, to_unit = [], []
        for a in self.atoms:
            m = 0
            for b in self.atoms:
                if self.arrow(a, b):
                    m |= 1 << self._index[b]
            masks.append(m)
            to_unit.append(self.arrow(a, self.unit_atom))
        return masks, to_unit

    def _in_masks(self):
        masks, from_unit = [], []
        for b in self.atoms:
            m = 0
            for a in self.atoms:
                if self.arrow(a, b):
                    m |= 1 << self._index[a]
            masks.append(m)
            from_unit.append(self.arrow(self.unit_atom, b))
        return masks, from_unit

    def hom_nonempty(self, x, y):
        out_masks, to_unit = self.out_masks
        in_masks, from_unit = self.in_masks
        for i in range(len(self.atoms)):
            if x >> i & 1 and not (out_masks[i] & y or to_unit[i]):
                return False
            if y >> i & 1 and not (in_masks[i] & x or from_unit[i]):
                return False
        return True

    def canonical_morphism(self, x, y):
        if not self.hom_nonempty(x, y):
            return None
        pairs = set()
        covered = 0
        xs = sorted(self.atoms_of(x))
        ys = sorted(self.atoms_of(y))
        for a in xs:
            choice = next((b for b in ys if self.arrow(a, b)), None)
            if choice is None:
                pairs.add((a, self.unit_atom))
            else:
                pairs.add((a, choice))
                covered |= 1 << self._index[choice]
        for b in ys:
            if covered >> self._index[b] & 1:
                continue
            if self.arrow(self.unit_atom, b):
                pairs.add((self.unit_atom, b))
            else:
                a = next((a for a in xs if self.arrow(a, b)), None)
                if a is None:
                    return None
                pairs.add((a, b))
        return PairMorphism(self.atoms_of(x), self.atoms_of(y), frozenset(pairs))

    def identity_morphism(self, x):
        atoms = self.atoms_of(x)
        if any(not self.arrow(a, a) for a in atoms):
            return None
        return PairMorphism(atoms, atoms, frozenset((a, a) for a in atoms))

    def compose_morphisms(self, g, f):
        if f.target != g.source:
            raise StructuralError("morphisms are not composable")
        pairs = set()
        for a, b in f.pairs:
            if b == self.unit_atom:
                pairs.add((a, self.unit_atom))
            else:
                for b2, c in g.pairs:
                    if b2 == b:
                        pairs.add((a, c))
        for b2, c in g.pairs:
            if b2 == self.unit_atom:
                pairs.add((self.unit_atom, c))
        pairs.discard((self.unit_atom, self.unit_atom))
        return PairMorphism(f.source, g.target, frozenset(pairs))

    def valid_morphism(self, mor):
        lefts = {a for a, _ in mor.pairs}
        rights = {b for _, b in mor.pairs}
        if not mor.source <= lefts or not (lefts - mor.source) <= {self.unit_atom}:
            return False
        if not mor.target <= rights or not (rights - mor.target) <= {self.unit_atom}:
            return False
        return all(self.arrow(a, b) for a, b in mor.pairs)

    def hom_matrix(self):
        objs = np.array(self.objects, dtype=np.int64)
        n = len(objs)
        out_masks, to_unit = self.out_masks
        in_masks, from_unit = self.in_masks
        bad_src = np.zeros(n, dtype=np.int64)
        bad_tgt = np.zeros(n, dtype=np.int64)
        for i in range(len(self.atoms)):
            if not to_unit[i]:
                bad_src[(objs & out_masks[i]) == 0] |= 1 << i
            if not from_unit[i]:
                bad_tgt[(objs & in_masks[i]) == 0] |= 1 << i
        h = (objs[:, None] & bad_src[None, :]) == 0
        h &= (objs[None, :] & bad_tgt[:, None]) == 0
        return h

    def single_morphisms(self):
        """Every morphism of one component, in index order with the unit
        atom last; the empty object stands in for the unit at either end,
        and a unit-to-unit component is no component."""
        label = self.atoms + (self.unit_atom,)
        return [
            PairMorphism(frozenset({a}) - {self.unit_atom}, frozenset({b}) - {self.unit_atom},
                         frozenset({(a, b)}))
            for a in label for b in label
            if self.arrow(a, b) and (a, b) != (self.unit_atom, self.unit_atom)
        ]


def first_intransitive_triple(ref, h):
    """The first (x, y, z) in object order with x -> y -> z but not x -> z,
    over all n objects by one n x n matrix product, as sorted atom lists."""
    reach2 = (h.astype(np.float32) @ h.astype(np.float32)) > 0
    trans_bad = reach2 & ~h
    if not trans_bad.any():
        return None
    i, j = np.argwhere(trans_bad)[0]
    k = int(np.argmax(h[i].astype(np.uint8) & h[:, j].astype(np.uint8)))
    return [sorted(ref.atoms_of(int(ref.objects[t]))) for t in (i, k, j)]


def first_broken_chain(ref):
    """The first chain of single-component morphisms, in index order, whose
    composite by the name-pair arithmetic is not a morphism, as the atom
    ids of its source, middle and target components; None if all compose."""
    singles = ref.single_morphisms()
    for f in singles:
        for g in singles:
            if f.target == g.source and not ref.valid_morphism(ref.compose_morphisms(g, f)):
                ((a, b),), ((_, c),) = f.pairs, g.pairs
                return [a, b, c]
    return None


def reference_laws(cat):
    """The law sweep with the int64 chunked n^3 tensor pass, the full
    n x n hom matrix, and closure by composing every chain of
    single-component morphisms, run on the reference hom structure."""
    ref = ReferenceCategory(cat)
    objs = np.array(ref.objects, dtype=np.int64)
    n = len(objs)
    report = {"n_objects": int(n)}

    sym = objs[:, None] | objs[None, :]
    report["tensor_symmetric"] = bool(np.array_equal(sym, sym.T))
    report["tensor_idempotent"] = bool(np.array_equal(np.diagonal(sym), objs))
    report["tensor_unit"] = bool(
        np.array_equal(objs | ref.unit, objs) and np.array_equal(ref.unit | objs, objs)
    )
    assoc_ok = True
    chunk = max(1, (1 << 22) // max(n * n, 1))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        left = sym[lo:hi, :, None] | objs[None, None, :]
        right = objs[lo:hi, None, None] | sym[None, :, :]
        if not np.array_equal(left, right):
            assoc_ok = False
            break
    report["tensor_associative"] = bool(assoc_ok)

    ident_bad = [
        ref.atoms_of(x) for x in ref.objects if ref.identity_morphism(int(x)) is None
    ]
    report["identities"] = not ident_bad
    if ident_bad:
        report["identity_counterexample"] = sorted(map(sorted, ident_bad))[:3]

    triple = first_intransitive_triple(ref, ref.hom_matrix())
    report["hom_transitive"] = triple is None
    if triple is not None:
        report["hom_counterexample"] = triple

    chain = first_broken_chain(ref)
    report["compose_closed"] = chain is None
    if chain is not None:
        report["compose_counterexample"] = chain
    report["ok"] = all(
        report[k]
        for k in (
            "tensor_symmetric",
            "tensor_idempotent",
            "tensor_unit",
            "tensor_associative",
            "identities",
            "hom_transitive",
            "compose_closed",
        )
    )
    return report


TENSOR_LAWS = ("tensor_symmetric", "tensor_idempotent", "tensor_unit", "tensor_associative")
ENCODING_CHECKS = ("objects_canonical", "tensor_is_union")
# the reference's transitivity keys, which closure implies (see verify_smc_laws)
TRANSITIVITY = ("hom_transitive", "hom_counterexample")


def assert_matches_reference(cat):
    """Every key the two sweeps share is equal, "ok" included, though only
    the reference checks transitivity; the reference's n^3 tensor laws and
    the encoding checks that replace them all hold; hom_nonempty agrees
    with the reference's hom matrix on every object pair."""
    report = verify_smc_laws(cat)
    expected = reference_laws(cat)
    shared = set(expected) - set(TENSOR_LAWS) - set(TRANSITIVITY)
    assert set(report) == shared | set(ENCODING_CHECKS)
    for key in sorted(shared):
        assert report[key] == expected[key], key
    assert all(expected[k] for k in TENSOR_LAWS)
    assert all(report[k] for k in ENCODING_CHECKS)
    h = ReferenceCategory(cat).hom_matrix()
    objs = cat.objects
    assert [[cat.hom_nonempty(x, y) for y in objs] for x in objs] == h.tolist()
    return report


class TestAgainstReference:
    CORPUS = (
        corpus.trivial_qrt,
        corpus.chain_qrt,
        corpus.entanglement_qrt,
        corpus.convex_closed_qrt,
        corpus.convexity_demo_qrt,
        corpus.resource_destroying_qrt,
    )

    @pytest.fixture(scope="class")
    def family(self):
        return build_family(1, 20)

    def test_corpus_images(self):
        for build in self.CORPUS:
            assert_matches_reference(build_smc(to_starred_model(build()).starred))

    def test_broken_model_counterexample(self):
        cat = build_smc(corpus.broken_smc_model())
        assert not assert_matches_reference(cat)["ok"]
        assert reference_laws(cat)["hom_counterexample"] == [["a"], ["b"], ["d"]]

    @pytest.mark.parametrize("cap", [2, 3, 5])
    def test_family(self, family, cap):
        for _, q in family:
            assert_matches_reference(build_smc(to_starred_model(q).starred, cap))

    @pytest.mark.parametrize(
        "index, n_atoms, dtype", [(1, 8, np.uint8), (16, 10, np.uint16)]
    )
    def test_four_system_theories(self, index, n_atoms, dtype):
        cfg = GeneratorConfig(seed=1, n_systems=4, dims=(1, 2, 3), states_per_system=4)
        q = complete_composition(generate_qrt(cfg, index=index))
        assert len(q.nodes) == n_atoms
        cat = build_smc(to_starred_model(q).starred)
        assert smc._mask_dtype(len(cat.atoms)) is dtype
        assert assert_matches_reference(cat)["ok"]


def random_starred_model(rng, k, unit_reach=False):
    """A starred model with k non-unit atoms spread over a few worlds, an
    atom often shared by two of them, random access that is mostly not
    transitive, a random preorder, and the true unit atom alone in world
    c0, which reaches every world with a true atom. With unit_reach,
    worlds may also reach c0 and atoms may precede the unit atom, so
    chains can run into and through the unit."""
    atoms = [f"a{i}" for i in range(k)]
    worlds = [f"w{i}" for i in range(rng.randint(2, k + 2))]
    domains = {w: rng.sample(atoms, rng.randint(1, min(2, k))) for w in worlds}
    interp = {a: int(rng.random() < 0.3) for a in atoms}
    access = {(w, w) for w in worlds + ["c0"]}
    access |= {(u, w) for u in worlds for w in worlds if rng.random() < 0.3}
    access |= {
        ("c0", w) for w in worlds
        if rng.random() < 0.3 or any(interp[a] for a in domains[w])
    }
    if unit_reach:
        access |= {(w, "c0") for w in worlds if rng.random() < 0.3}
    model = KripkeModel(
        worlds + ["c0"], access, atoms + ["p"], {**domains, "c0": ["p"]}, {**interp, "p": 1}
    )
    rel = [(a, b) for a in atoms + ["p"] for b in atoms if a != b and rng.random() < 0.5]
    if unit_reach:
        rel += [(a, "p") for a in atoms if rng.random() < 0.3]
    return StarredModel(model, reflexive_transitive_closure(rel, atoms + ["p"]))


class TestTransitivityOnSmallObjects:
    # the laws that "ok" conjoins besides hom transitivity, which closure
    # implies; spelled out so that a law dropped from smc._LAWS is caught
    LAWS = ("objects_canonical", "tensor_is_union", "identities", "compose_closed")

    def test_agrees_with_the_full_check(self):
        rng = random.Random(7)
        verdicts = []
        for i in range(1000):
            k = rng.randint(1, 6)
            sm = random_starred_model(rng, k, unit_reach=i % 2 == 1)
            per_cap = set()
            for cap in range(1, k + 1):
                cat = build_smc(sm, cap)
                report = verify_smc_laws(cat)
                ref = ReferenceCategory(cat)
                transitive = first_intransitive_triple(ref, ref.hom_matrix()) is None
                # closure implies transitivity
                assert transitive or not report["compose_closed"]
                assert report["ok"] == (all(report[law] for law in self.LAWS) and transitive)
                per_cap.add(transitive)
                verdicts.append(transitive)
            # objects of at most one atom decide transitivity at every cap
            assert len(per_cap) == 1
        # both verdicts are common, so the implication is not vacuous
        assert min(verdicts.count(True), verdicts.count(False)) > len(verdicts) // 4


def unit_detour_model():
    """a -> b -> c with no a -> c, while a -> unit -> c makes hom({a}, {c})
    non-empty: hom transitivity holds and composition is not closed."""
    worlds = ["w0", "w1", "w2", "c0"]
    access = [(w, w) for w in worlds] + [("w0", "w1"), ("w1", "w2"), ("w0", "c0"), ("c0", "w2")]
    domains = {"w0": {"a"}, "w1": {"b"}, "w2": {"c"}, "c0": {"p"}}
    model = KripkeModel(worlds, access, list("abcp"), domains, {"a": 0, "b": 0, "c": 0, "p": 1})
    order = reflexive_transitive_closure(
        [("a", "b"), ("b", "c"), ("a", "p"), ("p", "c")], list("abcp")
    )
    return StarredModel(model, order)


def assert_canonical_composites_valid(ref):
    """g o f is a morphism for the canonical f: x -> y and g: y -> z of
    every pair of hom pairs."""
    objs = [int(x) for x in ref.objects]
    canon = {(x, y): ref.canonical_morphism(x, y) for x in objs for y in objs}
    for (x, y), f in canon.items():
        for z in objs:
            if f is not None and canon[y, z] is not None:
                assert ref.valid_morphism(ref.compose_morphisms(canon[y, z], f))


def assert_identity_and_associativity(ref):
    """f o id = f = id o f for the canonical f of every hom pair, and
    e o (g o f) = (e o g) o f where g and e are the canonical morphisms
    into the first object reachable from f's and then g's target."""
    objs = [int(x) for x in ref.objects]
    canon = {(x, y): ref.canonical_morphism(x, y) for x in objs for y in objs}
    first = {x: next((y for y in objs if canon[x, y] is not None), None) for x in objs}
    for (x, y), f in canon.items():
        if f is None:
            continue
        assert ref.compose_morphisms(f, ref.identity_morphism(x)) == f
        assert ref.compose_morphisms(ref.identity_morphism(y), f) == f
        z = first[y]
        if z is None or first[z] is None:
            continue
        g, e = canon[y, z], canon[z, first[z]]
        assert ref.compose_morphisms(e, ref.compose_morphisms(g, f)) == (
            ref.compose_morphisms(ref.compose_morphisms(e, g), f)
        )


class TestClosureOnArrowRows:
    def test_agrees_with_every_chain_of_reference_morphisms(self):
        rng = random.Random(11)
        closed, detours = [], 0
        for _ in range(200):
            k = rng.randint(1, 5)
            sm = random_starred_model(rng, k, unit_reach=True)
            ref = ReferenceCategory(build_smc(sm, k))
            # the unit's self-arrow, which spares its row a special case
            assert ref.arrow(ref.unit_atom, ref.unit_atom)
            chain = first_broken_chain(ref)
            for cap in range(1, k + 1):
                report = verify_smc_laws(build_smc(sm, cap))
                assert report["compose_closed"] == (chain is None)
                assert report.get("compose_counterexample") == chain
            closed.append(chain is None)
            transitive = first_intransitive_triple(ref, ref.hom_matrix()) is None
            detours += chain is not None and transitive
            if chain is None:
                assert_canonical_composites_valid(ref)
            if report["identities"]:
                assert_identity_and_associativity(ref)
        # both verdicts are common, and some broken chains hide behind the unit
        assert min(closed.count(True), closed.count(False)) > len(closed) // 4
        assert detours

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_unit_detour_fails_closure_only(self, cap):
        cat = build_smc(unit_detour_model(), cap)
        report = assert_matches_reference(cat)
        ref = ReferenceCategory(cat)
        assert first_intransitive_triple(ref, ref.hom_matrix()) is None
        assert report["identities"]
        assert not report["compose_closed"] and not report["ok"]
        assert report["compose_counterexample"] == ["a", "b", "c"]
        assert ref.arrow("a", "b") and ref.arrow("b", "c") and not ref.arrow("a", "c")
        a, b, c = (cat.mask_of([t]) for t in "abc")
        assert ref.hom_nonempty(a, c)
        f, g = ref.canonical_morphism(a, b), ref.canonical_morphism(b, c)
        assert not ref.valid_morphism(ref.compose_morphisms(g, f))

    def test_broken_model_chain(self):
        cat = build_smc(corpus.broken_smc_model())
        report = assert_matches_reference(cat)
        assert report["compose_counterexample"] == ["a", "b", "d"]


# -- encoding mutants ---------------------------------------------------------------


class MisIndexedAtom(SmcCategory):
    """mask_of puts the first atom on the second atom's bit."""

    def mask_of(self, atoms):
        first, second = self.atoms[:2]
        return super().mask_of(second if a == first else a for a in atoms)


class DroppedBit(SmcCategory):
    """tensor loses bit 0."""

    def tensor(self, x, y):
        z = x | y
        return z ^ (z & 1)


class DuplicatedObject(SmcCategory):
    """objects lists the unit twice."""

    @property
    def objects(self):
        return (0,) + SmcCategory.objects.func(self)


MUTANTS = [
    (MisIndexedAtom, "tensor_is_union"),
    (DroppedBit, "tensor_is_union"),
    (DuplicatedObject, "objects_canonical"),
]


class TestEncodingMutants:
    @pytest.mark.parametrize("mutant, caught_by", MUTANTS)
    def test_caught_by_the_encoding_checks_alone(self, mutant, caught_by):
        cat = mutant(to_starred_model(corpus.entanglement_qrt()).starred, 3)
        report = verify_smc_laws(cat)
        assert not report["ok"]
        assert not report[caught_by]
        assert all(report[k] for k in smc._LAWS if k != caught_by)
        # the n^3 sweep of bitwise OR over the object list passes the mutant
        expected = reference_laws(cat)
        assert all(expected[k] for k in TENSOR_LAWS)
        assert expected["ok"]

    @pytest.mark.parametrize("mutant, caught_by", MUTANTS)
    def test_falsifies_the_theorems_report(self, mutant, caught_by, monkeypatch):
        monkeypatch.setattr(harness, "SmcCategory", mutant)
        rep = run_theorems(family=[("chain", corpus.chain_qrt())], include_corpus=False)
        assert [e["laws_ok"] for e in rep["smc"]["entries"]] == [False]
        assert rep["status"] == 1


class TestSweepCost:
    def test_mask_dtype_is_the_narrowest(self):
        assert smc._mask_dtype(0) is np.uint8
        assert smc._mask_dtype(8) is np.uint8
        assert smc._mask_dtype(9) is np.uint16
        assert smc._mask_dtype(16) is np.uint16
        assert smc._mask_dtype(17) is np.uint32
        assert smc._mask_dtype(64) is np.uint64
        with pytest.raises(StructuralError):
            smc._mask_dtype(65)

    def test_objects_canonical_bit_range(self):
        # eight atoms fill uint8, so no bit lies at or above k
        full = SimpleNamespace(atoms=tuple("abcdefgh"), object_cap=8)
        assert smc._objects_canonical(full, np.arange(256, dtype=np.uint8))
        # seven atoms: bit 7 is out of range though count, order and
        # popcount all hold
        seven = SimpleNamespace(atoms=tuple("abcdefg"), object_cap=7)
        objs = np.arange(128, dtype=np.uint8)
        assert smc._objects_canonical(seven, objs)
        objs[-1] = 128
        assert not smc._objects_canonical(seven, objs)

    def test_temporaries_are_linear(self):
        # 9 non-unit atoms at cap 5: 382 objects; the sweep peaks near
        # 8 n (k+1) bytes, and an n x n boolean matrix alone would take
        # n^2 = 38 n (k+1) bytes
        cfg = GeneratorConfig(seed=1, n_systems=4, dims=(1, 2, 3), states_per_system=4)
        cat = build_smc(to_starred_model(generate_qrt(cfg, index=16)).starred)
        n, k = len(cat.objects), len(cat.atoms)
        tracemalloc.start()
        try:
            verify_smc_laws(cat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * n * (k + 1)
