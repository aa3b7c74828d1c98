"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance here is exact (the library does no floating point).
"""

import random
import sys
from contextlib import contextmanager
from functools import lru_cache
from itertools import combinations_with_replacement

import pytest

from templikit.coeff import (
    FREE,
    Module,
    Morphism,
    Ring,
    RingExtension,
    analyze,
)
from templikit.constructors import (
    builtin,
    free_templicial,
    generate,
    nerve,
    paper_p,
    s0_times_2,
    sset_boundary,
    sset_horn,
    sset_nerve_of_poset,
    sset_simplex,
    truncated_polynomial_category,
)
from templikit.deform import (
    DeformationPair,
    build_extension,
    check_extension_weak_kan,
    verify_degproj_lift,
    verify_thm_main,
    verify_wings_tensor,
)
from templikit.kan import (
    check_deg_projective,
    check_levelwise,
    check_lifts_wings,
    check_quasicategory,
    check_weak_kan,
    ez_check,
)
from templikit.necklace import (
    Necklace,
    NecklaceMap,
    all_necklace_maps,
    injective_into_simplex,
    necklace_maps_between,
    necklaces,
    simplex_necklace,
)
from templikit.quiver import QuiverMorphism
from templikit.templicial import (
    NecklicialModule,
    TemplicialModule,
    hom_necklicial,
    tensor_external,
    validate_necklicial,
    validate_templicial,
)

F2 = Ring.prime_field(2)
F3 = Ring.prime_field(3)
Z = Ring.integers()


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}", file=sys.__stdout__)
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}", file=sys.__stdout__)


@lru_cache(maxsize=None)
def _nerve_f3x2(n):
    return nerve(truncated_polynomial_category(F3, (F3.zero(), F3.zero())), n)


@lru_cache(maxsize=None)
def _free_poset3(ring_key, n):
    ring = {"F2": F2, "Z8": Ring.chain(2, 3), "Z": Z}[ring_key]
    sset = sset_nerve_of_poset(("p0", "p1", "p2"), (("p0", "p1"), ("p1", "p2")), n)
    return free_templicial(sset, ring, n)


def _zero_necklicial(ring, max_level):
    values = {t: Module.zero(ring) for p in range(max_level + 1) for t in necklaces(p)}
    actions = {f: Morphism.zero(values[f.target], values[f.source])
               for f in all_necklace_maps(max_level)}
    return NecklicialModule.build(ring, max_level, values, actions)


@lru_cache(maxsize=None)
def _corpus():
    """Named necklicial modules: nerves, frees, deformations, tensors,
    perturbations and the negative instances."""
    items = []
    nerve4 = _nerve_f3x2(4)
    y_nerve = hom_necklicial(nerve4, "*", "*")
    items.append(("nerve-f3x2", y_nerve))
    items.append(("nerve-f3x2-tensor-rank2", tensor_external(y_nerve, Module.free(F3, 2))))
    items.append(("nerve-f3x2-tensor-rank3", tensor_external(y_nerve, Module.free(F3, 3))))
    unit_nerve = nerve(truncated_polynomial_category(F2, (F2.zero(),)), 4)
    items.append(("nerve-unit-f2", hom_necklicial(unit_nerve, "*", "*")))
    rand_nerve = generate(1, "nerve-of-random-algebra", p=5, rank=2, max_level=3)
    items.append(("nerve-random-f5", hom_necklicial(rand_nerve, "*", "*")))

    d1 = free_templicial(sset_simplex(1, 4), F2, 4)
    items.append(("free-delta1-01", hom_necklicial(d1, (0,), (1,))))
    items.append(("free-delta1-00", hom_necklicial(d1, (0,), (0,))))
    d2 = free_templicial(sset_simplex(2, 4), F2, 4)
    items.append(("free-delta2-02", hom_necklicial(d2, (0,), (2,))))
    d3 = free_templicial(sset_simplex(3, 3), F3, 3)
    items.append(("free-delta3-03", hom_necklicial(d3, (0,), (3,))))
    bd2 = free_templicial(sset_boundary(2, 3), F2, 3)
    items.append(("free-boundary2-02", hom_necklicial(bd2, (0,), (2,))))
    horn21 = free_templicial(sset_horn(2, 1, 3), F2, 3)
    items.append(("free-horn21-02", hom_necklicial(horn21, (0,), (2,))))

    poset = _free_poset3("F2", 4)
    y_poset = hom_necklicial(poset, ("p0",), ("p2",))
    items.append(("free-poset3-02", y_poset))
    items.append(("free-poset3-01", hom_necklicial(poset, ("p0",), ("p1",))))
    p_inst = paper_p(3)
    items.append(("paper-P-ac", hom_necklicial(p_inst, "a", "c")))
    items.append(("paper-P-ab1", hom_necklicial(p_inst, "a", "b1")))
    pair = builtin("paper_P_deformed")
    items.append(("paper-P-deformed-ac", hom_necklicial(pair.deformed, "a", "c")))
    eps = Ring.dual_chain(3, 2).uniformizer
    defnerve = nerve(truncated_polynomial_category(
        Ring.dual_chain(3, 2), (eps, Ring.dual_chain(3, 2).zero())), 3)
    items.append(("nerve-deformed-dual3", hom_necklicial(defnerve, "*", "*")))
    items.append(("free-poset3-z8", hom_necklicial(_free_poset3("Z8", 3), ("p0",), ("p2",))))

    chain2 = sset_nerve_of_poset(("p0", "p1"), (("p0", "p1"),), 4)
    free_z = free_templicial(chain2, Z, 4)
    yz = hom_necklicial(free_z, ("p0",), ("p1",))
    items.append(("free-z-chain2", yz))
    items.append(("free-z-chain2-tensor-z2", tensor_external(yz, Module(Z, (2,)))))

    rand_free = generate(2, "free-on-random-quasicat", p=2, size=3, max_level=3)
    va, vb = rand_free.vertices[0], rand_free.vertices[-1]
    items.append(("free-random-poset", hom_necklicial(rand_free, va, vb)))
    items.append(("perturbed-poset", generate(
        3, "random-necklicial-perturbation",
        instance=hom_necklicial(_free_poset3("F2", 3), ("p0",), ("p2",)))))
    items.append(("perturbed-nerve", generate(
        4, "random-necklicial-perturbation",
        instance=hom_necklicial(_nerve_f3x2(3), "*", "*"))))
    items.append(("zero-f2", _zero_necklicial(F2, 3)))
    y_small = hom_necklicial(free_templicial(chain2, F2, 3), ("p0",), ("p1",))
    items.append(("extension-direct-sum", build_extension(y_small, y_small).total))
    return tuple(items)


def test_criterion_1_combinatorics_oracle():
    with criterion(1, "necklace counts, injective maps, unique factorization"):
        for p in range(1, 9):
            assert len(necklaces(p)) == 2 ** (p - 1)
        for n in range(1, 7):
            direct = injective_into_simplex(n)
            assert len(direct) == 3 ** (n - 1)
            brute = {
                f
                for p in range(0, n + 1)
                for t in necklaces(p)
                for f in necklace_maps_between(t, simplex_necklace(n))
                if f.is_injective
            }
            assert brute == set(direct)
        for f in all_necklace_maps(4):
            image = tuple(sorted({f.fint(t) for t in f.source.points}))
            count = 0
            for mid in necklaces(f.target.dim):
                if not set(f.target.points) <= set(mid.points):
                    continue
                try:
                    g = NecklaceMap(f.source, mid, f.fint)
                except Exception:
                    continue
                if g.is_active:
                    count += 1
                    assert mid.points == image
            assert count == 1


def test_criterion_2_nerve_quasicategory():
    with criterion(2, "nerve of F3[x]/(x^2) is a quasi-category at N=4, mu invertible"):
        x = _nerve_f3x2(4)
        report = check_quasicategory(x, 4)
        assert report.passed
        for (_k, _l), mu in x.comults:
            for _key, comp in mu.components:
                assert analyze(comp).is_iso


def test_criterion_3_free_functor():
    with criterion(3, "free on poset nerve passes at N=4; free on P fails only at (a,c,2,1)"):
        report = check_quasicategory(_free_poset3("F2", 4), 4)
        assert report.passed
        p_report = check_quasicategory(paper_p(3), 3)
        failures = [i for i in p_report.items if not i.passed]
        assert [i.indices for i in failures] == [("a", "c", 2, 1)]
        assert failures[0].cokernel.factors == (FREE,)


def test_criterion_4_deg_projectivity():
    with criterion(4, "s0_times_2 fails deg-projectivity at n=1 with Z/2; frees pass with EZ"):
        report = check_deg_projective(s0_times_2(2), 2)
        assert not report.passed
        first = report.first_failure()
        assert first.indices[0] == 1 and first.cokernel.factors == (2,)

        frees = [
            free_templicial(sset_simplex(1, 3), F2, 3),
            free_templicial(sset_simplex(2, 3), F3, 3),
            free_templicial(sset_nerve_of_poset(("p0", "p1", "p2"),
                                                (("p0", "p1"), ("p1", "p2")), 3), F2, 3),
            paper_p(3),
            free_templicial(sset_boundary(2, 3), F2, 3),
        ]
        for x in frees:
            assert check_deg_projective(x, 3).passed
            assert ez_check(x, 3).passed
            # deg-projective implies levelwise projective
            assert check_levelwise(x, "projective", 3).passed
        d1 = frees[0]
        assert d1.level_quiver(2).hom((0,), (1,)).rank == 2


def test_criterion_5_wings_horns_equivalence():
    with criterion(5, "weak Kan and lifts-wings agree over the corpus at N in {2,3,4}"):
        corpus = _corpus()
        assert len(corpus) >= 20
        divergences = []
        for name, y in corpus:
            for n in (2, 3, 4):
                if n > y.max_level:
                    continue
                kan = check_weak_kan(y, n).passed
                wings = check_lifts_wings(y, n).passed
                if kan != wings:
                    divergences.append((name, n, kan, wings))
        assert divergences == []
        # the corpus genuinely contains failing instances
        negatives = [name for name, y in corpus
                     if not check_weak_kan(y, 2).passed]
        assert "paper-P-ac" in negatives and "free-boundary2-02" in negatives
        # and on the larger horn and wings diagrams of a nerve at N = 5 and 6,
        # a quasi-category: its 10 horns and 4 wings, then 15 and 5, all lift
        for n, sizes in ((5, (10, 4)), (6, (15, 5))):
            y = hom_necklicial(nerve(truncated_polynomial_category(
                F3, (F3.from_int(1), F3.from_int(2))), n), "*", "*")
            kan, wings = check_weak_kan(y, n), check_lifts_wings(y, n)
            assert (len(kan.items), len(wings.items)) == sizes
            assert kan.passed and wings.passed
        # and over Z with free values at N = 5: the free templicial module on
        # the nerve of p0 < p1 < p2 is a quasi-category, and every hom lifts
        # its 10 horns and its 4 wings
        x5 = free_templicial(sset_nerve_of_poset(
            ("p0", "p1", "p2"), (("p0", "p1"), ("p1", "p2")), 5), Z, 5)
        for a in x5.vertices:
            for b in x5.vertices:
                y5 = hom_necklicial(x5, a, b)
                kan, wings = check_weak_kan(y5, 5), check_lifts_wings(y5, 5)
                assert (len(kan.items), len(wings.items)) == (10, 4)
                assert kan.passed and wings.passed


def test_criterion_6_tensor_preservation():
    with criterion(6, "wings-tensor diagnostics pass for nerve x {k,k^2,k^3} and Z/2 over Z"):
        x = _nerve_f3x2(4)
        for rank in (1, 2, 3):
            report = verify_wings_tensor(x, Module.free(F3, rank), 4)
            assert report.passed and report.status == "checked"
            assert report.children  # diagnostics ran
        chain2 = sset_nerve_of_poset(("p0", "p1"), (("p0", "p1"),), 4)
        xz = free_templicial(chain2, Z, 4)
        report = verify_wings_tensor(xz, Module(Z, (2,)), 4)
        assert report.passed


def test_criterion_7_extension_closure():
    with criterion(7, "direct sums and 5 nontrivial cocycle extensions stay weak Kan at N=3"):
        chain2 = sset_nerve_of_poset(("p0", "p1"), (("p0", "p1"),), 3)
        chain3 = sset_nerve_of_poset(("p0", "p1", "p2"), (("p0", "p1"), ("p1", "p2")), 3)
        ys = [
            hom_necklicial(free_templicial(chain2, F2, 3), ("p0",), ("p1",)),
            hom_necklicial(free_templicial(chain3, F2, 3), ("p0",), ("p2",)),
            hom_necklicial(free_templicial(sset_simplex(2, 3), F2, 3), (0,), (2,)),
            hom_necklicial(nerve(truncated_polynomial_category(F2, (F2.zero(),)), 3),
                           "*", "*"),
        ]
        for y in ys:
            assert check_weak_kan(y, 3).passed
        # direct sums
        for sub, quot in ((ys[0], ys[1]), (ys[2], ys[3])):
            ext = build_extension(sub, quot)
            assert check_extension_weak_kan(ext, 3).passed
        # coboundary-twisted extensions: c_f = B_T quot_f - sub_f B_U is a
        # functorial cocycle for any choice of matrices B_T
        built = 0
        seed = 0
        while built < 5:
            seed += 1
            rng = random.Random(seed)
            sub, quot = rng.choice([(a, b) for a in ys for b in ys])
            b_maps = {}
            for t, mod in sub.values:
                qmod = dict(quot.values)[t]
                b_maps[t] = Morphism(qmod, mod, tuple(
                    tuple(rng.randrange(2) for _ in range(qmod.ngens))
                    for _ in range(mod.ngens)))
            cocycle = {}
            for f, sub_act in sub.actions:
                corr = b_maps[f.source].compose(quot.action(f)) - \
                    sub_act.compose(b_maps[f.target])
                if not corr.is_zero_map:
                    cocycle[f] = corr
            if not cocycle:
                continue
            ext = build_extension(sub, quot, cocycle)
            ext.verify_naturality()
            assert check_extension_weak_kan(ext, 3).passed
            built += 1


def test_criterion_8_main_deformation_theorem():
    with criterion(8, "main theorem: nerve pair and two-step Z/8 chain at N=4"):
        d32 = Ring.dual_chain(3, 2)
        eps = d32.uniformizer
        pair = DeformationPair(
            RingExtension(d32, F3),
            nerve(truncated_polynomial_category(d32, (eps, d32.zero())), 4),
            _nerve_f3x2(4))
        report = verify_thm_main(pair, 4)
        assert report.passed and report.status == "checked"
        assert any(c.prop == "proof-skeleton" for c in report.children)

        pair2 = DeformationPair(
            RingExtension(Ring.chain(2, 3), F2),
            _free_poset3("Z8", 4),
            _free_poset3("F2", 4))
        report2 = verify_thm_main(pair2, 4)
        assert report2.passed
        assert "2 small step" in report2.note


def test_criterion_9_degproj_lift():
    with criterion(9, "deg-projectivity lift on paper_P_deformed at N=3 with the 3x3 diagram"):
        pair = builtin("paper_P_deformed")
        report = verify_degproj_lift(pair, 3)
        assert report.passed and report.status == "checked"
        diag = [c for c in report.children if c.prop == "degproj-3x3"]
        assert diag and all(c.passed for c in diag)
        # every row/column exactness item was actually checked
        kinds = {item.indices[-1] for c in diag for item in c.items}
        assert {"row-deg-exact", "row-level-exact", "row-nd-exact",
                "column-E-upper-exact", "column-E-fiber-exact",
                "column-I-tensor-exact", "tor-vanishing-nd"} <= kinds


def _mutation_targets(x):
    targets = []
    for kind, table in (("face", x.faces), ("degeneracy", x.degeneracies),
                        ("comult", x.comults)):
        for key, qm in table:
            for (a, b), mor in qm.components:
                if mor.matrix and mor.matrix[0]:
                    targets.append((kind, key, (a, b)))
    return targets


def _mutate(x, kind, key, hom, i, j):
    table = {"face": dict(x.faces), "degeneracy": dict(x.degeneracies),
             "comult": dict(x.comults)}[kind]
    qm = table[key]
    mor = qm.comp(*hom)
    rows = [list(r) for r in mor.matrix]
    rows[i][j] = x.ring.add(rows[i][j], x.ring.one())
    comps = dict(qm.components)
    comps[hom] = Morphism(mor.domain, mor.codomain, tuple(tuple(r) for r in rows))
    new_qm = QuiverMorphism.build(qm.domain, qm.codomain, comps)
    faces = dict(x.faces)
    degens = dict(x.degeneracies)
    comults = dict(x.comults)
    {"face": faces, "degeneracy": degens, "comult": comults}[kind][key] = new_qm
    return TemplicialModule.build(x.ring, x.vertices, x.max_level, x.levels,
                                  faces, degens, comults)


def test_criterion_10_validator_soundness():
    with criterion(10, "50 single-entry corruptions all caught with a named identity"):
        corpus = [
            _nerve_f3x2(3),
            free_templicial(sset_simplex(2, 3), F2, 3),
            _free_poset3("F2", 3),
            s0_times_2(3),
            generate(1, "nerve-of-random-algebra", p=5, rank=2, max_level=3),
        ]
        rng = random.Random(100)
        silent = []
        for count in range(50):
            x = corpus[count % len(corpus)]
            kind, key, hom = rng.choice(_mutation_targets(x))
            mor = {"face": dict(x.faces), "degeneracy": dict(x.degeneracies),
                   "comult": dict(x.comults)}[kind][key].comp(*hom)
            i = rng.randrange(len(mor.matrix))
            j = rng.randrange(len(mor.matrix[0]))
            mutated = _mutate(x, kind, key, hom, i, j)
            report = validate_templicial(mutated)
            if report.ok:
                silent.append((count, kind, key, hom, i, j))
                continue
            assert report.failures[0].check
        assert silent == []


def test_validators_agree_on_mutants():
    # the exhaustive necklace functoriality check is the ground truth; the
    # templicial validator must agree with it on corpus instances and mutants
    x = free_templicial(sset_simplex(2, 2), F2, 2)
    rng = random.Random(7)
    for trial in range(6):
        kind, key, hom = rng.choice(_mutation_targets(x))
        mor = {"face": dict(x.faces), "degeneracy": dict(x.degeneracies),
               "comult": dict(x.comults)}[kind][key].comp(*hom)
        i = rng.randrange(len(mor.matrix))
        j = rng.randrange(len(mor.matrix[0]))
        mutated = _mutate(x, kind, key, hom, i, j)
        t_ok = validate_templicial(mutated).ok
        n_ok = all(
            validate_necklicial(hom_necklicial(mutated, a, b)).ok
            for a in mutated.vertices for b in mutated.vertices
        )
        assert t_ok == n_ok
