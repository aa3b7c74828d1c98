"""Necklace category combinatorics and index diagrams."""

import random

import pytest

from templikit.necklace import (
    FintMap,
    Necklace,
    NecklaceMap,
    all_necklace_maps,
    build_diagram,
    classify_and_factor,
    fint_delta,
    fint_factorize,
    fint_from_word,
    fint_identity,
    fint_maps,
    fint_sigma,
    fint_surjections,
    injective_into_simplex,
    inert_into_simplex,
    necklace_generators,
    necklace_identity,
    necklace_maps_between,
    necklaces,
    simplex_necklace,
    wedge,
)


def test_wedge_formula():
    a = Necklace((0, 2))
    b = Necklace((0, 1))
    assert wedge(a, b).points == (0, 2, 3)
    unit = Necklace((0,))
    assert wedge(a, unit) == a and wedge(unit, a) == a
    edge = Necklace((0, 1))
    assert wedge(wedge(edge, edge), edge).points == (0, 1, 2, 3)


def test_beads():
    assert Necklace((0, 1, 3, 6)).beads == (1, 2, 3)
    assert Necklace((0,)).beads == ()


def test_classify_and_factor_identity():
    ident = necklace_identity(Necklace((0, 1, 2)))
    info, active, inert = classify_and_factor(ident)
    assert info["inert"] and info["active"]
    assert active == ident and inert == ident


def test_classify_and_factor_delta_style():
    f = NecklaceMap(Necklace((0, 2)), Necklace((0, 3)), FintMap((0, 1, 3)))
    info, active, inert = classify_and_factor(f)
    assert info["active"] and not info["inert"]
    assert active.target.points == (0, 3)
    assert inert.is_identity
    assert inert.compose(active) == f


def test_classify_and_factor_inert():
    f = NecklaceMap(Necklace((0, 1, 2)), Necklace((0, 2)), fint_identity(2))
    info, active, inert = classify_and_factor(f)
    assert info["inert"] and not info["active"]
    assert active.is_identity
    assert inert == f


def test_factorization_unique_exhaustive():
    # over all maps of dimension <= 5 the (active, inert) splitting is unique
    for f in all_necklace_maps(5):
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


def test_necklace_counts():
    for p in range(1, 9):
        assert len(necklaces(p)) == 2 ** (p - 1)
    assert len(necklaces(0)) == 1


def test_injective_counts_and_brute_force():
    for n in range(1, 7):
        direct = injective_into_simplex(n)
        assert len(direct) == 3 ** (n - 1)
        target = simplex_necklace(n)
        brute = [
            f
            for p in range(0, n + 1)
            for t in necklaces(p)
            for f in necklace_maps_between(t, target)
            if f.is_injective
        ]
        assert len(brute) == len(direct)
        assert set(brute) == set(direct)


def test_fint_maps_2_2():
    assert [f.values for f in fint_maps(2, 2)] == [(0, 0, 2), (0, 1, 2), (0, 2, 2)]


def test_fint_factorize_examples():
    collapsed, missed = fint_factorize(fint_identity(3))
    assert collapsed == () and missed == ()
    collapsed, missed = fint_factorize(FintMap((0, 2)))
    assert collapsed == () and missed == (1,)
    collapsed, missed = fint_factorize(FintMap((0, 0, 1)))
    assert collapsed == (0,) and missed == ()


def test_fint_factorize_reconstructs():
    for p in range(0, 6):
        for q in range(0, 6):
            for f in fint_maps(p, q):
                collapsed, missed = fint_factorize(f)
                assert fint_from_word(p, q, collapsed, missed) == f


def test_fint_generators():
    assert fint_delta(2, 1).values == (0, 2)
    assert fint_sigma(1, 0).values == (0, 0, 1)
    assert fint_sigma(1, 1).values == (0, 1, 1)
    assert FintMap((0, 1)).plus(FintMap((0, 0, 1))).values == (0, 1, 1, 2)


def test_composition_closure_exhaustive():
    maps = all_necklace_maps(3)
    by_source = {}
    for g in maps:
        by_source.setdefault(g.source, []).append(g)
    for f in maps:
        for g in by_source.get(f.target, ()):
            h = g.compose(f)
            assert set(h.target.points) <= {h.fint(t) for t in h.source.points}


@pytest.mark.parametrize("n,count", [(1, 1), (2, 7), (3, 27), (4, 83)])
def test_necklace_generators_generate_every_map(n, count):
    gens = necklace_generators(n)
    assert len(gens) == count
    assert not any(f.is_identity for f in gens)
    gen_set = set(gens)
    assert list(gens) == [f for f in all_necklace_maps(n) if f in gen_set]
    by_source = {}
    for g in gens:
        by_source.setdefault(g.source, []).append(g)
    # close the identities under postcomposition with generators
    closure = {necklace_identity(t) for p in range(n + 1) for t in necklaces(p)}
    frontier = list(closure)
    while frontier:
        f = frontier.pop()
        for g in by_source.get(f.target, ()):
            h = g.compose(f)
            if h not in closure:
                closure.add(h)
                frontier.append(h)
    assert closure == set(all_necklace_maps(n))


def filtered_generators(n):
    """The generators found by filtering every necklace map of dimension
    <= n: the inert maps that drop one point and the active maps whose fint
    word has one letter (the reference for the closed form)."""
    def is_generator(f):
        if f.is_inert:
            return len(f.source.points) == len(f.target.points) + 1
        if not f.is_active:
            return False
        collapsed, missed = fint_factorize(f.fint)
        return len(collapsed) + len(missed) == 1
    return tuple(f for f in all_necklace_maps(n) if is_generator(f))


@pytest.mark.parametrize("n", range(7))
def test_necklace_generators_equal_the_filter(n):
    assert necklace_generators(n) == filtered_generators(n)


def test_necklace_generator_counts():
    assert [len(necklace_generators(n)) for n in range(6)] == [0, 1, 7, 27, 83, 227]


def test_necklace_generators_kinds():
    for f in necklace_generators(4):
        if f.is_inert:
            assert set(f.target.points) < set(f.source.points)
            assert len(f.source.points) == len(f.target.points) + 1
        else:
            assert f.is_active
            collapsed, missed = fint_factorize(f.fint)
            assert len(collapsed) + len(missed) == 1


def test_composition_associative_sampled():
    rng = random.Random(4)
    maps = all_necklace_maps(4)
    by_source = {}
    for g in maps:
        by_source.setdefault(g.source, []).append(g)
    done = 0
    while done < 500:
        f = rng.choice(maps)
        gs = by_source.get(f.target)
        if not gs:
            continue
        g = rng.choice(gs)
        hs = by_source.get(g.target)
        if not hs:
            continue
        h = rng.choice(hs)
        assert h.compose(g).compose(f) == h.compose(g.compose(f))
        done += 1


def test_horn_2_1():
    diag = build_diagram("horn", 2, 1)
    assert len(diag.objects) == 1
    (obj,) = diag.objects
    assert obj.source.points == (0, 1, 2) and obj.is_inert
    assert diag.arrows == ()


def test_horn_objects_complete():
    for n in range(2, 5):
        inj = set(injective_into_simplex(n))
        for j in range(1, n):
            diag = build_diagram("horn", n, j)
            delta_j = NecklaceMap(simplex_necklace(n - 1), simplex_necklace(n), fint_delta(n, j))
            ident = necklace_identity(simplex_necklace(n))
            assert set(diag.objects) | {delta_j, ident} == inj
            wings = set(build_diagram("wings", n).objects)
            assert wings <= set(diag.objects)


def test_wings_3():
    diag = build_diagram("wings", 3)
    points = sorted(o.source.points for o in diag.objects)
    assert points == [(0, 1, 2, 3), (0, 1, 3), (0, 2, 3)]
    full_idx = next(i for i, o in enumerate(diag.objects) if o.source.points == (0, 1, 2, 3))
    # the only arrows run out of the finest necklace (two refinement maps)
    assert len(diag.arrows) == 2
    assert all(i == full_idx for i, _, _ in diag.arrows)


def test_truncated_wings():
    assert build_diagram("truncated_wings", 3, 0).objects == ()
    full = build_diagram("wings", 4)
    top = build_diagram("truncated_wings", 4, 3)
    assert set(top.objects) == set(full.objects)
    mid = build_diagram("truncated_wings", 4, 1)
    assert sorted(o.source.points for o in mid.objects) == [(0, 1, 4)]


def test_wedge_intersection_diagram():
    diag = build_diagram("wedge_intersection", 3, 2)
    assert sorted(o.source.points for o in diag.objects) == [(0, 1, 2, 3)]
    diag2 = build_diagram("wedge_intersection", 4, 2)
    assert sorted(o.source.points for o in diag2.objects) == [(0, 1, 2, 4)]


def test_degeneracy_diagram():
    diag = build_diagram("degeneracy", 1)
    assert len(diag.objects) == 1
    assert diag.objects[0].values == (0, 0)
    assert diag.arrows == ()
    diag2 = build_diagram("degeneracy", 2)
    assert len(diag2.objects) == 3  # two sigmas to [1], one collapse to [0]
    for i, k, tau in diag2.arrows:
        assert tau.compose(diag2.objects[i]) == diag2.objects[k]


def test_diagram_arrows_commute():
    for kind, n, extra in [("horn", 3, 1), ("horn", 4, 2), ("wings", 4, None),
                           ("truncated_wings", 4, 2)]:
        diag = build_diagram(kind, n, extra)
        for i, k, g in diag.arrows:
            assert diag.objects[k].compose(g) == diag.objects[i]


def test_surjections():
    assert len(fint_surjections(2)) == 4  # id, two sigmas, collapse
    for s in fint_surjections(3):
        assert s.is_surjective
