"""Quiver tensor calculus: unit laws, layouts, flatten isos, hom-wise limits."""

import random

import pytest

from templikit.coeff import (
    FREE,
    Module,
    Morphism,
    Ring,
    ShapeError,
    analyze,
    mat_identity,
)
from templikit.quiver import (
    Quiver,
    QuiverDiagram,
    QuiverMorphism,
    flatten_iso,
    quiver_colimit,
    quiver_limit,
    tensor_layout,
    tensor_quiver_morphisms,
    tensor_s,
    unit_quiver,
)

Z = Ring.integers()
F3 = Ring.prime_field(3)
Z4 = Ring.chain(2, 2)


def one_vertex_quiver(ring, module):
    return Quiver.build(ring, ("*",), {("*", "*"): module})


def test_unit_law():
    s = ("a", "b")
    q = Quiver.build(F3, s, {("a", "b"): Module.free(F3, 2), ("a", "a"): Module.free(F3, 1)})
    i = unit_quiver(F3, s)
    left = tensor_s(i, q)
    right = tensor_s(q, i)
    for pair in (("a", "b"), ("a", "a"), ("b", "b"), ("b", "a")):
        assert left.hom(*pair).factors == q.hom(*pair).factors
        assert right.hom(*pair).factors == q.hom(*pair).factors


def test_one_vertex_tensor_is_module_tensor():
    m = Module(Z, (2, FREE))
    n = Module(Z, (4,))
    p = one_vertex_quiver(Z, m)
    q = one_vertex_quiver(Z, n)
    from templikit.coeff import tensor

    assert tensor_s(p, q).hom("*", "*").factors == tensor(m, n).factors


def test_three_vertex_sparse_tensor():
    s = ("a", "b", "c")
    p = Quiver.build(F3, s, {("a", "b"): Module.free(F3, 1)})
    q = Quiver.build(F3, s, {("b", "c"): Module.free(F3, 2)})
    t = tensor_s(p, q)
    assert t.hom("a", "c").rank == 2
    assert sum(mod.ngens for _, mod in t.homs) == 2


def test_rank_sum_rule():
    rng = random.Random(11)
    s = ("a", "b")
    for _ in range(5):
        homs_p = {
            (x, y): Module.free(F3, rng.randint(0, 2)) for x in s for y in s
        }
        homs_q = {
            (x, y): Module.free(F3, rng.randint(0, 2)) for x in s for y in s
        }
        p = Quiver.build(F3, s, homs_p)
        q = Quiver.build(F3, s, homs_q)
        t = tensor_s(p, q)
        for a in s:
            for c in s:
                expect = sum(p.hom(a, b).rank * q.hom(b, c).rank for b in s)
                assert t.hom(a, c).rank == expect


def test_tensor_associativity_up_to_reindexing():
    s = ("a", "b")
    rng = random.Random(2)
    mods = [Module(Z, (2,)), Module.free(Z, 1), Module(Z, (4, FREE))]
    quivers = []
    for _ in range(3):
        homs = {}
        for x in s:
            for y in s:
                if rng.random() < 0.7:
                    homs[(x, y)] = rng.choice(mods)
        quivers.append(Quiver.build(Z, s, homs))
    p, q, r = quivers
    left = tensor_s(tensor_s(p, q), r)
    right = tensor_s(p, tensor_s(q, r))
    flat = tensor_layout(Z, s, (p, q, r)).quiver
    for a in s:
        for c in s:
            assert left.hom(a, c).factors == flat.hom(a, c).factors
            assert right.hom(a, c).factors == flat.hom(a, c).factors


def _z_mixed_torsion():
    # hom (a, b) of p (x) q sums Z/2 (through a) and Z/3 (through b)
    s = ("a", "b")
    p = Quiver.build(Z, s, {("a", "a"): Module(Z, (2,)), ("a", "b"): Module(Z, (3,)),
                            ("b", "b"): Module.free(Z, 1)})
    q = Quiver.build(Z, s, {("a", "b"): Module.free(Z, 1), ("b", "b"): Module(Z, (3, FREE))})
    return p, q


def _z4_mixed():
    s = ("a", "b")
    p = Quiver.build(Z4, s, {("a", "b"): Module(Z4, (1, FREE)), ("b", "b"): Module.free(Z4, 1)})
    q = Quiver.build(Z4, s, {("b", "a"): Module.free(Z4, 2), ("b", "b"): Module(Z4, (1,)),
                             ("a", "a"): Module(Z4, (1,))})
    return p, q


def _f3_free():
    s = ("a", "b")
    p = Quiver.build(F3, s, {("a", "b"): Module.free(F3, 2), ("b", "b"): Module.free(F3, 1)})
    q = Quiver.build(F3, s, {("b", "a"): Module.free(F3, 1), ("a", "a"): Module.free(F3, 2)})
    return p, q


def _assert_mutually_inverse(ring, fwd, bwd):
    for a in fwd.domain.vertices:
        for c in fwd.domain.vertices:
            f = fwd.comp(a, c)
            g = bwd.comp(a, c)
            assert g.compose(f).matrix == mat_identity(ring, f.domain.ngens)
            assert f.compose(g).matrix == mat_identity(ring, f.codomain.ngens)


def test_flatten_iso_roundtrip():
    s = ("a", "b")
    p = Quiver.build(Z4, s, {("a", "b"): Module(Z4, (1, FREE)), ("b", "b"): Module.free(Z4, 1)})
    q = Quiver.build(Z4, s, {("b", "a"): Module.free(Z4, 2), ("a", "a"): Module(Z4, (1,))})
    r = Quiver.build(Z4, s, {("a", "b"): Module.free(Z4, 1)})
    inner = tensor_layout(Z4, s, (q, r))
    fwd, bwd = flatten_iso(Z4, s, (p, inner))
    flat = tensor_layout(Z4, s, (p, q, r)).quiver
    assert fwd.codomain == flat
    _assert_mutually_inverse(Z4, fwd, bwd)


def test_flatten_iso_roundtrip_through_normalized_layouts():
    # the nested layout's raw -> normal change of basis is not the identity
    p, q = _z_mixed_torsion()
    inner = tensor_layout(Z, p.vertices, (p, q))
    assert inner.to_norm("a", "b") is not None
    for items in ((inner, q), (p, inner), (inner, inner)):
        fwd, bwd = flatten_iso(Z, p.vertices, items)
        _assert_mutually_inverse(Z, fwd, bwd)


def test_unit_insertion_roundtrip():
    s = ("a", "b")
    p = Quiver.build(F3, s, {("a", "b"): Module.free(F3, 2), ("b", "b"): Module.free(F3, 1)})
    q = Quiver.build(F3, s, {("b", "a"): Module.free(F3, 1)})
    unit = tensor_layout(F3, s, ())
    bwd, fwd = flatten_iso(F3, s, (p, unit, q, unit))
    assert len(fwd.codomain.vertices) == 2
    _assert_mutually_inverse(F3, fwd, bwd)
    for a in s:
        for c in s:
            # inserting units preserves the hom up to iso
            assert fwd.comp(a, c).domain.factors == fwd.comp(a, c).codomain.factors


def _with_units(factors, slots, unit):
    """``factors`` with ``unit`` at the indices ``slots`` of the result."""
    rest = iter(factors)
    return tuple(unit if i in slots else next(rest)
                 for i in range(len(factors) + len(slots)))


def _unit_inserted_generator(a, c, path, gens, slots, total):
    """The raw generator (path, gens) with the vertex repeated and generator
    0 inserted at each unit slot."""
    full = (a,) + tuple(path) + (c,)
    verts, tgens, k = [a], [], 0
    for pos in range(total):
        if pos in slots:
            verts.append(verts[-1])
            tgens.append(0)
        else:
            k += 1
            verts.append(full[k])
            tgens.append(gens[k - 1])
    return tuple(verts[1:-1]), tuple(tgens)


# (name, unit slots, keep the factors): "every" inserts units into the empty tensor
SLOTS = (("first", {0}, True), ("last", {2}, True), ("adjacent", {1, 2}, True),
         ("every", {0, 1}, False))
UNITOR_CASES = [(make, slots, keep) for make in (_z_mixed_torsion, _z4_mixed, _f3_free)
                for _, slots, keep in SLOTS]


@pytest.mark.parametrize(
    "make,slots,keep", UNITOR_CASES,
    ids=[f"{make.__name__}-{name}" for make in (_z_mixed_torsion, _z4_mixed, _f3_free)
         for name, _, _ in SLOTS])
def test_flatten_unit_insertion_is_canonical_unitor(make, slots, keep):
    factors = make() if keep else ()
    ring = make()[0].ring
    s = ("a", "b")
    total = len(factors) + len(slots)
    unit = tensor_layout(ring, s, ())
    _, ins = flatten_iso(ring, s, _with_units(factors, slots, unit))
    src = tensor_layout(ring, s, factors)
    tgt = tensor_layout(ring, s, _with_units(factors, slots, unit_quiver(ring, s)))
    assert ins.domain == src.quiver and ins.codomain == tgt.quiver
    if ring == Z and factors:
        assert src.to_norm("a", "b") is not None
        assert tgt.to_norm("a", "b") is not None
    free1 = Module.free(ring, 1)
    hit = 0
    for a in s:
        for c in s:
            f = ins.comp(a, c)
            for path, gens in src.raw_gens(a, c):
                tpath, tgens = _unit_inserted_generator(a, c, path, gens, slots, total)
                got = f.compose(Morphism(free1, src.hom(a, c),
                                         src.basis_column(a, c, path, gens)))
                want = Morphism(free1, tgt.hom(a, c), tgt.basis_column(a, c, tpath, tgens))
                assert got == want, (a, c, path, gens)
                hit += 1
            assert len(src.raw_gens(a, c)) == len(tgt.raw_gens(a, c))
    assert hit > 0


def test_tensor_quiver_morphisms_functorial():
    s = ("a", "b")
    rng = random.Random(8)
    free1 = Quiver.build(F3, s, {(x, y): Module.free(F3, 2) for x in s for y in s})
    free2 = Quiver.build(F3, s, {(x, y): Module.free(F3, 1) for x in s for y in s})

    def rand_qmorphism(dom, cod):
        comps = {}
        for x in s:
            for y in s:
                d, c = dom.hom(x, y), cod.hom(x, y)
                comps[(x, y)] = Morphism(
                    d, c,
                    tuple(tuple(rng.randrange(3) for _ in range(d.ngens)) for _ in range(c.ngens)),
                )
        return QuiverMorphism.build(dom, cod, comps)

    f1 = rand_qmorphism(free1, free2)
    g1 = rand_qmorphism(free2, free1)
    f2 = rand_qmorphism(free1, free1)
    g2 = rand_qmorphism(free1, free2)
    lhs = tensor_quiver_morphisms(F3, s, (g1.compose(f1), g2.compose(f2)))
    rhs = tensor_quiver_morphisms(F3, s, (g1, g2)).compose(
        tensor_quiver_morphisms(F3, s, (f1, f2))
    )
    assert lhs == rhs
    ident = tensor_quiver_morphisms(F3, s, (QuiverMorphism.identity(free1),
                                            QuiverMorphism.identity(free2)))
    assert ident == QuiverMorphism.identity(ident.domain)


def test_quiver_limit_identity_and_empty():
    s = ("a",)
    q = Quiver.build(Z, s, {("a", "a"): Module(Z, (2, FREE))})
    lim = quiver_limit(QuiverDiagram(Z, s, (q,), ()))
    assert lim.quiver.hom("a", "a").factors == (2, FREE)
    assert analyze(lim.cone[0].comp("a", "a")).is_iso
    empty = quiver_limit(QuiverDiagram(Z, s, (), ()))
    assert empty.quiver.is_zero


def test_quiver_limit_matches_homwise_pullback():
    s = ("a",)
    free = Quiver.build(Z, s, {("a", "a"): Module.free(Z, 1)})
    zz = free.hom("a", "a")
    f = QuiverMorphism.build(free, free, {("a", "a"): Morphism(zz, zz, ((2,),))})
    g = QuiverMorphism.build(free, free, {("a", "a"): Morphism(zz, zz, ((3,),))})
    lim = quiver_limit(QuiverDiagram(Z, s, (free, free, free), ((0, 2, f), (1, 2, g))))
    assert lim.quiver.hom("a", "a").rank == 1


def test_quiver_colimit_coequalizer():
    s = ("a", "b")
    q = Quiver.build(F3, s, {("a", "b"): Module.free(F3, 2)})
    ident = QuiverMorphism.identity(q)
    colim = quiver_colimit(QuiverDiagram(F3, s, (q, q), ((0, 1, ident), (0, 1, ident))))
    assert colim.quiver.hom("a", "b").rank == 2


def test_explicit_zero_hom_is_rejected():
    z1 = Module.free(Z, 1)
    with pytest.raises(ShapeError, match="zero"):
        Quiver(Z, ("a", "b"), ((("a", "a"), z1), (("a", "b"), Module.zero(Z))))
    with pytest.raises(ShapeError, match="zero"):
        Quiver(Z, ("a",), ((("a", "a"), Module.zero(Z)),))
    # build drops zero homs, so both spellings give one quiver
    built = Quiver.build(Z, ("a", "b"), {("a", "a"): z1, ("a", "b"): Module.zero(Z)})
    assert built == Quiver(Z, ("a", "b"), ((("a", "a"), z1),))
    assert Quiver.build(Z, ("a",), {("a", "a"): Module.zero(Z)}).is_zero


def _scan_hom(quiver, a, b):
    return next((mod for key, mod in quiver.homs if key == (a, b)), Module.zero(quiver.ring))


def _scan_comp(f, a, b):
    return next((g for key, g in f.components if key == (a, b)),
                Morphism.zero(f.domain.hom(a, b), f.codomain.hom(a, b)))


def test_lookup_state_is_invisible():
    s = ("a", "b", "c")
    homs = {("c", "a"): Module(Z, (2, FREE)), ("a", "b"): Module.free(Z, 1),
            ("b", "b"): Module(Z, (3,)), ("a", "a"): Module(Z, (4,))}
    p = Quiver.build(Z, s, homs)
    q = Quiver.build(Z, s, dict(reversed(list(homs.items()))))
    assert p is not q
    assert p == q and hash(p) == hash(q)
    layout = tensor_layout(Z, s, (p, p))
    hits = tensor_layout.cache_info().hits
    assert tensor_layout(Z, s, (q, q)) is layout
    assert tensor_layout.cache_info().hits == hits + 1

    comps = {ab: Morphism.identity(mod).scale(-1) for ab, mod in homs.items()}
    f = QuiverMorphism.build(p, q, comps)
    g = QuiverMorphism.build(q, p, dict(reversed(list(comps.items()))))
    assert f == g and hash(f) == hash(g)
    tensor = tensor_quiver_morphisms(Z, s, (f, g))
    for quiver in (p, q, layout.quiver, tensor.domain):
        for a in s:
            for b in s:
                assert quiver.hom(a, b) == _scan_hom(quiver, a, b)
    for morph in (f, g, f.compose(g), QuiverMorphism.identity(p), tensor):
        for a in s:
            for b in s:
                assert morph.comp(a, b) == _scan_comp(morph, a, b)
