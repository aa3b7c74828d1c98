"""Quiver tensor calculus: unit laws, layouts, bracketings, hom-wise limits."""

import random
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense import mat_identity, sparsify
from templikit.coeff import (
    FREE,
    Module,
    Morphism,
    Ring,
    ShapeError,
    analyze,
)
from templikit.quiver import (
    Quiver,
    QuiverDiagram,
    QuiverMorphism,
    TensorLayout,
    quiver_colimit,
    quiver_limit,
    tensor_layout,
    tensor_quiver_morphisms,
    tensor_s,
    unit_quiver,
)
from test_sparse_kernels import RINGS, _valid_multiplier, elements

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


# -- bracketings: rebracketing and unit insertion as tensors of identities --

# The coherence isomorphism between a bracketing and its flat layout, as it
# was built before tensor_quiver_morphisms took bracketings; kept as the
# reference for the tensor between bracketings, with the layouts' change of
# basis read as sparse rows.
def _atoms_of(item):
    return tuple(item.factors) if isinstance(item, TensorLayout) else (item,)


@lru_cache(maxsize=None)
def reference_flatten_iso(ring, vertices, items):
    """The coherence isomorphism between a nested tensor and its flat form.

    ``items`` is a tuple of quivers and/or TensorLayouts; the source is the
    layout of the items' quivers (a layout item contributing its normalized
    quiver) and the target the layout of the concatenated atomic factors.
    A layout with no factors stands for I_S and adds no atom, so the
    backward map of ``items`` with such unit layouts is the unit insertion
    TL(atoms) -> TL(items).  Returns (forward, backward) quiver morphisms,
    mutually inverse.
    """
    outer = tensor_layout(ring, vertices, tuple(
        it.quiver if isinstance(it, TensorLayout) else it for it in items
    ))
    flat = tensor_layout(ring, vertices, tuple(atom for it in items for atom in _atoms_of(it)))
    one = ring.one()
    fwd_comps = {}
    bwd_comps = {}
    for a in vertices:
        for c in vertices:
            omod, fmod = outer.hom(a, c), flat.hom(a, c)
            if omod.is_zero and fmod.is_zero:
                continue
            oraw = outer.raw_gens(a, c)
            fraw = flat.raw_gens(a, c)
            expand = [[ring.zero()] * len(oraw) for _ in range(len(fraw))]
            collapse = [[ring.zero()] * len(fraw) for _ in range(len(oraw))]
            for oi, (opath, ogens) in enumerate(oraw):
                ofull = (a,) + opath + (c,)
                choices = []
                for idx, it in enumerate(items):
                    va, vb = ofull[idx], ofull[idx + 1]
                    g = ogens[idx]
                    if isinstance(it, TensorLayout) and it.to_norm(va, vb) is None:
                        ipath, igens = it.raw_gens(va, vb)[g]
                        choices.append([(ipath, igens, one, one)])
                    elif isinstance(it, TensorLayout):
                        from_n = it.from_norm(va, vb)
                        to_n = it.to_norm(va, vb)
                        opts = []
                        for ri, (ipath, igens) in enumerate(it.raw_gens(va, vb)):
                            ce = from_n[ri].get(g, ring.zero())
                            cc = to_n[g].get(ri, ring.zero())
                            if ring.is_zero(ce) and ring.is_zero(cc):
                                continue
                            opts.append((ipath, igens, ce, cc))
                        choices.append(opts)
                    else:
                        choices.append([((), (g,), one, one)])
                for combo in product(*choices):
                    interior = []
                    fgens = []
                    ce_total = one
                    cc_total = one
                    for idx, (ipath, igens, ce, cc) in enumerate(combo):
                        if igens:
                            # a boundary vertex before each item with atoms
                            # but the first; a unit item adds none
                            if fgens:
                                interior.append(ofull[idx])
                            interior.extend(ipath)
                            fgens.extend(igens)
                        ce_total = ring.mul(ce_total, ce)
                        cc_total = ring.mul(cc_total, cc)
                    fi = flat.raw_index(a, c, tuple(interior), tuple(fgens))
                    if fi is None:
                        continue
                    if not ring.is_zero(ce_total):
                        expand[fi][oi] = ring.add(expand[fi][oi], ce_total)
                    if not ring.is_zero(cc_total):
                        collapse[oi][fi] = ring.add(collapse[oi][fi], cc_total)
            fwd_rows = flat.normalize(a, c, sparsify(ring, expand), outer)
            bwd_rows = outer.normalize(a, c, sparsify(ring, collapse), flat)
            fwd_comps[(a, c)] = Morphism._trusted(omod, fmod, fwd_rows)
            bwd_comps[(a, c)] = Morphism._trusted(fmod, omod, bwd_rows)
    fwd = QuiverMorphism.build(outer.quiver, flat.quiver, fwd_comps)
    bwd = QuiverMorphism.build(flat.quiver, outer.quiver, bwd_comps)
    return fwd, bwd


def _quiver_of(item):
    return item.quiver if isinstance(item, TensorLayout) else item


def _flatten(ring, s, items):
    """TL(items' quivers) -> TL(atoms) and back, each one tensor of
    identities with ``items`` as its targets or its sources."""
    ids = tuple(QuiverMorphism.identity(_quiver_of(it)) for it in items)
    return (tensor_quiver_morphisms(ring, s, ids, targets=items),
            tensor_quiver_morphisms(ring, s, ids, sources=items))


def test_flatten_roundtrip():
    s = ("a", "b")
    p = Quiver.build(Z4, s, {("a", "b"): Module(Z4, (1, FREE)), ("b", "b"): Module.free(Z4, 1)})
    q = Quiver.build(Z4, s, {("b", "a"): Module.free(Z4, 2), ("a", "a"): Module(Z4, (1,))})
    r = Quiver.build(Z4, s, {("a", "b"): Module.free(Z4, 1)})
    inner = tensor_layout(Z4, s, (q, r))
    fwd, bwd = _flatten(Z4, s, (p, inner))
    flat = tensor_layout(Z4, s, (p, q, r)).quiver
    assert fwd.codomain == flat
    assert fwd.domain == tensor_s(p, inner.quiver)
    _assert_mutually_inverse(Z4, fwd, bwd)
    assert (fwd, bwd) == reference_flatten_iso(Z4, s, (p, inner))


def test_flatten_roundtrip_through_normalized_layouts():
    # the nested layout's raw -> normal change of basis is not the identity
    p, q = _z_mixed_torsion()
    inner = tensor_layout(Z, p.vertices, (p, q))
    assert inner.to_norm("a", "b") is not None
    for items in ((inner, q), (p, inner), (inner, inner)):
        fwd, bwd = _flatten(Z, p.vertices, items)
        _assert_mutually_inverse(Z, fwd, bwd)
        assert (fwd, bwd) == reference_flatten_iso(Z, p.vertices, items)


def test_unit_insertion_roundtrip():
    s = ("a", "b")
    p = Quiver.build(F3, s, {("a", "b"): Module.free(F3, 2), ("b", "b"): Module.free(F3, 1)})
    q = Quiver.build(F3, s, {("b", "a"): Module.free(F3, 1)})
    unit = tensor_layout(F3, s, ())
    bwd, fwd = _flatten(F3, s, (p, unit, q, unit))
    assert len(fwd.codomain.vertices) == 2
    assert fwd.domain == tensor_s(p, q)
    _assert_mutually_inverse(F3, fwd, bwd)
    assert (bwd, fwd) == reference_flatten_iso(F3, s, (p, unit, q, unit))
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
    _, ins = _flatten(ring, s, _with_units(factors, slots, unit))
    assert ins == reference_flatten_iso(ring, s, _with_units(factors, slots, unit))[1]
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


# modules with at most two generators per hom, so that flat layouts of up to
# three atoms stay small; over Z the orders 2 and 3 on two paths make a raw
# Z/2 + Z/3 that normalizes to Z/6, over the chain rings orders 2 then 1 are
# permuted, so both kinds of layout normalization occur
SMALL_FACTORS = {
    "integers": [(FREE,), (2,), (2, FREE), (3,), (6,), ()],
    "rationals": [(FREE,), (FREE, FREE), ()],
    "prime-field": [(FREE,), (FREE, FREE), ()],
    "chain": [(FREE,), (1,), (2,), (1, FREE), ()],
    "dual-chain": [(FREE,), (1,), (1, FREE), ()],
}


@st.composite
def small_quivers(draw, ring, vertices):
    return Quiver.build(ring, vertices, {
        (x, y): Module(ring, draw(st.sampled_from(SMALL_FACTORS[ring.kind])))
        for x in vertices for y in vertices})


@st.composite
def morphisms_between(draw, ring, dom, cod):
    """A random quiver morphism dom -> cod, congruence-valid entry by entry,
    its entries drawn mostly nonzero so that products survive the slots."""
    entries = st.one_of(st.sampled_from([ring.one(), ring.neg(ring.one())]), elements(ring))
    comps = {}
    for x in dom.vertices:
        for y in dom.vertices:
            d, c = dom.hom(x, y), cod.hom(x, y)
            comps[(x, y)] = Morphism(d, c, tuple(
                tuple(ring.mul(draw(entries), _valid_multiplier(ring, od, oc))
                      for od in d.factors)
                for oc in c.factors))
    return QuiverMorphism.build(dom, cod, comps)


@st.composite
def bracketing(draw, ring, vertices, sizes):
    """One item per slot: for size 0 the unit layout, else a quiver or a
    layout of ``size`` factors (a one-factor layout may also stand in)."""
    items = []
    for size in sizes:
        if size == 0:
            items.append(tensor_layout(ring, vertices, ()))
        elif size == 1 and draw(st.booleans()):
            items.append(draw(small_quivers(ring, vertices)))
        else:
            items.append(tensor_layout(ring, vertices, tuple(
                draw(small_quivers(ring, vertices)) for _ in range(size))))
    return tuple(items)


def _atom_sizes(draw, slots):
    """Atoms per slot, 0 to 2, at most three in all."""
    sizes = [draw(st.sampled_from([1, 2, 0])) for _ in range(slots)]
    while sum(sizes) > 3:
        sizes[sizes.index(max(sizes))] -= 1
    return sizes


def _assert_matches_reference(ring, vertices, fs, sources, targets):
    """The tensor between bracketings equals flatten o tensor o unflatten,
    with the reference coherence isomorphisms, matrix for matrix."""
    got = tensor_quiver_morphisms(ring, vertices, fs, sources=sources, targets=targets)
    fwd, _ = reference_flatten_iso(ring, vertices, targets)
    _, bwd = reference_flatten_iso(ring, vertices, sources)
    want = fwd.compose(tensor_quiver_morphisms(ring, vertices, fs).compose(bwd))
    assert got.domain == want.domain and got.codomain == want.codomain
    for a in vertices:
        for c in vertices:
            assert got.comp(a, c).matrix == want.comp(a, c).matrix, (a, c)
    assert got == want


@st.composite
def bracketed_tensors(draw, ring, source_units=None):
    """(vertices, factors, sources, targets); ``source_units`` fixes the
    number of slots and puts the unit layout exactly at those slots."""
    vertices = ("a", "b")[:draw(st.sampled_from([2, 1]))]
    if source_units is None:
        slots = draw(st.integers(1, 3))
        ssizes = _atom_sizes(draw, slots)
    else:
        slots, units = source_units
        ssizes = [0 if i in units else 1 for i in range(slots)]
    sources = draw(bracketing(ring, vertices, ssizes))
    targets = draw(bracketing(ring, vertices, _atom_sizes(draw, slots)))
    fs = tuple(draw(morphisms_between(ring, _quiver_of(s), _quiver_of(t)))
               for s, t in zip(sources, targets))
    return vertices, fs, sources, targets


@pytest.mark.parametrize("ring", RINGS, ids=str)
@settings(max_examples=40)
@given(data=st.data())
def test_tensor_between_bracketings_matches_reference(ring, data):
    _assert_matches_reference(ring, *data.draw(bracketed_tensors(ring)))


# unit layouts among the sources: (name, slots, unit slots)
UNIT_SLOTS = (("first", 2, {0}), ("last", 2, {1}), ("adjacent", 3, {1, 2}),
              ("every", 2, {0, 1}))


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("slots,units", [(n, u) for _, n, u in UNIT_SLOTS],
                         ids=[name for name, _, _ in UNIT_SLOTS])
@settings(max_examples=8)
@given(data=st.data())
def test_tensor_from_unit_slots_matches_reference(ring, slots, units, data):
    _assert_matches_reference(ring, *data.draw(bracketed_tensors(ring, (slots, units))))


def test_tensor_between_normalized_z_layouts_matches_reference():
    # bracketed sources and targets whose raw -> normal change of basis is
    # a Smith transform (Z/2 + Z/3 -> Z/6), with non-identity factors
    p, q = _z_mixed_torsion()
    s = p.vertices
    inner = tensor_layout(Z, s, (p, q))
    assert inner.to_norm("a", "b") is not None and inner.from_norm("a", "b") is not None
    rng = random.Random(5)

    def rand_morphism(dom, cod):
        comps = {}
        for x in s:
            for y in s:
                d, c = dom.hom(x, y), cod.hom(x, y)
                comps[(x, y)] = Morphism(d, c, tuple(
                    tuple(rng.randint(-3, 3) * _valid_multiplier(Z, od, oc) for od in d.factors)
                    for oc in c.factors))
        return QuiverMorphism.build(dom, cod, comps)

    for sources, targets in (((inner, q), (inner, q)), ((p, inner), (inner, p)),
                             ((inner,), (inner,)), ((inner, inner), (p, q))):
        fs = tuple(rand_morphism(_quiver_of(a), _quiver_of(b))
                   for a, b in zip(sources, targets))
        assert any(not f.comp(*ab).is_zero_map for f in fs for ab in product(s, s))
        _assert_matches_reference(Z, s, fs, sources, targets)


def test_tensor_rejects_an_item_of_another_quiver():
    p, q = _z_mixed_torsion()
    s = p.vertices
    ident = QuiverMorphism.identity(p)
    inner = tensor_layout(Z, s, (p, q))
    unit = tensor_layout(Z, s, ())
    for sources, targets in (((q,), None), (None, (q,)), ((inner,), None), (None, (unit,)),
                             ((p, p), None)):
        with pytest.raises(ShapeError):
            tensor_quiver_morphisms(Z, s, (ident,), sources=sources, targets=targets)


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
