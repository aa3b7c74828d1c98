"""Differential oracle for the sparse evaluation kernels.

``mat_mul`` multiplies row-sparse and reduces each output entry once;
``tensor_morphisms`` and ``tensor_quiver_morphisms`` build each raw matrix
from the nonzero entries of the factors; ``_reduce_torsion_rows`` maps each
distinct entry of the rows of one order once.  They are compared here with
the dense or per-entry kernels they replaced, kept below as reference
functions: equal matrices, with equal entry types, over Z, Q, F_3, Z/2^3,
F_3[e]/(e^2) and F_3[e]/(e^3).
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from templikit import coeff
from templikit.coeff import (
    FREE,
    Module,
    Morphism,
    Ring,
    ShapeError,
    _reduce_torsion_rows,
    _tensor_layout,
    change_basis,
    mat_mul,
    tensor_morphisms,
)
from templikit.quiver import (
    Quiver,
    QuiverMorphism,
    tensor_layout,
    tensor_quiver_morphisms,
)

Z = Ring.integers()
Q = Ring.rationals()
F3 = Ring.prime_field(3)
Z8 = Ring.chain(2, 3)
D32 = Ring.dual_chain(3, 2)
D33 = Ring.dual_chain(3, 3)
RINGS = [Z, Q, F3, Z8, D32, D33]

PROPERTY = settings(max_examples=60)


def dense_mat_mul(ring, a, b, cols=None):
    """The dense product: every column of b for each nonzero of a."""
    rows = len(a)
    inner = len(b)
    if cols is None:
        cols = len(b[0]) if inner else 0
    if rows and len(a[0]) != inner:
        raise ShapeError(f"cannot multiply {rows}x{len(a[0])} by {inner}x{cols}")
    zero = ring.zero()
    mul, add, is_zero = ring.mul, ring.add, ring.is_zero
    out = []
    for i in range(rows):
        arow = a[i]
        row = [zero] * cols
        for k in range(inner):
            x = arow[k]
            if is_zero(x):
                continue
            brow = b[k]
            for j in range(cols):
                y = brow[j]
                if not is_zero(y):
                    row[j] = add(row[j], mul(x, y))
        out.append(tuple(row))
    return tuple(out)


def dense_tensor_quiver_morphisms(ring, vertices, fs):
    """The dense tensor: every (codomain, domain) raw generator pair."""
    dom = tensor_layout(ring, vertices, tuple(f.domain for f in fs))
    cod = tensor_layout(ring, vertices, tuple(f.codomain for f in fs))
    r = len(fs)
    comps = {}
    for a in vertices:
        for c in vertices:
            draw = dom.raw_gens(a, c)
            craw = cod.raw_gens(a, c)
            dmod, cmod = dom.hom(a, c), cod.hom(a, c)
            if dmod.is_zero or cmod.is_zero:
                continue
            rows = []
            for cpath, cgens in craw:
                cfull = (a,) + cpath + (c,)
                row = []
                for dpath, dgens in draw:
                    if dpath != cpath:
                        row.append(ring.zero())
                        continue
                    x = ring.one()
                    for i in range(r):
                        entry = fs[i].comp(cfull[i], cfull[i + 1]).matrix[cgens[i]][dgens[i]]
                        x = ring.mul(x, entry)
                        if ring.is_zero(x):
                            break
                    row.append(x)
                rows.append(tuple(row))
            comps[(a, c)] = Morphism(dmod, cmod, cod.normalize(a, c, tuple(rows), dom))
    return QuiverMorphism.build(dom.quiver, cod.quiver, comps)


def _entry_types(matrix):
    return [[type(x) for x in row] for row in matrix]


def assert_same_matrix(ring, got, want):
    assert got == want
    assert _entry_types(got) == _entry_types(want)
    # a zero entry is the one shared zero, never a fresh zero tuple
    assert len({id(x) for row in got for x in row if ring.is_zero(x)}) <= 1


def _uniformizer_power(ring, k):
    x = ring.one()
    for _ in range(k):
        x = ring.mul(x, ring.uniformizer)
    return x


def elements(ring):
    """Ring elements, often zero; on chain kinds also unit multiples of
    uniformizer powers, whose products often vanish."""
    if ring.kind == "integers":
        values = st.integers(-6, 6)
    elif ring.kind == "rationals":
        values = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    elif ring.kind == "prime-field":
        values = st.integers(0, ring.p - 1)
    elif ring.kind == "chain":
        values = st.integers(0, ring.p ** ring.m - 1)
    else:
        values = st.tuples(*[st.integers(0, ring.p - 1)] * ring.m)
    if ring.is_chain_kind:
        powers = st.builds(lambda u, k: ring.mul(ring.from_int(u), _uniformizer_power(ring, k)),
                           st.sampled_from([1, ring.p - 1]), st.integers(1, ring.m - 1))
        values = st.one_of(values, powers)
    return st.one_of(st.just(ring.zero()), values).map(ring.reduce)


@st.composite
def matrix_pairs(draw):
    ring = draw(st.sampled_from(RINGS))
    rows, inner, cols = (draw(st.integers(0, 4)) for _ in range(3))
    a = tuple(tuple(draw(elements(ring)) for _ in range(inner)) for _ in range(rows))
    b = tuple(tuple(draw(elements(ring)) for _ in range(cols)) for _ in range(inner))
    return ring, a, b, cols


@PROPERTY
@given(matrix_pairs())
def test_mat_mul_equals_dense_product(data):
    ring, a, b, cols = data
    assert_same_matrix(ring, mat_mul(ring, a, b, cols), dense_mat_mul(ring, a, b, cols))


def test_dual_chain_sums_at_the_digit_bound():
    # every coordinate p - 1: each coordinate sum of the product reaches its
    # largest value, inner * m * (p - 1)^2 at most, with no carry between them
    for p, m, inner in ((3, 2, 9), (5, 3, 7), (2, 4, 1), (7, 1, 5)):
        ring = Ring.dual_chain(p, m)
        full = (p - 1,) * m
        a = ((full,) * inner,) * 2
        b = ((full,) * 3,) * inner
        assert_same_matrix(ring, mat_mul(ring, a, b), dense_mat_mul(ring, a, b))


def test_mat_mul_with_empty_inner_dimension():
    for ring in RINGS:
        a = ((),) * 3
        got = mat_mul(ring, a, (), 2)
        assert_same_matrix(ring, got, dense_mat_mul(ring, a, (), 2))
        assert got == ((ring.zero(),) * 2,) * 3


def test_vanishing_chain_products_give_the_shared_zero():
    # p * p^(m-1) = 0 and e * e^(m-1) = 0; the second column also cancels
    # a nonzero sum (x * 1 + x * (-1))
    for ring in (Z8, D32, D33):
        pi = ring.uniformizer
        top = _uniformizer_power(ring, ring.m - 1)
        minus_one = ring.neg(ring.one())
        a = ((pi, top),)
        b = ((top, ring.one()), (ring.zero(), minus_one))
        got = mat_mul(ring, ((pi, pi),), b, 2)
        assert_same_matrix(ring, got, dense_mat_mul(ring, ((pi, pi),), b, 2))
        assert ring.is_zero(got[0][0]) and ring.is_zero(got[0][1])
        got = mat_mul(ring, a, ((top,), (pi,)), 1)
        assert_same_matrix(ring, got, dense_mat_mul(ring, a, ((top,), (pi,)), 1))
        assert ring.is_zero(got[0][0])


# module factors per ring: over Z the orders 2 and 3 make Z/2 (x) Z/3 = 0,
# a raw generator the tensor layouts leave out
FACTORS = {
    Z: [(), (FREE,), (2,), (3,), (2, FREE), (3, FREE), (6,), (2, 6)],
    Q: [(), (FREE,), (FREE, FREE)],
    F3: [(), (FREE,), (FREE, FREE)],
    Z8: [(), (FREE,), (1,), (2,), (1, FREE), (1, 2)],
    D32: [(), (FREE,), (1,), (1, FREE)],
    D33: [(), (FREE,), (1,), (2,), (1, 2, FREE)],
}


def _valid_multiplier(ring, od, oc):
    """Generator of {x : order(oc) | order(od) * x}, for domain order od."""
    if ring.is_field or od == FREE:
        return ring.one()
    if ring.kind == "integers":
        return 0 if oc == FREE else oc // gcd(oc, od)
    ec = ring.m if oc == FREE else oc
    return _uniformizer_power(ring, max(0, ec - od))


@st.composite
def quivers(draw, ring, vertices):
    return Quiver.build(ring, vertices, {
        (x, y): Module(ring, draw(st.sampled_from(FACTORS[ring])))
        for x in vertices for y in vertices})


@st.composite
def quiver_morphisms(draw, ring, vertices):
    dom, cod = draw(quivers(ring, vertices)), draw(quivers(ring, vertices))
    comps = {}
    for x in vertices:
        for y in vertices:
            d, c = dom.hom(x, y), cod.hom(x, y)
            comps[(x, y)] = Morphism(d, c, tuple(
                tuple(ring.mul(draw(elements(ring)), _valid_multiplier(ring, od, oc))
                      for od in d.factors)
                for oc in c.factors))
    return QuiverMorphism.build(dom, cod, comps)


@st.composite
def tensor_cases(draw):
    ring = draw(st.sampled_from(RINGS))
    vertices = ("a", "b", "c")[:draw(st.integers(1, 3))]
    fs = tuple(draw(quiver_morphisms(ring, vertices)) for _ in range(draw(st.integers(0, 3))))
    return ring, vertices, fs


def assert_same_quiver_morphism(ring, got, want):
    assert got == want
    for (_, f), (_, g) in zip(got.components, want.components):
        assert_same_matrix(ring, f.matrix, g.matrix)


@settings(max_examples=80)
@given(tensor_cases())
def test_tensor_quiver_morphisms_equals_dense_tensor(data):
    ring, vertices, fs = data
    assert_same_quiver_morphism(ring, tensor_quiver_morphisms(ring, vertices, fs),
                                dense_tensor_quiver_morphisms(ring, vertices, fs))


def test_tensor_skips_products_on_vanishing_fold_orders():
    # along a -> a -> b the factors give Z/2 (x) Z/3 = 0: those products of
    # nonzero entries have no raw generator and must be dropped
    s = ("a", "b")
    p = Quiver.build(Z, s, {("a", "a"): Module(Z, (2,)), ("a", "b"): Module(Z, (3,)),
                            ("b", "b"): Module.free(Z, 1)})
    q = Quiver.build(Z, s, {("a", "b"): Module(Z, (3, FREE)), ("b", "b"): Module(Z, (3, FREE)),
                            ("a", "a"): Module(Z, (2,))})
    layout = tensor_layout(Z, s, (p, q))
    paths = {path for path, _ in layout.raw_gens("a", "b")}
    assert paths == {("a",), ("b",)}
    assert len(layout.raw_gens("a", "b")) < 1 * 2 + 1 * 2
    f = QuiverMorphism.build(p, p, {ab: Morphism.identity(mod).scale(-1) for ab, mod in p.homs})
    g = QuiverMorphism.build(q, q, {ab: Morphism.identity(mod).scale(5) for ab, mod in q.homs})
    for fs in ((f, g), (g, f)):
        got = tensor_quiver_morphisms(Z, s, fs)
        assert_same_quiver_morphism(Z, got, dense_tensor_quiver_morphisms(Z, s, fs))
        assert not got.comp("a", "b").is_zero_map


# -- tensor products of module maps and the reduction of torsion rows ------


def dense_tensor_morphisms(f, g):
    """The dense tensor: a product for every (codomain, domain) raw pair."""
    ring = f.ring
    dpairs, dom, _, dfrom = _tensor_layout(f.domain, g.domain)
    cpairs, cod, cto, _ = _tensor_layout(f.codomain, g.codomain)
    if not dpairs or not cpairs:
        return Morphism.zero(dom, cod)
    raw = tuple(
        tuple(ring.mul(f.matrix[ic][idx], g.matrix[jc][jdx]) for (idx, jdx) in dpairs)
        for (ic, jc) in cpairs
    )
    return Morphism._trusted(dom, cod, change_basis(ring, cto, raw, dfrom))


@st.composite
def module_maps(draw, ring):
    """A congruence-valid map between modules of FACTORS[ring], zero and
    torsion modules included."""
    dom, cod = (Module(ring, draw(st.sampled_from(FACTORS[ring]))) for _ in range(2))
    return Morphism(dom, cod, tuple(
        tuple(ring.mul(draw(elements(ring)), _valid_multiplier(ring, od, oc))
              for od in dom.factors)
        for oc in cod.factors))


@st.composite
def map_pairs(draw):
    ring = draw(st.sampled_from(RINGS))
    return draw(module_maps(ring)), draw(module_maps(ring))


@settings(max_examples=150)
@given(map_pairs())
def test_tensor_morphisms_equals_dense_tensor(pair):
    f, g = pair
    got, want = tensor_morphisms(f, g), dense_tensor_morphisms(f, g)
    assert got == want
    assert _entry_types(got.matrix) == _entry_types(want.matrix)


def per_entry_reduction(module, matrix):
    """Each entry of a torsion row on its own: x % order over Z, x % p^f
    over Z/p^m, truncation at e^f over F_p[e]/(e^m)."""
    ring = module.ring
    rows = []
    for row, f in zip(matrix, module.factors):
        if f == FREE:
            rows.append(row)
        elif ring.kind == "integers":
            rows.append(tuple(x % f for x in row))
        elif ring.kind == "chain":
            rows.append(tuple(x % ring.p ** f for x in row))
        else:
            rows.append(tuple(x[:f] + (0,) * (ring.m - f) for x in row))
    return tuple(rows)


# orders with repeats, so that rows of one order share their entries
TORSION_FACTORS = {
    Z: [(), (FREE,), (2, 2, FREE), (2, 6, 6), (3, 9, FREE, FREE), (4,)],
    Z8: [(), (FREE,), (1, 1, 2), (1, 2, 2, FREE), (2, FREE, FREE)],
    D32: [(), (FREE,), (1, 1), (1, 1, 1, FREE)],
    D33: [(), (1, 1, 2), (1, 2, 2, FREE), (2, FREE)],
}


@st.composite
def torsion_matrices(draw):
    ring = draw(st.sampled_from(sorted(TORSION_FACTORS, key=str)))
    module = Module(ring, draw(st.sampled_from(TORSION_FACTORS[ring])))
    cols = draw(st.integers(0, 4))
    values = elements(ring) if ring.kind != "integers" else st.integers(-20, 20)
    return module, tuple(tuple(draw(values) for _ in range(cols))
                         for _ in range(module.ngens))


@PROPERTY
@given(torsion_matrices())
def test_reduce_torsion_rows_equals_per_entry_reduction(data):
    module, matrix = data
    residues = []
    residue = coeff._residue

    def counted(ring, f):
        fn = residue(ring, f)

        def once(x):
            residues.append((f, x))
            return fn(x)

        return once

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coeff, "_residue", counted)
        got = _reduce_torsion_rows(module, matrix)
    want = per_entry_reduction(module, matrix)
    assert got == want
    assert _entry_types(got) == _entry_types(want)
    # one residue per distinct entry of the rows of each order
    distinct = {(f, x) for row, f in zip(matrix, module.factors) if f != FREE for x in row}
    assert sorted(residues, key=repr) == sorted(distinct, key=repr)
