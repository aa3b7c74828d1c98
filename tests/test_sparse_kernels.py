"""Differential oracle for the sparse rows of morphisms.

A ``Morphism`` stores one {column: entry} dict of nonzeros per codomain
generator, and every operation writes those rows directly: ``mat_mul``
multiplies row-sparse, in one loop per ring kind, and reduces each output
entry once;
``tensor_morphisms`` and ``tensor_quiver_morphisms`` build each raw row from
the nonzero entries of the factors; identities, zero maps, composites, sums,
differences, multiples, base changes and views over the source keep only
nonzeros; the dense input of Smith, [f | order columns], is built from the
rows.  Each is compared here with dense or per-entry references kept in
the tests (``dense.py`` and below), on the dense view ``.matrix``: equal
matrices, with equal entry types and no zero in any stored row, over Z, Q,
F_3, Z/2^3, F_3[e]/(e^2) and F_3[e]/(e^3), zero modules (0-row and 0-column
shapes, and products with an inner dimension of 0) included.  The ring
arithmetic under them (``Ring.add``, ``neg`` and ``mul`` on tuples, the
reduction of a torsion row and the entry maps of a ring change) is checked
against componentwise formulas written out here.
"""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense import (
    dense_change_basis,
    dense_mat_add,
    dense_mat_mul,
    dense_mat_neg,
    densify,
    mat_hstack,
    mat_zero,
    order_columns,
    reduce_torsion_rows,
    sparsify,
)
from templikit.coeff import (
    FREE,
    Module,
    Morphism,
    Ring,
    RingExtension,
    _presentation_matrix,
    _reduce_row,
    _reduce_torsion,
    _tensor_layout,
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


def _entry_types(matrix):
    return [[type(x) for x in row] for row in matrix]


def assert_no_stored_zero(ring, rows):
    assert all(not ring.is_zero(x) for row in rows for x in row.values())


def assert_same_rows(ring, got, want, width):
    """Sparse ``got`` against the dense ``want``: the same matrix, with the
    same entry types, and no zero stored."""
    assert_no_stored_zero(ring, got)
    dense = densify(ring, got, width)
    assert dense == want
    assert _entry_types(dense) == _entry_types(want)


def assert_same_morphism(got, want_matrix):
    """A morphism against a dense reference matrix, on its dense view, whose
    zero entries are the one shared zero."""
    ring = got.ring
    assert_no_stored_zero(ring, got.rows)
    assert len(got.rows) == got.codomain.ngens
    assert got.matrix == want_matrix
    assert _entry_types(got.matrix) == _entry_types(want_matrix)
    assert all(x is ring.zero() for row in got.matrix for x in row if ring.is_zero(x))


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
            comps[(a, c)] = Morphism(dmod, cmod, dense_change_basis(
                ring, cod.to_norm(a, c), tuple(rows), dom.from_norm(a, c), dmod.ngens))
    return QuiverMorphism.build(dom.quiver, cod.quiver, comps)


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


# -- the product ---------------------------------------------------------


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
    got = mat_mul(ring, sparsify(ring, a), sparsify(ring, b))
    assert_same_rows(ring, got, dense_mat_mul(ring, a, b, cols), cols)


def test_dual_chain_sums_at_the_digit_bound():
    # every coordinate p - 1: each coordinate sum of the product reaches its
    # largest value, inner * m * (p - 1)^2 at most, with no carry between them
    for p, m, inner in ((3, 2, 9), (5, 3, 7), (2, 4, 1), (7, 1, 5), (3, 3, 150)):
        ring = Ring.dual_chain(p, m)
        full = (p - 1,) * m
        a = ((full,) * inner,) * 2
        b = ((full,) * 3,) * inner
        got = mat_mul(ring, sparsify(ring, a), sparsify(ring, b))
        assert_same_rows(ring, got, dense_mat_mul(ring, a, b), 3)


@pytest.mark.parametrize("inner", [1, 2, 5, 150, 400])
def test_dual_pairs_sum_past_p_squared(inner):
    # over F3[e]/(e^2) with every coordinate 2 the pair accumulators reach
    # 4 * inner and 8 * inner before their one reduction; the other rows
    # and columns mix the coordinates, so some sums vanish in one of them
    full = ((2, 2),) * inner
    a = (full, tuple((i % 3, i * i % 3) for i in range(inner)),
         tuple((i % 3, (inner - i) % 3) for i in range(inner)))
    b = tuple(((2, 2), (i % 3, 0), (0, i % 3), (i * j % 3, (i + j) % 3))
              for i, j in enumerate(range(inner, 0, -1)))
    got = mat_mul(D32, sparsify(D32, a), sparsify(D32, b))
    assert_same_rows(D32, got, dense_mat_mul(D32, a, b, 4), 4)


@pytest.mark.parametrize("ring", [F3, Z8, Ring.chain(3, 1)], ids=str)
@pytest.mark.parametrize("inner", [1, 7, 300])
def test_modular_sums_reduce_once(ring, inner):
    # over F3, Z/2^3 and Z/3^1 the products are summed as integers, far
    # past q when every entry is q - 1, and reduced once per output entry
    q = ring.p ** (ring.m or 1)
    a = ((q - 1,) * inner, tuple(i % q for i in range(inner)))
    b = tuple((q - 1, (i + 1) % q, (q - i) % q) for i in range(inner))
    got = mat_mul(ring, sparsify(ring, a), sparsify(ring, b))
    assert_same_rows(ring, got, dense_mat_mul(ring, a, b, 3), 3)


@pytest.mark.parametrize("m", [2, 3])
def test_dual_arithmetic_is_componentwise(m):
    # every pair of elements of F3[e]/(e^m)
    ring, p = Ring.dual_chain(3, m), 3
    elements = list(product(range(p), repeat=m))
    for a in elements:
        assert ring.neg(a) == tuple((-x) % p for x in a)
        assert type(ring.neg(a)) is tuple
        for b in elements:
            assert ring.add(a, b) == tuple((x + y) % p for x, y in zip(a, b))
            assert ring.mul(a, b) == tuple(
                sum(a[i] * b[k - i] for i in range(k + 1)) % p for k in range(m))
            assert ring.sub(a, b) == tuple((x - y) % p for x, y in zip(a, b))


def _canonical_elements(ring):
    if ring.kind == "dual-chain":
        return list(product(range(ring.p), repeat=ring.m))
    return list(range(ring.p ** (ring.m or 1)))


# every order of each kind, with the per-entry residue modulo it
RESIDUES = [(Z, f, lambda x, f=f: x % f) for f in (2, 3, 4, 6, 9, 12)] + [
    (ring, f, lambda x, q=ring.p ** f: x % q)
    for ring in (Z8, Ring.chain(3, 3)) for f in range(1, ring.m)] + [
    (ring, f, lambda x, f=f, m=ring.m: x[:f] + (0,) * (m - f))
    for ring in (D32, D33, Ring.dual_chain(2, 4)) for f in range(1, ring.m)]


@pytest.mark.parametrize("ring,f,residue", RESIDUES, ids=str)
def test_reduce_row_equals_per_entry_residues(ring, f, residue):
    values = range(-40, 41) if ring.kind == "integers" else _canonical_elements(ring)
    row = {j: x for j, x in enumerate(values) if not ring.is_zero(x)}
    got = _reduce_row(ring, f, row)
    want = {j: y for j, x in row.items() if not ring.is_zero(y := residue(x))}
    assert got == want
    assert all(type(y) is type(ring.zero()) for y in got.values())
    if ring.kind == "dual-chain":
        assert all(len(y) == ring.m for y in got.values())
    assert _reduce_row(ring, FREE, row) == row


@pytest.mark.parametrize("theta", [
    RingExtension(Ring.chain(3, 3), Ring.chain(3, 2)),
    RingExtension(Ring.chain(3, 3), F3),
    RingExtension(D33, D32),
    RingExtension(D33, F3),
    RingExtension(D32, F3),
], ids=lambda t: f"{t.source}->{t.target}")
def test_ring_change_equals_the_reduce_round_trip(theta):
    # the entry maps of a ring change against Ring.reduce on every
    # canonical element: reduction slices, the lift pads
    r, k = theta.source, theta.target
    for x in _canonical_elements(r):
        if r.kind == "chain":
            want = k.reduce(x)
        elif k.kind == "prime-field":
            want = x[0] % k.p
        else:
            want = k.reduce(x[:k.m])
        got = theta.reduce_element(x)
        assert got == want and type(got) is type(want)
    for x in _canonical_elements(k):
        want = r.reduce(x if r.kind == "chain" else (x,) if k.kind == "prime-field"
                        else tuple(x))
        got = theta.lift_element(x)
        assert got == want and type(got) is type(want)
        if r.kind == "dual-chain":
            assert len(got) == r.m
        assert theta.reduce_element(got) == x


def test_mat_mul_with_empty_inner_dimension():
    # an r x 0 matrix times a 0 x c one is the r x c zero matrix: r empty
    # rows, and so is the composite through a zero module
    for ring in RINGS:
        got = mat_mul(ring, [{}, {}, {}], [])
        assert got == [{}, {}, {}]
        assert_same_rows(ring, got, dense_mat_mul(ring, ((),) * 3, (), 2), 2)
        m, n = Module.free(ring, 3), Module.free(ring, 2)
        composite = Morphism.zero(Module.zero(ring), m).compose(
            Morphism.zero(n, Module.zero(ring)))
        assert composite.rows == [{}, {}, {}]
        assert_same_morphism(composite, mat_zero(ring, 3, 2))
        assert composite.is_zero_map


def test_vanishing_chain_products_give_the_shared_zero():
    # p * p^(m-1) = 0 and e * e^(m-1) = 0; the second column also cancels
    # a nonzero sum (x * 1 + x * (-1)).  The sparse rows leave them out, and
    # the dense view shows the one shared zero there
    for ring in (Z8, D32, D33):
        pi = ring.uniformizer
        top = _uniformizer_power(ring, ring.m - 1)
        minus_one = ring.neg(ring.one())
        b = ((top, ring.one()), (ring.zero(), minus_one))
        got = mat_mul(ring, sparsify(ring, ((pi, pi),)), sparsify(ring, b))
        assert got == [{}]
        assert_same_rows(ring, got, dense_mat_mul(ring, ((pi, pi),), b, 2), 2)
        got = mat_mul(ring, sparsify(ring, ((pi, top),)), sparsify(ring, ((top,), (pi,))))
        assert got == [{}]
        free1, free2 = Module.free(ring, 1), Module.free(ring, 2)
        cancelled = Morphism(free2, free1, ((ring.one(), ring.one()),)).compose(
            Morphism(free1, free2, ((pi,), (ring.neg(pi),))))
        vanished = Morphism(free1, free1, ((top,),)).compose(Morphism(free1, free1, ((pi,),)))
        for composite in (cancelled, vanished):
            assert composite.rows == [{}]
            assert composite.matrix == ((ring.zero(),),)
            assert composite.matrix[0][0] is ring.zero()


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
        assert_same_morphism(f, g.matrix)


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


# -- the operations of module maps -----------------------------------------


def dense_tensor_morphisms(f, g):
    """The dense tensor: a product for every (codomain, domain) raw pair."""
    ring = f.ring
    dpairs, dom, _, dfrom = _tensor_layout(f.domain, g.domain)
    cpairs, cod, cto, _ = _tensor_layout(f.codomain, g.codomain)
    if not dpairs or not cpairs:
        return mat_zero(ring, cod.ngens, dom.ngens)
    raw = tuple(
        tuple(ring.mul(f.matrix[ic][idx], g.matrix[jc][jdx]) for (idx, jdx) in dpairs)
        for (ic, jc) in cpairs
    )
    return reduce_torsion_rows(cod, dense_change_basis(ring, cto, raw, dfrom, dom.ngens))


def dense_identity(ring, n):
    return tuple(tuple(ring.one() if i == j else ring.zero() for j in range(n))
                 for i in range(n))


@st.composite
def module_maps(draw, ring, dom=None, cod=None):
    """A congruence-valid map between modules of FACTORS[ring], zero and
    torsion modules included."""
    dom = dom or Module(ring, draw(st.sampled_from(FACTORS[ring])))
    cod = cod or Module(ring, draw(st.sampled_from(FACTORS[ring])))
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
    assert_same_morphism(tensor_morphisms(f, g), dense_tensor_morphisms(f, g))


@st.composite
def operands(draw):
    """f, g: a -> b, h: b -> c and a scalar, with a zero module among a, b
    and c (0-row and 0-column shapes, and an inner dimension of 0) often."""
    ring = draw(st.sampled_from(RINGS))
    a, b, c = (Module(ring, draw(st.sampled_from(FACTORS[ring]))) for _ in range(3))
    f = draw(module_maps(ring, a, b))
    g = draw(module_maps(ring, a, b))
    h = draw(module_maps(ring, b, c))
    return ring, f, g, h, draw(elements(ring))


@settings(max_examples=150)
@given(operands())
def test_morphism_operations_equal_dense_references(data):
    ring, f, g, h, c = data
    a, b = f.domain, f.codomain
    assert_same_morphism(Morphism.identity(a), dense_identity(ring, a.ngens))
    assert_same_morphism(Morphism.zero(a, b), mat_zero(ring, b.ngens, a.ngens))
    assert_same_morphism(h.compose(f), reduce_torsion_rows(
        h.codomain, dense_mat_mul(ring, h.matrix, f.matrix, a.ngens)))
    assert_same_morphism(f + g, reduce_torsion_rows(b, dense_mat_add(ring, f.matrix, g.matrix)))
    assert_same_morphism(f - g, reduce_torsion_rows(
        b, dense_mat_add(ring, f.matrix, dense_mat_neg(ring, g.matrix))))
    assert_same_morphism(f.scale(c), reduce_torsion_rows(
        b, tuple(tuple(ring.mul(c, x) for x in row) for row in f.matrix)))
    assert (f - f).is_zero_map
    for m in (f, g, h, f.scale(c), h.compose(f)):
        assert m.is_zero_map == all(ring.is_zero(x) for row in m.matrix for x in row)


@settings(max_examples=150)
@given(operands())
def test_equality_and_hash_follow_the_entries(data):
    ring, f, g, h, c = data
    again = Morphism(f.domain, f.codomain, f.matrix)
    assert again == f and hash(again) == hash(f)
    assert (f == g) == (f.matrix == g.matrix)
    if f == g:
        assert hash(f) == hash(g)
    # rows built in another column order are the same map
    shuffled = Morphism._trusted(f.domain, f.codomain,
                                 [dict(reversed(row.items())) for row in f.rows])
    assert shuffled == f and hash(shuffled) == hash(f)
    assert f + Morphism.zero(f.domain, f.codomain) == f
    assert (f == f.scale(c)) == (f.matrix == f.scale(c).matrix)


# surjections onto a smaller chain ring or onto the residue field, with
# the module factors over each target
EXTENSIONS = [RingExtension(Z8, Ring.chain(2, 2)), RingExtension(Z8, Ring.prime_field(2)),
              RingExtension(D32, F3), RingExtension(D33, D32), RingExtension(D33, F3)]
TARGET_FACTORS = {Ring.chain(2, 2): [(), (FREE,), (1,), (1, FREE)],
                  Ring.prime_field(2): FACTORS[F3], F3: FACTORS[F3], D32: FACTORS[D32]}


@st.composite
def extension_maps(draw):
    """theta, a map over its source and a map over its target."""
    theta = draw(st.sampled_from(EXTENSIONS))
    target = theta.target
    dom, cod = (Module(target, draw(st.sampled_from(TARGET_FACTORS[target])))
                for _ in range(2))
    return theta, draw(module_maps(theta.source)), draw(module_maps(target, dom, cod))


@settings(max_examples=100)
@given(extension_maps())
def test_base_change_and_view_equal_entrywise_references(data):
    theta, f, fiber = data
    down = theta.base_change_morphism(f)
    assert_same_morphism(down, Morphism(
        theta.base_change(f.domain), theta.base_change(f.codomain),
        tuple(tuple(theta.reduce_element(x) for x in row) for row in f.matrix)).matrix)
    up = theta.view_morphism_over_source(fiber)
    assert_same_morphism(up, Morphism(
        theta.view_module_over_source(fiber.domain), theta.view_module_over_source(fiber.codomain),
        tuple(tuple(theta.lift_element(x) for x in row) for row in fiber.matrix)).matrix)


def test_base_change_drops_the_entries_it_kills():
    # e * id over F3[e]/(e^2) goes to 0 over F3: the zero map, empty rows
    theta = RingExtension(D32, F3)
    m = Module.free(D32, 2)
    e_id = Morphism.identity(m).scale(D32.uniformizer)
    assert not e_id.is_zero_map
    down = theta.base_change_morphism(e_id)
    assert down.rows == [{}, {}]
    assert down.is_zero_map
    assert down == Morphism.zero(Module.free(F3, 2), Module.free(F3, 2))


# -- the reduction of torsion rows -----------------------------------------


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
    return module, cols, tuple(tuple(draw(values) for _ in range(cols))
                               for _ in range(module.ngens))


@PROPERTY
@given(torsion_matrices())
def test_reduce_torsion_rows_equals_per_entry_reduction(data):
    module, cols, matrix = data
    ring = module.ring
    got = _reduce_torsion(module, sparsify(ring, matrix))
    assert_same_rows(ring, got, reduce_torsion_rows(module, matrix), cols)


# -- the presentation Smith reads ------------------------------------------


@pytest.mark.parametrize("ring,factors", [(ring, factors) for ring in RINGS
                                          for factors in FACTORS[ring]], ids=str)
@settings(max_examples=20)
@given(data=st.data())
def test_presentation_matrix_equals_dense_presentation(ring, factors, data):
    # every codomain of FACTORS: zero, all free, all torsion and mixed
    f = data.draw(module_maps(ring, cod=Module(ring, factors)))
    got = _presentation_matrix(ring, f.rows, f.codomain.factors, f.domain.ngens)
    want = mat_hstack(f.matrix, order_columns(f.codomain))
    assert got == want
    assert _entry_types(got) == _entry_types(want)
