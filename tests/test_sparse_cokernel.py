"""Differential oracle for the sparse, diagonal-only cokernel.

``cokernel_module`` eliminates on the nonzeros of [f | order columns] with
least-valuation pivots; over Z with every codomain factor torsion it does so
modulo each p^k exactly dividing the codomain's exponent.  The counting path
of the horn, wings and ``limit_is_iso`` items hands the same elimination
(``_cokernel_of_rows``) the sparse rows of s and of delta, with the raw
orders of their codomains.  The dense Smith diagonal it replaced is kept
below as the reference.  They must give the same module on random sparse
matrices over the five ring kinds, and on every cokernel that the items of
a corpus take.  Over Z, sympy's Smith normal form is a second, independent
oracle.  Orders that do not factor cheaply must reach the dense path,
without a stall.  Over a chain ring with every order torsion, the
elimination runs over R/(pi^e) for the largest order e, and must still give
the dense diagonal over R.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense import mat_hstack, order_columns
from templikit import coeff
from templikit.coeff import (
    FREE,
    Module,
    Morphism,
    Ring,
    RingExtension,
    _cokernel_of_rows,
    _diagonal_factors,
    _factor_order_elt,
    _is_prime,
    _prime_powers,
    cokernel_module,
    smith,
)
from templikit.constructors import (
    free_templicial,
    nerve,
    paper_p,
    s0_times_2,
    sset_nerve_of_poset,
    truncated_polynomial_category,
)
from templikit.deform import extension_sequence, verify_wings_tensor
from templikit.kan import (
    check_lifts_wings,
    check_quasicategory,
    check_templicial_wings,
    check_weak_kan,
)
from templikit.templicial import hom_necklicial, tensor_external

Z = Ring.integers()
Q = Ring.rationals()
F3 = Ring.prime_field(3)
D32 = Ring.dual_chain(3, 2)
LOCAL_RINGS = [Ring.prime_field(2), F3, Ring.prime_field(5), Ring.chain(2, 3),
               Ring.chain(3, 2), Ring.chain(5, 1), D32, Ring.dual_chain(2, 3)]
# exponents 4, 6, 12, 30 and 36; the last two codomains have a free factor
Z_CODOMAINS = [(4,), (6,), (2, 12), (30,), (3, 36), (6, 6, 30), (2, 12, 36),
               (12, FREE), (FREE, FREE)]
# the torsion orders M = Z/k of the benchmark's wings-tensor workload
WINGS_TORSION = (2, 3, 4, 6, 9)

PROPERTY = settings(max_examples=300)


def dense_cokernel(f):
    """The dense reference: the quotient by the Smith diagonal of
    [f | order columns]."""
    n = f.codomain
    if n.ngens == 0:
        return Module.zero(f.ring)
    w = mat_hstack(f.matrix, order_columns(n))
    return _diagonal_factors(f.ring, smith(f.ring, w).d, n.ngens)[1]


def dense_cokernel_of_rows(ring, rows, orders, width):
    """The dense reference on sparse rows into the cyclics of raw orders:
    the quotient by the Smith diagonal of [map | order columns]."""
    n = len(orders)
    if n == 0:
        return Module.zero(ring)
    zero = ring.zero()
    torsion = [i for i, f in enumerate(orders) if f != FREE]
    w = tuple(tuple(row.get(j, zero) for j in range(width))
              + tuple(_factor_order_elt(ring, orders[i]) if i == r else zero for i in torsion)
              for r, row in enumerate(rows))
    return _diagonal_factors(ring, smith(ring, w).d, n)[1]


def sympy_cokernel(f):
    """The cokernel over Z read off sympy's Smith normal form."""
    normalforms = pytest.importorskip(
        "sympy.matrices.normalforms",
        reason="sympy is not installed, so there is no independent Smith oracle")
    from sympy import ZZ, Matrix

    w = mat_hstack(f.matrix, order_columns(f.codomain))
    rows, cols = len(w), len(w[0]) if w else 0
    d = []
    if rows and cols:
        snf = normalforms.smith_normal_form(Matrix(w), domain=ZZ)
        d = [abs(int(snf[i, i])) for i in range(min(rows, cols))]
    d += [0] * (rows - len(d))
    torsion = sorted(x for x in d if x > 1)
    return Module(Z, tuple(torsion) + (FREE,) * d.count(0))


def _elements(ring):
    if ring.kind == "integers":
        values = st.one_of(st.integers(-40, 40), st.integers(-10**30, 10**30))
    elif ring.kind == "rationals":
        values = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
    elif ring.kind == "dual-chain":
        values = st.lists(st.integers(0, ring.p - 1), min_size=ring.m, max_size=ring.m)
    elif ring.kind == "chain":
        # unit multiples of powers of p, so that pivots of every valuation occur
        values = st.builds(lambda u, k: u * ring.p ** k,
                           st.integers(0, ring.p ** ring.m - 1), st.integers(0, ring.m))
    else:
        values = st.integers(0, ring.p - 1)
    return st.one_of(st.just(ring.zero()), st.just(ring.zero()), values).map(ring.reduce)


def _codomains(ring):
    if ring.kind == "integers":
        return st.sampled_from(Z_CODOMAINS).map(lambda fs: Module(ring, fs))
    if ring.is_field:
        return st.integers(0, 7).map(lambda r: Module.free(ring, r))
    exponents = st.lists(st.integers(1, ring.m - 1), max_size=4) if ring.m > 1 else st.just([])
    return st.tuples(exponents, st.integers(0, 4)).map(
        lambda t: Module(ring, tuple(sorted(t[0])) + (FREE,) * t[1]))


@st.composite
def maps(draw, rings):
    """A sparse map from a free module into a module with torsion."""
    ring = draw(st.sampled_from(rings))
    codomain = draw(_codomains(ring))
    s = draw(st.integers(0, 7))
    entries = _elements(ring)
    matrix = tuple(tuple(draw(entries) for _ in range(s)) for _ in range(codomain.ngens))
    return Morphism(Module.free(ring, s), codomain, matrix)


@PROPERTY
@given(maps([Z, Q] + LOCAL_RINGS))
def test_sparse_cokernel_equals_dense_reference(f):
    assert cokernel_module(f) == dense_cokernel(f)


@PROPERTY
@given(maps([Z]))
def test_integer_cokernel_matches_sympy(f):
    assert cokernel_module(f) == sympy_cokernel(f)


def test_prime_powers_of_the_exponent():
    assert _prime_powers(36) == [(2, 2), (3, 2)]
    assert _prime_powers(30) == [(2, 1), (3, 1), (5, 1)]
    assert _prime_powers(2 ** 64) == [(2, 64)]
    big = 2 ** 61 - 1
    assert _prime_powers(12 * big) == [(2, 2), (3, 1), (big, 1)]


def _primes_above(bound, count):
    found, p = [], bound + 1
    while len(found) < count:
        if _is_prime(p):
            found.append(p)
        p += 1
    return found


_P1, _P2 = _primes_above(coeff._TRIAL_DIVISION_BOUND, 2)
_MERSENNE_89 = 2 ** 89 - 1  # a prime above PRIME_LIMIT
HOSTILE = {
    "prime-above-limit": _MERSENNE_89,
    "semiprime-above-trial-bound": _P1 * _P2,
    "square-above-trial-bound": _P1 * _P1,
    "power-of-two-times-prime-above-limit": 2 ** 64 * _MERSENNE_89,
}


def _hostile_map(e):
    """A map into Z/e + Z/e with entries of many sizes."""
    return Morphism(Module.free(Z, 4), Module(Z, (e, e)), (
        (3, -2 * e + 1, 5, 10 ** 40),
        (e - 1, 0, 2 ** 70, 7)))


def _counted_smith(monkeypatch):
    runs = []
    smith_ = coeff.smith

    def counted(ring, matrix, **kwargs):
        runs.append(ring)
        return smith_(ring, matrix, **kwargs)

    monkeypatch.setattr(coeff, "smith", counted)
    return runs


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_orders_that_do_not_factor_cheaply_take_the_dense_path(monkeypatch, name):
    e = HOSTILE[name]
    assert _prime_powers(e) is None
    f = _hostile_map(e)
    runs = _counted_smith(monkeypatch)
    start = time.perf_counter()
    got = cokernel_module(f)
    assert time.perf_counter() - start < 5
    assert runs == [Z]
    assert got == dense_cokernel(f)


class _BoundedRow(dict):
    """A sparse row that refuses any entry outside [0, q)."""

    def __init__(self, entries, q):
        super().__init__()
        self.q = q
        for j, x in entries.items():
            self[j] = x

    def __setitem__(self, j, x):
        assert type(x) is int and 0 <= x < self.q, (x, self.q)
        super().__setitem__(j, x)


@pytest.mark.parametrize("e", [2 ** 64, 2 ** 64 * 3 ** 40, 36 * (2 ** 61 - 1)],
                         ids=["2^64", "2^64*3^40", "36*(2^61-1)"])
def test_integer_entries_stay_below_each_prime_power(monkeypatch, e):
    moduli = []
    order_rows = coeff._order_rows

    def bounded(ring, rows, orders, width, local=None):
        q = local._modulus
        moduli.append(q)
        reduced = order_rows(ring, rows, orders, width, local)
        return {i: _BoundedRow(row, q) for i, row in reduced.items()}

    monkeypatch.setattr(coeff, "_order_rows", bounded)
    f = Morphism(Module.free(Z, 4), Module(Z, (2, 6 * e)), (
        (1, 3, 5, 7),
        (2 ** 100 + 1, -(3 ** 50), e - 1, 10 ** 40)))
    runs = _counted_smith(monkeypatch)
    got = cokernel_module(f)
    assert runs == []
    assert moduli == [p ** k for p, k in _prime_powers(6 * e)]
    assert got == dense_cokernel(f)


# -- chain rings with every order torsion: elimination over R/(pi^e) ------

TORSION_RINGS = [Ring.chain(p, m) for p in (2, 3) for m in (2, 3, 4)] + [
    Ring.dual_chain(p, m) for p in (2, 3) for m in (2, 3)]


def _quotient_by_largest_order(ring, orders):
    e = max(orders)
    if ring.kind == "dual-chain" and e > 1:
        return Ring.dual_chain(ring.p, e)
    return Ring.chain(ring.p, e)


@st.composite
def torsion_rows(draw):
    """Sparse rows into cyclics whose orders are all below m: all of order 1
    or mixed, in any order, with zero rows and often too few columns to be
    onto."""
    ring = draw(st.sampled_from(TORSION_RINGS))
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        orders = [1] * n
    else:
        orders = draw(st.lists(st.integers(1, ring.m - 1), min_size=n, max_size=n))
    width = draw(st.integers(0, 6))
    entries = _elements(ring)
    rows = []
    for _ in range(n):
        if draw(st.integers(0, 3)) == 0:
            rows.append({})
        else:
            row = {j: draw(entries) for j in range(width)}
            rows.append({j: x for j, x in row.items() if x != ring.zero()})
    return ring, rows, orders, width


@PROPERTY
@given(torsion_rows())
def test_torsion_cokernel_over_the_quotient_ring_equals_dense_reference(data):
    ring, rows, orders, width = data
    rings = []
    pivot_valuations = coeff._pivot_valuations

    def spied(local, matrix):
        rings.append(local)
        return pivot_valuations(local, matrix)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coeff, "_pivot_valuations", spied)
        got = _cokernel_of_rows(ring, rows, orders, width)
    assert got == dense_cokernel_of_rows(ring, rows, orders, width), (orders, rows)
    assert rings == [_quotient_by_largest_order(ring, orders)]


def _entries(rows):
    return [x for row in rows for x in row.values()]


def test_order_one_items_run_over_an_integer_ring(monkeypatch):
    """Over F3[e]/(e^2) the sub and quotient terms of an extension sequence
    are F3-modules: e kills every generator.  The cokernels the sequence
    takes into order-1 generators run over Z/3.  The weak Kan checks of
    both terms pass, and every difference map, cone and elimination they
    build is over Z/3, on integer entries: no call sees a tuple."""
    ring, z3 = Ring.dual_chain(3, 2), Ring.chain(3, 1)
    sset = sset_nerve_of_poset(("p0", "p1"), (("p0", "p1"),), 3)
    ybar = hom_necklicial(free_templicial(sset, ring, 3), ("p0",), ("p1",))
    calls = []  # (orders, rings of the eliminations it ran)
    cokernel_of_rows, pivot_valuations = coeff._cokernel_of_rows, coeff._pivot_valuations

    def cokernel(r, rows, orders, width):
        calls.append((tuple(orders), []))
        return cokernel_of_rows(r, rows, orders, width)

    def pivots(local, matrix):
        calls[-1][1].append(local)
        return pivot_valuations(local, matrix)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coeff, "_cokernel_of_rows", cokernel)
        patch.setattr(coeff, "_pivot_valuations", pivots)
        ext = extension_sequence(RingExtension(ring, Ring.prime_field(3)), ybar)
    order_one = [rings for orders, rings in calls if orders and set(orders) == {1}]
    assert order_one and all(rings == [z3] for rings in order_one)

    seen = {"_limit_equations": [], "_cone_on_forest": [], "_pivot_valuations": []}
    equations, cone = coeff._limit_equations, coeff._cone_on_forest

    def spied_equations(diagram):
        entries = [x for _, _, f in diagram.arrows for x in _entries(f.rows)]
        seen["_limit_equations"].append((diagram.ring, entries))
        return equations(diagram)

    def spied_cone(eq, legs, domain):
        entries = _entries(eq.rows) + [x for leg in legs for x in _entries(leg.rows)]
        seen["_cone_on_forest"].append((eq.ring, entries))
        return cone(eq, legs, domain)

    def spied_pivots(local, rows):
        seen["_pivot_valuations"].append((local, _entries(rows.values())))
        return pivot_valuations(local, rows)

    monkeypatch.setattr(coeff, "_limit_equations", spied_equations)
    monkeypatch.setattr(coeff, "_cone_on_forest", spied_cone)
    monkeypatch.setattr(coeff, "_pivot_valuations", spied_pivots)
    for term in (ext.sub, ext.quotient):
        assert check_weak_kan(term, 3).passed
    for name, taken in seen.items():
        assert taken, name
        assert {r for r, _ in taken} == {z3}, name
        entries = [x for _, xs in taken for x in xs]
        assert entries and {type(x) for x in entries} == {int}, name


# -- corpus ---------------------------------------------------------------


def _homs(x):
    return [hom_necklicial(x, a, b) for a in x.vertices for b in x.vertices]


def _necklicial_checks(ys, n):
    for y in ys:
        check_weak_kan(y, n)
        check_lifts_wings(y, n)


def _wings_tensor(k):
    poset = sset_nerve_of_poset(("p0", "p1"), (("p0", "p1"),), 4)
    assert verify_wings_tensor(free_templicial(poset, Z, 4), Module(Z, (k,)), 4).passed


CORPUS = {
    "F3-nerve-4": lambda: check_quasicategory(
        nerve(truncated_polynomial_category(F3, (F3.zero(), F3.zero())), 4), 4),
    "D32-nerve-4": lambda: check_quasicategory(
        nerve(truncated_polynomial_category(D32, (D32.uniformizer, D32.zero())), 4), 4),
    "paper-p-4": lambda: (check_quasicategory(paper_p(4), 4),
                          check_templicial_wings(paper_p(4), 4)),
    "s0-times-2-Z6": lambda: _necklicial_checks(
        [tensor_external(y, Module(Z, (6,))) for y in _homs(s0_times_2(4))], 4),
    **{f"wings-tensor-Z{k}": (lambda k=k: _wings_tensor(k)) for k in WINGS_TORSION},
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_cokernels_equal_dense_reference(monkeypatch, name):
    """Every cokernel the items take, counted on the rows of s and delta or
    of a witness, equals the dense reference and leaves its rows as they
    were."""
    taken = []
    cokernel_of_rows = coeff._cokernel_of_rows

    def checked(ring, rows, orders, width):
        before = [dict(row) for row in rows]
        got = cokernel_of_rows(ring, rows, orders, width)
        assert rows == before
        assert got == dense_cokernel_of_rows(ring, rows, orders, width), (orders, rows)
        taken.append(orders)
        return got

    monkeypatch.setattr(coeff, "_cokernel_of_rows", checked)
    CORPUS[name]()
    assert any(taken)
