"""Differential oracle for the sparse, diagonal-only cokernel.

``cokernel_module`` eliminates on the nonzeros of [f | order columns] with
least-valuation pivots; over Z with every codomain factor torsion it does so
modulo each p^k exactly dividing the codomain's exponent.  The dense Smith
diagonal it replaced is kept below as the reference.  They must give the
same module on random sparse matrices over the five ring kinds, and on
every cokernel that the horn, wings and ``limit_is_iso`` items of a corpus
take.  Over Z, sympy's Smith normal form is a second, independent oracle.
Orders that do not factor cheaply must reach the dense path, without a
stall.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from templikit import coeff
from templikit.coeff import (
    FREE,
    Module,
    Morphism,
    Ring,
    _diagonal_factors,
    _is_prime,
    _order_columns,
    _prime_powers,
    cokernel_module,
    mat_hstack,
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
from templikit.deform import verify_wings_tensor
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

PROPERTY = settings(max_examples=300, deadline=None, database=None, derandomize=True)


def dense_cokernel(f):
    """The dense reference: the quotient by the Smith diagonal of
    [f | order columns]."""
    n = f.codomain
    if n.ngens == 0:
        return Module.zero(f.ring)
    w = mat_hstack(f.matrix, _order_columns(n))
    return _diagonal_factors(f.ring, smith(f.ring, w).d, n.ngens)[1]


def sympy_cokernel(f):
    """The cokernel over Z read off sympy's Smith normal form."""
    normalforms = pytest.importorskip(
        "sympy.matrices.normalforms",
        reason="sympy is not installed, so there is no independent Smith oracle")
    from sympy import ZZ, Matrix

    w = mat_hstack(f.matrix, _order_columns(f.codomain))
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
    sparse_rows = coeff._sparse_rows

    def bounded(ring, f, q=None):
        moduli.append(q)
        return {i: _BoundedRow(row, q) for i, row in sparse_rows(ring, f, q).items()}

    monkeypatch.setattr(coeff, "_sparse_rows", bounded)
    f = Morphism(Module.free(Z, 4), Module(Z, (2, 6 * e)), (
        (1, 3, 5, 7),
        (2 ** 100 + 1, -(3 ** 50), e - 1, 10 ** 40)))
    runs = _counted_smith(monkeypatch)
    got = cokernel_module(f)
    assert runs == []
    assert moduli == [p ** k for p, k in _prime_powers(6 * e)]
    assert got == dense_cokernel(f)


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
    taken = []

    def checked(f):
        got = cokernel_module(f)
        assert got == dense_cokernel(f), (f.codomain, f.matrix)
        taken.append(f)
        return got

    monkeypatch.setattr(coeff, "cokernel_module", checked)
    CORPUS[name]()
    assert any(not f.codomain.is_zero for f in taken)
