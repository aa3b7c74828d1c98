"""Smith normal form against oracles that share no code with ``coeff.smith``.

Over ZZ the invariant factors are compared with sympy's
``invariant_factors``, over GF(p) with the rank sympy computes.  sympy has
no chain or dual-chain rings, so there ``normal_form`` must reconstruct the
matrix (L*diag(d)*R == A), the recorded transforms must diagonalize it
(U*A*V == diag(d)), and a matrix built as P*D*Q from invertible P, Q must
give back the invariant factors of D.

``reference_smith`` is the elimination ``smith`` replaced, which kept each
transform apart, also R = V^-1 and U*B for an augmented block B, and returned
them dense; ``smith`` returns its transforms as sparse rows, which densified
must give the same fields, with the same entry types, for every combination
of transforms.  ``solve_linear`` and ``normal_form`` derive U*B and R from
the transforms ``smith`` keeps, and must give what the reference's
augmented block and R give.
"""

import itertools
import random
import time
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense import dense_mat_mul, densify, mat_identity, sparsify
from templikit.coeff import (
    CHAIN,
    DUAL_CHAIN,
    INTEGERS,
    PRIME_FIELD,
    Ring,
    SmithResult,
    invariant_factors,
    normal_form,
    smith,
    solve_linear,
)

Z = Ring.integers()
LOCAL_RINGS = [Ring.chain(2, 3), Ring.chain(3, 2), Ring.chain(5, 1),
               Ring.dual_chain(3, 2), Ring.dual_chain(2, 3)]


def _sympy():
    return pytest.importorskip(
        "sympy.matrices.normalforms",
        reason="sympy is not installed, so there is no independent Smith oracle")


def _random_matrix(ring, rng, rows, cols, density):
    def elt():
        if rng.random() >= density:
            return ring.zero()
        if ring.kind == "integers":
            return rng.randint(-20, 20)
        if ring.kind == "dual-chain":
            return tuple(rng.randrange(ring.p) for _ in range(ring.m))
        return rng.randrange(ring.p if ring.kind == "prime-field" else ring.p ** ring.m)
    return tuple(tuple(elt() for _ in range(cols)) for _ in range(rows))


def _shapes(rng, count):
    return [(rng.randint(0, 6), rng.randint(0, 6), rng.choice((0.3, 0.7, 1.0)))
            for _ in range(count)]


def _diag(ring, d, rows, cols):
    return tuple(tuple(d[i] if i == j and i < len(d) else ring.zero() for j in range(cols))
                 for i in range(rows))


def test_integer_invariant_factors_match_sympy():
    normalforms = _sympy()
    from sympy import Matrix, ZZ

    rng = random.Random(61)
    for rows, cols, density in _shapes(rng, 60):
        a = _random_matrix(Z, rng, rows, cols, density)
        expected = normalforms.invariant_factors(Matrix(rows, cols, [x for r in a for x in r]),
                                                 domain=ZZ)
        # invariant factors are defined up to sign over Z
        assert invariant_factors(Z, a) == tuple(abs(int(x)) for x in expected), a


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_invariant_factors_match_sympy_rank(p):
    # over a field the invariant factors are rank-many ones and then zeros.
    # The rank comes from sympy's DomainMatrix: its Smith form over GF(p)
    # cannot serve, it raises NotInvertible on inputs such as (0 0 1) over GF(2)
    _sympy()
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    ring, field = Ring.prime_field(p), GF(p)
    rng = random.Random(70 + p)
    for rows, cols, density in _shapes(rng, 40):
        a = _random_matrix(ring, rng, rows, cols, density)
        rank = DomainMatrix([[field(x) for x in row] for row in a], (rows, cols), field).rank()
        assert invariant_factors(ring, a) == (1,) * rank + (0,) * (min(rows, cols) - rank), a


@pytest.mark.parametrize("ring", LOCAL_RINGS, ids=str)
def test_normal_form_reconstructs_and_diagonalizes(ring):
    rng = random.Random(80)
    for rows, cols, density in _shapes(rng, 40):
        a = _random_matrix(ring, rng, rows, cols, density)
        d, left, right = normal_form(ring, a)
        assert dense_mat_mul(ring, dense_mat_mul(ring, left, _diag(ring, d, rows, cols), cols),
                             right, cols) == a
        res = smith(ring, a, row_t=True, col_t=True)
        u_a = dense_mat_mul(ring, densify(ring, res.row_transform, rows), a, cols)
        assert dense_mat_mul(ring, u_a, densify(ring, res.col_transform, cols), cols) == \
            _diag(ring, res.d, rows, cols)
        assert tuple(res.d) == d


def _invertible(ring, rng, n):
    """A product of elementary matrices: invertible by construction."""
    m = mat_identity(ring, n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        e = [list(row) for row in mat_identity(ring, n)]
        if i != j:
            e[i][j] = _random_matrix(ring, rng, 1, 1, 1.0)[0][0]
        else:
            e[i][i] = ring.neg(ring.one())
        m = dense_mat_mul(ring, tuple(map(tuple, e)), m, n)
    return m


@st.composite
def large_integer_matrices(draw):
    """Up to 6 x 6 over Z, entries up to 2^128 in absolute value, about half
    of them zero."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entries = st.one_of(st.just(0), st.integers(-2 ** 128, 2 ** 128))
    return tuple(tuple(draw(entries) for _ in range(cols)) for _ in range(rows))


@settings(max_examples=100)
@given(large_integer_matrices())
def test_integer_euclid_on_large_entries(a):
    # the Euclidean loop over Z runs unbounded on every transform: it must
    # end quickly, give sympy's invariant factors and exact transforms
    normalforms = _sympy()
    from sympy import Matrix, ZZ

    rows = len(a)
    cols = len(a[0]) if rows else 0
    start = time.perf_counter()
    res = smith(Z, a, left=True, row_t=True, col_t=True)
    right = normal_form(Z, a)[2]
    assert time.perf_counter() - start < 5
    expected = normalforms.invariant_factors(Matrix(rows, cols, [x for r in a for x in r]),
                                             domain=ZZ) if rows and cols else ()
    assert tuple(res.d) == tuple(abs(int(x)) for x in expected)
    u, left = densify(Z, res.row_transform, rows), densify(Z, res.left, rows)
    v = densify(Z, res.col_transform, cols)
    assert dense_mat_mul(Z, dense_mat_mul(Z, u, a, cols), v, cols) == _diag(Z, res.d, rows, cols)
    assert dense_mat_mul(Z, left, u, rows) == mat_identity(Z, rows)
    assert dense_mat_mul(Z, right, v, cols) == mat_identity(Z, cols)


def _unit(ring, rng):
    while True:
        x = _random_matrix(ring, rng, 1, 1, 1.0)[0][0]
        if ring.is_unit(x):
            return x


@pytest.mark.parametrize("ring", LOCAL_RINGS, ids=str)
def test_invariant_factors_of_a_disguised_diagonal(ring):
    rng = random.Random(90)
    pi = ring.uniformizer
    for _ in range(25):
        n = rng.randint(1, 5)
        vals = sorted(rng.randint(0, ring.m) for _ in range(n))
        powers = []
        for v in vals:
            x = ring.one()
            for _ in range(v):
                x = ring.mul(x, pi)
            powers.append(x)
        # unit multiples of the powers, hidden by invertible row and column mixing
        d = _diag(ring, [ring.mul(_unit(ring, rng), x) for x in powers], n, n)
        a = dense_mat_mul(ring, dense_mat_mul(ring, _invertible(ring, rng, n), d, n),
                          _invertible(ring, rng, n), n)
        assert invariant_factors(ring, a) == tuple(powers), (vals, a)


# ---------------------------------------------------------------------------
# smith, solve_linear and normal_form against the elimination smith replaced
# ---------------------------------------------------------------------------


# what ``reference_smith`` returns: d and each transform asked for, dense
# (None for the others)
ReferenceSmith = namedtuple("ReferenceSmith",
                            ("d", "left", "right", "row_transform", "col_transform", "aug"))


def reference_smith(ring, matrix, *, left=False, right=False, row_t=False, col_t=False, aug=None):
    """The elimination ``coeff.smith`` replaced, kept as its reference: the
    same pivots, but each transform (U, V, L = U^-1, R = V^-1 and the
    augmented block) updated on its own in every row and column operation,
    L and R by generic ring arithmetic."""
    a = [list(row) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = [list(r) for r in mat_identity(ring, rows)] if row_t else None
    linv = [list(r) for r in mat_identity(ring, rows)] if left else None
    v = [list(r) for r in mat_identity(ring, cols)] if col_t else None
    rinv = [list(r) for r in mat_identity(ring, cols)] if right else None
    ag = [list(row) for row in aug] if aug is not None else None

    is_zero, mul, add, neg = ring.is_zero, ring.mul, ring.add, ring.neg
    # integer-backed rings get inline arithmetic in the hot loops: zero tests
    # by truthiness and (a + c*x) mod q with q = None meaning no reduction
    fast = ring.kind != DUAL_CHAIN
    if ring.kind == PRIME_FIELD:
        q = ring.p
    elif ring.kind == CHAIN:
        q = ring.p ** ring.m
    else:
        q = None

    def _axpy(dst, src, c, upto):
        if fast:
            if q is None:
                for j in range(upto):
                    x = src[j]
                    if x:
                        dst[j] = dst[j] + c * x
            else:
                for j in range(upto):
                    x = src[j]
                    if x:
                        dst[j] = (dst[j] + c * x) % q
        else:
            for j in range(upto):
                x = src[j]
                if any(x):
                    dst[j] = add(dst[j], mul(c, x))

    def row_swap(i, k):
        if i == k:
            return
        a[i], a[k] = a[k], a[i]
        if u is not None:
            u[i], u[k] = u[k], u[i]
        if ag is not None:
            ag[i], ag[k] = ag[k], ag[i]
        if linv is not None:
            for r in linv:
                r[i], r[k] = r[k], r[i]

    def row_axpy(i, k, c):
        # row i += c * row k
        if is_zero(c):
            return
        _axpy(a[i], a[k], c, cols)
        if u is not None:
            _axpy(u[i], u[k], c, rows)
        if ag is not None:
            _axpy(ag[i], ag[k], c, len(ag[i]))
        if linv is not None:
            nc = neg(c)
            for r in linv:
                x = r[i]
                if not is_zero(x):
                    r[k] = add(r[k], mul(nc, x))

    def row_scale(i, w):
        ai = a[i]
        for j in range(cols):
            if not is_zero(ai[j]):
                ai[j] = mul(w, ai[j])
        if u is not None:
            ui = u[i]
            for j in range(rows):
                if not is_zero(ui[j]):
                    ui[j] = mul(w, ui[j])
        if ag is not None:
            gi = ag[i]
            for j in range(len(gi)):
                if not is_zero(gi[j]):
                    gi[j] = mul(w, gi[j])
        if linv is not None:
            wi = ring.inv(w)
            for r in linv:
                if not is_zero(r[i]):
                    r[i] = mul(wi, r[i])

    def col_swap(j, k):
        if j == k:
            return
        for r in a:
            r[j], r[k] = r[k], r[j]
        if v is not None:
            for r in v:
                r[j], r[k] = r[k], r[j]
        if rinv is not None:
            rinv[j], rinv[k] = rinv[k], rinv[j]

    def col_axpy(j, k, c):
        # col j += c * col k
        if is_zero(c):
            return
        if fast:
            if q is None:
                for r in a:
                    x = r[k]
                    if x:
                        r[j] = r[j] + c * x
                if v is not None:
                    for r in v:
                        x = r[k]
                        if x:
                            r[j] = r[j] + c * x
            else:
                for r in a:
                    x = r[k]
                    if x:
                        r[j] = (r[j] + c * x) % q
                if v is not None:
                    for r in v:
                        x = r[k]
                        if x:
                            r[j] = (r[j] + c * x) % q
        else:
            for r in a:
                x = r[k]
                if any(x):
                    r[j] = add(r[j], mul(c, x))
            if v is not None:
                for r in v:
                    x = r[k]
                    if any(x):
                        r[j] = add(r[j], mul(c, x))
        if rinv is not None:
            nc = neg(c)
            rj, rk = rinv[j], rinv[k]
            for t in range(len(rj)):
                x = rj[t]
                if not is_zero(x):
                    rk[t] = add(rk[t], mul(nc, x))

    euclid = ring.kind == INTEGERS
    # over chain kinds and fields the minimal valuation of the remaining
    # submatrix never decreases, so the previous pivot's key is a sharp
    # early-exit bound; over Z remainders can shrink, keep the bound at 1
    bound = [1 if euclid else 0]
    pivot_key = ring.pivot_key

    def find_pivot(t):
        best = None
        best_key = None
        stop = bound[0]
        if fast:
            for i in range(t, rows):
                ai = a[i]
                for j in range(t, cols):
                    x = ai[j]
                    if not x:
                        continue
                    key = pivot_key(x)
                    if best is None or key < best_key:
                        best, best_key = (i, j), key
                        if key <= stop:
                            return best, best_key
            return (best, best_key) if best is not None else None
        for i in range(t, rows):
            ai = a[i]
            for j in range(t, cols):
                x = ai[j]
                if not any(x):
                    continue
                key = pivot_key(x)
                if best is None or key < best_key:
                    best, best_key = (i, j), key
                    if key <= stop:
                        return best, best_key
        return (best, best_key) if best is not None else None

    t = 0
    limit = min(rows, cols)
    while t < limit:
        found = find_pivot(t)
        if found is None:
            break
        if not euclid:
            bound[0] = max(bound[0], found[1])
        found = found[0]
        row_swap(t, found[0])
        col_swap(t, found[1])
        if euclid:
            while True:
                if a[t][t] < 0:
                    row_scale(t, -1)
                piv = a[t][t]
                dirty = False
                for i in range(t + 1, rows):
                    x = a[i][t]
                    if x:
                        row_axpy(i, t, -(x // piv))
                        if a[i][t]:
                            dirty = True
                if dirty:
                    found = find_pivot(t)[0]
                    row_swap(t, found[0])
                    col_swap(t, found[1])
                    continue
                for j in range(t + 1, cols):
                    x = a[t][j]
                    if x:
                        col_axpy(j, t, -(x // piv))
                        if a[t][j]:
                            dirty = True
                if dirty:
                    found = find_pivot(t)[0]
                    row_swap(t, found[0])
                    col_swap(t, found[1])
                    continue
                piv = a[t][t]
                bad = None
                for i in range(t + 1, rows):
                    ai = a[i]
                    for j in range(t + 1, cols):
                        if ai[j] % piv:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is None:
                    break
                row_axpy(t, bad, 1)
        else:
            piv = a[t][t]
            for i in range(t + 1, rows):
                x = a[i][t]
                if not is_zero(x):
                    row_axpy(i, t, neg(ring.divide(x, piv)))
            for j in range(t + 1, cols):
                x = a[t][j]
                if not is_zero(x):
                    col_axpy(j, t, neg(ring.divide(x, piv)))
        t += 1

    d = []
    for i in range(limit):
        x = a[i][i]
        if is_zero(x):
            d.append(ring.zero())
            continue
        w = ring.normalizing_unit(x)
        if not is_zero(ring.sub(w, ring.one())):
            row_scale(i, w)
        d.append(a[i][i])

    return ReferenceSmith(
        d=d,
        left=tuple(tuple(r) for r in linv) if linv is not None else None,
        right=tuple(tuple(r) for r in rinv) if rinv is not None else None,
        row_transform=tuple(tuple(r) for r in u) if u is not None else None,
        col_transform=tuple(tuple(r) for r in v) if v is not None else None,
        aug=tuple(tuple(r) for r in ag) if ag is not None else None,
    )


FLAGS = ("left", "row_t", "col_t")
ORACLE_RINGS = [Z, Ring.rationals(), Ring.prime_field(3), Ring.chain(2, 3),
                Ring.dual_chain(3, 2), Ring.dual_chain(2, 3)]


def _elements(ring):
    if ring.kind == "integers":
        return st.integers(-30, 30)
    if ring.kind == "rationals":
        return st.fractions(-5, 5, max_denominator=6)
    if ring.kind == "dual-chain":
        return st.tuples(*[st.integers(0, ring.p - 1)] * ring.m)
    return st.integers(0, (ring.p if ring.kind == "prime-field" else ring.p ** ring.m) - 1)


@st.composite
def smith_inputs(draw):
    """(ring, A, B): A up to 6 x 6 and B with A's rows and up to 3 columns,
    about half of the entries zero."""
    ring = draw(st.sampled_from(ORACLE_RINGS))
    entries = st.one_of(st.just(ring.zero()), _elements(ring))
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6)) if rows else 0
    width = draw(st.integers(0, 3))
    a = tuple(tuple(draw(entries) for _ in range(cols)) for _ in range(rows))
    b = tuple(tuple(draw(entries) for _ in range(width)) for _ in range(rows))
    return ring, a, b


def _typed(x):
    if isinstance(x, (list, tuple)):
        return type(x), tuple(map(_typed, x))
    return type(x), x


def _densified(ring, res, rows, cols):
    """The fields of ``smith``'s result with each sparse transform made
    dense, in the shape ``reference_smith`` returns it."""
    shapes = {"left": rows, "row_transform": rows, "col_transform": cols}
    return {k: v if k == "d" or v is None else densify(ring, v, shapes[k])
            for k, v in vars(res).items()}


def _assert_matches_reference(ring, a, flags):
    kwargs = dict(zip(FLAGS, flags))
    got = smith(ring, a, **kwargs)
    want = reference_smith(ring, a, **kwargs)
    assert isinstance(got, SmithResult)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    assert {k: _typed(v) for k, v in _densified(ring, got, rows, cols).items()} == \
        {k: _typed(getattr(want, k)) for k in SmithResult._fields}, (ring, a, kwargs)


ALL_FLAGS = list(itertools.product((False, True), repeat=len(FLAGS)))


def _flag_id(flags):
    return "+".join(name for name, on in zip(FLAGS, flags) if on) or "none"


@pytest.mark.parametrize("flags", ALL_FLAGS, ids=_flag_id)
@settings(max_examples=30)
@given(smith_inputs())
def test_smith_equals_reference(flags, data):
    ring, a, _ = data
    _assert_matches_reference(ring, a, flags)


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=str)
def test_smith_equals_reference_on_empty_shapes(ring):
    # no rows, and no columns
    one = ring.one()
    shapes = [(), ((),) * 3, ((one, one),), ((one, ring.zero()), (one, one))]
    for a, flags in itertools.product(shapes, ALL_FLAGS):
        _assert_matches_reference(ring, a, flags)


def _reference_solution(ring, a, b):
    """X = V*Z, where D*Z = U*B for D = diag(d) is solved entry by entry, from
    the reference's augmented block U*B and V; None when some entry of U*B
    is not a multiple of its diagonal entry (0 past the diagonal)."""
    ref = reference_smith(ring, a, col_t=True, aug=b)
    width = len(b[0]) if b else 0
    z = [[ring.zero()] * width for _ in ref.col_transform]
    for i, row in enumerate(ref.aug):
        di = ref.d[i] if i < len(ref.d) else ring.zero()
        for j, rhs in enumerate(row):
            if not ring.is_zero(rhs):
                if ring.is_zero(di) or not ring.divides(di, rhs):
                    return None
                z[i][j] = ring.divide(rhs, di)
    return dense_mat_mul(ring, ref.col_transform, z, width)


@settings(max_examples=200)
@given(smith_inputs())
def test_solve_linear_equals_reference(data):
    ring, a, b = data
    got = solve_linear(ring, a, sparsify(ring, b))
    want = _reference_solution(ring, a, b)
    if want is None:
        assert got is None, (ring, a, b)
    else:
        assert got is not None, (ring, a, b)
        width = len(b[0]) if b else 0
        assert _typed(densify(ring, got, width)) == _typed(want), (ring, a, b)


@settings(max_examples=200)
@given(smith_inputs())
def test_normal_form_equals_reference(data):
    ring, a, _ = data
    want = reference_smith(ring, a, left=True, right=True)
    assert _typed(normal_form(ring, a)) == _typed((tuple(want.d), want.left, want.right)), \
        (ring, a)
