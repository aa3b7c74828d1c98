"""Smith normal form against oracles that share no code with ``coeff.smith``.

Over ZZ the invariant factors are compared with sympy's
``invariant_factors``, over GF(p) with the rank sympy computes.  sympy has
no chain or dual-chain rings, so there ``normal_form`` must reconstruct the
matrix (L*diag(d)*R == A), the recorded transforms must diagonalize it
(U*A*V == diag(d)), and a matrix built as P*D*Q from invertible P, Q must
give back the invariant factors of D.
"""

import random

import pytest

from templikit.coeff import (
    Ring,
    invariant_factors,
    mat_identity,
    mat_mul,
    normal_form,
    smith,
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
        assert mat_mul(ring, mat_mul(ring, left, _diag(ring, d, rows, cols), cols), right,
                       cols) == a
        res = smith(ring, a, row_t=True, col_t=True)
        u_a = mat_mul(ring, res.row_transform, a, cols)
        assert mat_mul(ring, u_a, res.col_transform, cols) == _diag(ring, res.d, rows, cols)
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
        m = mat_mul(ring, tuple(map(tuple, e)), m, n)
    return m


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
        a = mat_mul(ring, mat_mul(ring, _invertible(ring, rng, n), d, n),
                    _invertible(ring, rng, n), n)
        assert invariant_factors(ring, a) == tuple(powers), (vals, a)
