"""Exact linear algebra core: normal forms, analysis, tensors, limits."""

import random
from fractions import Fraction

import pytest

from dense import dense_mat_mul, densify, mat_identity, mat_zero, sparsify
from templikit.coeff import (
    FREE,
    PRIME_LIMIT,
    Module,
    ModuleDiagram,
    Morphism,
    Ring,
    RingExtension,
    ShapeError,
    UnsupportedRingError,
    _chain_order_elt,
    _is_prime,
    analyze,
    cokernel_data,
    cokernel_module,
    direct_sum,
    factor_through_colimit,
    factor_through_epi,
    factor_through_limit,
    factor_through_mono,
    finite_colimit,
    finite_limit,
    invariant_factors,
    mat_mul,
    normal_form,
    normalize_orders,
    smith,
    solve_linear,
    tensor,
    tensor_morphisms,
)

Z = Ring.integers()
Q = Ring.rationals()
F2 = Ring.prime_field(2)
F3 = Ring.prime_field(3)
F5 = Ring.prime_field(5)
Z4 = Ring.chain(2, 2)
Z8 = Ring.chain(2, 3)
D2 = Ring.dual_chain(3, 2)

ALL_RINGS = [Z, Q, F3, Z4, Z8, D2, Ring.dual_chain(2, 3)]


def rand_elt(ring, rng):
    if ring.kind == "integers":
        return rng.randint(-6, 6)
    if ring.kind == "rationals":
        return ring.reduce(rng.randint(-6, 6))
    if ring.kind == "prime-field":
        return rng.randrange(ring.p)
    if ring.kind == "chain":
        return rng.randrange(ring.p ** ring.m)
    return tuple(rng.randrange(ring.p) for _ in range(ring.m))


def rand_matrix(ring, rows, cols, rng):
    return tuple(tuple(rand_elt(ring, rng) for _ in range(cols)) for _ in range(rows))


def expand_diag(ring, d, rows, cols):
    zero = ring.zero()
    return tuple(
        tuple(d[i] if i == j and i < len(d) else zero for j in range(cols))
        for i in range(rows)
    )


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------


def test_ring_validation():
    with pytest.raises(UnsupportedRingError):
        Ring.prime_field(4)
    with pytest.raises(UnsupportedRingError):
        Ring.chain(2, 0)
    with pytest.raises(UnsupportedRingError):
        Ring("polynomial")


def test_zero_and_one_are_shared_values():
    expected = {
        Z: (0, 1), Q: (Fraction(0), Fraction(1)), F3: (0, 1), Z8: (0, 1),
        D2: ((0, 0), (1, 0)), Ring.dual_chain(2, 3): ((0, 0, 0), (1, 0, 0)),
    }
    for ring, (zero, one) in expected.items():
        assert ring.zero() is ring.zero() and ring.one() is ring.one()
        assert (ring.zero(), ring.one()) == (zero, one)
        assert (type(ring.zero()), type(ring.one())) == (type(zero), type(one))


def test_zero_module_is_shared_per_ring():
    for ring in (Z, Q, F3, Z8, D2):
        assert Module.zero(ring) is Module.zero(ring)
        assert Module.zero(ring) == Module(ring, ()) and Module.zero(ring).ring is ring
    assert Module.zero(Z) != Module.zero(Q)


def test_zero_module_sources_return_the_shared_zero():
    # base change, the view over the source and normalization of no factors
    for source, target in ((Z8, Z4), (Z8, F2), (D2, F3), (Ring.dual_chain(2, 3), F2)):
        theta = RingExtension(source, target)
        assert theta.base_change(Module.zero(source)) is Module.zero(target)
        assert theta.view_module_over_source(Module.zero(target)) is Module.zero(source)
    for ring in ALL_RINGS:
        assert normalize_orders(ring, ()) == (Module.zero(ring), None, None)
        assert normalize_orders(ring, ())[0] is Module.zero(ring)
        # the cokernels of an isomorphism, counted and read off Smith
        iso = Morphism.identity(Module.free(ring, 2))
        assert cokernel_module(iso) is Module.zero(ring)
        assert cokernel_data(iso)[0] is Module.zero(ring)


def test_integer_orders_leave_the_order_cache_alone():
    # over Z the order element of Z/f is f itself, so fresh orders add
    # nothing to the cache; a chain ring adds at most m values to it
    before = _chain_order_elt.cache_info().currsize
    for f in range(10 ** 12, 10 ** 12 + 1000):
        cod = Module(Z, (f,))
        assert cod.order_elt(0) == f
        assert cokernel_data(Morphism(Module.free(Z, 1), cod, ((f - 1,),)))[0].is_zero
    assert _chain_order_elt.cache_info().currsize == before
    ring = Ring.chain(3, 7)
    for _ in range(2):
        for f in range(7):
            Module(ring, (f,) if f else (FREE,)).order_elt(0)
    assert _chain_order_elt.cache_info().currsize <= before + ring.m


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_agrees_with_trial_division_below_1e5():
    assert [n for n in range(10 ** 5) if _is_prime(n) != _trial_division(n)] == []


# strong pseudoprimes to the prime bases up to 2, 3, 7 (3215031751 =
# 151 * 751 * 28351), 13, 17, 23 and 37, and Carmichael numbers
@pytest.mark.parametrize("n", [2047, 1373653, 3215031751, 3474749660383, 341550071728321,
                               3825123056546413051, 318665857834031151167461,
                               561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                               321197185, 9746347772161])
def test_is_prime_rejects_pseudoprimes(n):
    assert not _is_prime(n)


# primes near 10^12, 10^18 and 10^19, and the largest prime below PRIME_LIMIT
@pytest.mark.parametrize("p", [1000000000039, 999999999999999989, 1000000000000000003,
                               10000000000000000051, 3317044064679887385961813])
def test_is_prime_accepts_large_primes(p):
    assert _is_prime(p)
    assert not _is_prime(p * 3)
    assert Ring.prime_field(p).p == p


def test_primes_beyond_the_exact_range_are_unsupported():
    with pytest.raises(UnsupportedRingError, match="primes below"):
        Ring.prime_field(PRIME_LIMIT)
    with pytest.raises(UnsupportedRingError, match="primes below"):
        Ring.chain(2 ** 89 - 1, 2)  # a Mersenne prime above the limit


def test_dual_chain_arithmetic():
    r = D2  # F_3[e]/(e^2)
    e = r.uniformizer
    assert r.mul(e, e) == r.zero()
    x = r.reduce((1, 1))  # 1 + e
    assert r.is_unit(x)
    assert r.mul(x, r.inv(x)) == r.one()
    assert r.valuation(e) == 1 and r.valuation(r.one()) == 0 and r.valuation(r.zero()) == 2


def test_chain_division():
    r = Z8
    assert r.divide(4, 2) == 2
    assert r.divide(6, 2) == 3
    # 6 = 2 * 3, and 3 is a unit: 6 / 6 == 1
    assert r.mul(r.divide(2, 6), 6) == 2


def test_chain_arithmetic_with_a_large_nilpotency_matches_integers_mod_p_m():
    p, m = 3, 20000
    r, modulus = Ring.chain(p, m), p ** m
    rng = random.Random(20000)
    big = rng.randrange(modulus // p) * p + 1  # a unit of full size
    assert r.inv(big) == pow(big, -1, modulus) and r.reduce(r.inv(big) * big) == 1
    for v in (0, 1, 7, 4000, m - 1):
        u = rng.randrange(10 ** 9) * p + rng.randrange(1, p)  # a unit
        assert r.reduce(u * big) == u * big % modulus
        a = r.reduce(u * p ** v)
        assert a == u * p ** v % modulus and r.reduce(-a) == -a % modulus
        assert r.valuation(a) == v
        assert r.reduce(r.inv(u) * u) == 1
        b = rng.randrange(1, 10 ** 9) * p ** rng.randrange(v, m) % modulus
        assert (r.divide(b, a) * a - b) % modulus == 0 and r.divide(0, a) == 0
        n = r.normalizing_unit(a)
        assert n % p != 0 and n * a % modulus == p ** v
    assert r.valuation(0) == m


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------


def test_normal_form_diag_2_3_over_z():
    d, left, right = normal_form(Z, ((2, 0), (0, 3)))
    assert d == (1, 6)


def test_normal_form_identity():
    for ring in ALL_RINGS:
        ident = mat_identity(ring, 3)
        d, left, right = normal_form(ring, ident)
        assert d == tuple(ring.one() for _ in range(3))
        assert left == ident and right == ident


def test_normal_form_z4_times2():
    d, _, _ = normal_form(Z4, ((2,),))
    assert d == (2,)
    assert Z4.valuation(d[0]) == 1


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_normal_form_reconstructs(ring):
    rng = random.Random(12)
    for _ in range(25):
        rows = rng.randint(0, 4)
        cols = rng.randint(0, 4)
        a = rand_matrix(ring, rows, cols, rng)
        d, left, right = normal_form(ring, a)
        dd = expand_diag(ring, d, rows, cols)
        assert dense_mat_mul(ring, dense_mat_mul(ring, left, dd), right) == tuple(
            tuple(ring.reduce(x) for x in row) for row in a
        )
        # successive divisibility
        for x, y in zip(d, d[1:]):
            assert ring.divides(x, y)


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_mat_mul_with_empty_inner_dimension(ring):
    # an r x 0 matrix times a 0 x c one is the r x c zero matrix: on sparse
    # rows, r empty rows
    assert mat_mul(ring, [{}, {}], []) == [{}, {}]
    assert mat_mul(ring, [], []) == []
    empty = Module.zero(ring)
    m, n = Module.free(ring, 2), Module.free(ring, 3)
    composite = Morphism.zero(empty, m).compose(Morphism.zero(n, empty))
    assert composite.matrix == mat_zero(ring, 2, 3)


def test_smith_transforms_track_inverses():
    # L = U^-1, U*A*V = diag(d), and normal_form's R is V^-1, over all five
    # kinds
    rng = random.Random(5)
    for ring in ALL_RINGS:
        # a matrix without rows shows no width, so (0, 0) stands for 0 x n
        for rows, cols in ((3, 4), (4, 3), (3, 3), (0, 0), (2, 0)):
            a = rand_matrix(ring, rows, cols, rng)
            res = smith(ring, a, left=True, row_t=True, col_t=True)
            # the transforms come out as sparse rows
            left, u = densify(ring, res.left, rows), densify(ring, res.row_transform, rows)
            v = densify(ring, res.col_transform, cols)
            d, _, right = normal_form(ring, a)
            assert d == tuple(res.d)
            assert dense_mat_mul(ring, left, u, rows) == mat_identity(ring, rows)
            assert dense_mat_mul(ring, right, v, cols) == mat_identity(ring, cols)
            assert dense_mat_mul(ring, dense_mat_mul(ring, u, a, cols), v, cols) == \
                expand_diag(ring, res.d, rows, cols)


def test_solve_linear():
    rng = random.Random(7)
    for ring in ALL_RINGS:
        for _ in range(10):
            a = rand_matrix(ring, 3, 3, rng)
            x = rand_matrix(ring, 3, 2, rng)
            b = dense_mat_mul(ring, a, x)
            x2 = solve_linear(ring, a, sparsify(ring, b))
            assert x2 is not None
            assert dense_mat_mul(ring, a, densify(ring, x2, 2)) == b
    assert solve_linear(Z, ((2,),), [{0: 1}]) is None
    # no equations: every X solves them, and the zero one has a row per unknown
    for ring in ALL_RINGS:
        assert solve_linear(ring, (), [], 3) == [{}, {}, {}]
        assert solve_linear(ring, (), []) == []


# ---------------------------------------------------------------------------
# modules and morphisms
# ---------------------------------------------------------------------------


def test_module_normal_form_enforced():
    with pytest.raises(ShapeError):
        Module(Z, (4, 2))
    with pytest.raises(ShapeError):
        Module(Z, (2, 3))  # no divisibility chain
    with pytest.raises(ShapeError):
        Module(Z4, (FREE, 1))
    Module(Z, (2, 4, FREE))
    Module(Z8, (1, 2, FREE))


# every factor tuple the public constructor refuses, with its error; the
# order checks run factor by factor before the normal-form checks, so the
# first failing factor names the error
MALFORMED_FACTORS = [
    (Q, (FREE, 2), UnsupportedRingError, "torsion factor over field Q"),
    (F5, (3, FREE), UnsupportedRingError, "torsion factor over field F5"),
    (F5, (FREE, -1, 7), UnsupportedRingError, "torsion factor over field F5"),
    (Z, (2, 1), ShapeError, "invalid integer torsion order 1"),
    (Z, (FREE, -3, 1), ShapeError, "invalid integer torsion order -3"),
    (Z, (4, 1, 2), ShapeError, "invalid integer torsion order 1"),
    (Z4, (1, 2), ShapeError, "invalid chain exponent 2 for Z/2^2"),
    (Z8, (FREE, 5, -1), ShapeError, "invalid chain exponent 5 for Z/2^3"),
    (D2, (1, 2), ShapeError, "invalid chain exponent 2 for F3[e]/(e^2)"),
    (Ring.dual_chain(3, 1), (1,), ShapeError, "invalid chain exponent 1 for F3[e]/(e^1)"),
    (Z, (4, 2), ShapeError, "factors not in normal form: (4, 2)"),
    (Z, (FREE, 2), ShapeError, "factors not in normal form: (0, 2)"),
    (Z4, (FREE, 1), ShapeError, "factors not in normal form: (0, 1)"),
    (Z8, (2, 1, FREE), ShapeError, "factors not in normal form: (2, 1, 0)"),
    (D2, (1, FREE, 1), ShapeError, "factors not in normal form: (1, 0, 1)"),
    (Z, [6, FREE, 6], ShapeError, "factors not in normal form: [6, 0, 6]"),
    (Z, (2, 3), ShapeError, "integer factors lack divisibility chain: (2, 3)"),
    (Z, (2, 4, 6, FREE), ShapeError, "integer factors lack divisibility chain: (2, 4, 6, 0)"),
]


@pytest.mark.parametrize("ring,factors,error,message", MALFORMED_FACTORS)
def test_module_constructor_rejects_each_malformed_factor_tuple(ring, factors, error, message):
    with pytest.raises(error) as exc:
        Module(ring, factors)
    assert str(exc.value) == message


def test_module_constructor_keeps_factors_and_counts_torsion():
    for ring, factors, ntorsion in ((Z, (2, 4, FREE), 2), (Z8, (1, 2, 2, FREE, FREE), 3),
                                    (D2, (FREE,), 0), (Q, (FREE, FREE), 0), (F5, (), 0),
                                    (Z, [3, 6], 2)):
        module = Module(ring, factors)
        assert module.factors is factors
        assert module._ntorsion == ntorsion


def test_morphism_congruence():
    # x2 : Z/2 -> Z/4 is well defined, x1 is not
    dom = Module(Z, (2,))
    cod = Module(Z, (4,))
    Morphism(dom, cod, ((2,),))
    with pytest.raises(ShapeError):
        Morphism(dom, cod, ((1,),))
    # entries are stored reduced mod the codomain order
    f = Morphism(Module.free(Z, 1), Module(Z, (4,)), ((7,),))
    assert f.matrix == ((3,),)


def test_analyze_times_two_over_z():
    zz = Module.free(Z, 1)
    f = Morphism(zz, zz, ((2,),))
    ana = analyze(f)
    assert ana.injective and not ana.surjective
    assert ana.cokernel.factors == (2,)
    assert not ana.split_mono
    assert str(ana.cokernel) == "Z/2"


def test_analyze_zero_map():
    m = Module(Z, (2, FREE))
    f = Morphism.zero(m, m)
    ana = analyze(f)
    assert ana.kernel.factors == m.factors
    assert ana.image.is_zero
    assert ana.cokernel.factors == m.factors


def test_analyze_computes_each_part_once_on_first_read(monkeypatch):
    from templikit import coeff

    calls = []
    smith = coeff.smith

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return smith(*args, **kwargs)

    monkeypatch.setattr(coeff, "smith", counted)
    m = Module(Z, (2, FREE))
    f = Morphism(m, m, ((1, 0), (0, 3)))
    assert not analyze(f).surjective
    assert calls == [{"row_t": True}]  # the cokernel only
    assert analyze(f).cokernel.factors == (3,)
    assert analyze(f).injective
    kernel_runs = len(calls) - 1
    assert kernel_runs > 0
    assert analyze(f).is_iso is False and analyze(f).split_mono is False
    assert len(calls) == 1 + kernel_runs  # every part kept on f
    # a map out of the zero module has a zero kernel without a Smith run
    g = Morphism.zero(Module.zero(Z), m)
    assert analyze(g).injective and analyze(g).kernel_inclusion.codomain == g.domain
    assert len(calls) == 1 + kernel_runs


def test_factor_through_mono_into_the_zero_module(monkeypatch):
    from templikit import coeff

    def no_smith(*args, **kwargs):
        raise AssertionError("no Smith run for a map into the zero module")

    monkeypatch.setattr(coeff, "smith", no_smith)
    zero, m = Module.zero(Z), Module(Z, (2, FREE))
    # 0 -> 0, and Z^2 -> 0 (not mono, but u = 0 still factors)
    for sub in (zero, Module.free(Z, 2)):
        inclusion = Morphism.zero(sub, zero)
        given = Morphism.zero(m, zero)
        u = factor_through_mono(inclusion, given)
        assert u == Morphism.zero(m, sub)
        assert inclusion.compose(u) == given


def test_analyze_projection_over_f5():
    f = Morphism(Module.free(F5, 2), Module.free(F5, 1), ((1, 0),))
    ana = analyze(f)
    assert ana.surjective
    assert ana.kernel.factors == (FREE,)
    assert ana.split_mono is False  # not injective


def test_analyze_split_mono():
    f = Morphism(Module.free(Z, 1), Module.free(Z, 2), ((1,), (0,)))
    ana = analyze(f)
    assert ana.injective and ana.split_mono
    g = Morphism(Module.free(Z, 1), Module.free(Z, 2), ((2,), (0,)))
    assert not analyze(g).split_mono


def rand_module(ring, rng, max_gens=3):
    factors = []
    for _ in range(rng.randint(0, max_gens)):
        if ring.is_field or rng.random() < 0.5:
            factors.append(FREE)
        elif ring.kind == "integers":
            factors.append(rng.choice([2, 3, 4, 6, 8]))
        else:
            factors.append(rng.randint(1, ring.m - 1) if ring.m > 1 else FREE)
    try:
        return Module(ring, tuple(sorted(factors, key=lambda f: (f == FREE, f))))
    except ShapeError:
        return Module.free(ring, len(factors))


def rand_morphism(ring, dom, cod, rng):
    rows = []
    for i in range(cod.ngens):
        row = []
        for j in range(dom.ngens):
            x = rand_elt(ring, rng)
            od, oc = dom.factors[j], cod.factors[i]
            if not ring.is_field:
                if ring.kind == "integers":
                    if od != FREE:
                        need = (oc // __import__("math").gcd(oc, od)) if oc != FREE else 0
                        x = x * need if need else (0 if oc == FREE else x * oc // __import__("math").gcd(oc, od))
                        if oc == FREE:
                            x = 0
                else:
                    ed = od if od != FREE else ring.m
                    ec = oc if oc != FREE else ring.m
                    if ec > ed:
                        x = ring.mul(x, _pi_power(ring, ec - ed))
            row.append(x)
        rows.append(tuple(row))
    return Morphism(dom, cod, tuple(rows))


def _pi_power(ring, e):
    x = ring.one()
    for _ in range(e):
        x = ring.mul(x, ring.uniformizer)
    return x


@pytest.mark.parametrize("ring", [Z, F3, Z4, Z8, D2])
def test_analyze_exactness_properties(ring):
    rng = random.Random(31)
    targets = random.Random(32)
    for _ in range(20):
        dom = rand_module(ring, rng)
        cod = rand_module(ring, rng)
        f = rand_morphism(ring, dom, cod, rng)
        ana = analyze(f)
        # f o ker_inclusion = 0 and coker_projection o f = 0
        assert f.compose(ana.kernel_inclusion).is_zero_map
        assert ana.cokernel_projection.compose(f).is_zero_map
        # witnessing inclusions are injective, the projection surjective
        assert analyze(ana.kernel_inclusion).injective
        assert analyze(ana.image_inclusion).injective
        assert analyze(ana.cokernel_projection).surjective
        # cokernel of the image inclusion is the cokernel of f
        assert cokernel_module(ana.image_inclusion).factors == ana.cokernel.factors
        assert cokernel_data(f)[0] == cokernel_module(f) == ana.cokernel
        # a map out of the cokernel is recovered from its composite with
        # the projection; a map that is not surjective is refused even when
        # a factorization exists (f = id o f)
        q = ana.cokernel_projection
        u0 = rand_morphism(ring, q.codomain, rand_module(ring, targets), targets)
        assert factor_through_epi(q, u0.compose(q)) == u0
        if not ana.image.is_zero:
            # the identity does not vanish on the image of f
            with pytest.raises(ShapeError):
                factor_through_epi(q, Morphism.identity(cod))
        if ana.surjective:
            assert factor_through_epi(f, f) == Morphism.identity(cod)
        else:
            with pytest.raises(ShapeError):
                factor_through_epi(f, f)
        if ring.is_field:
            assert ana.image.rank + ana.kernel.rank == dom.rank


def test_analyze_rank_profile_over_z():
    rng = random.Random(77)
    for _ in range(15):
        dom = rand_module(Z, rng)
        cod = rand_module(Z, rng)
        f = rand_morphism(Z, dom, cod, rng)
        ana = analyze(f)
        assert ana.image.rank + ana.kernel.rank == dom.rank


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------


def test_tensor_cyclics():
    assert tensor(Module(Z, (4,)), Module(Z, (2,))).factors == (2,)
    m = Module(Z, (2, 4, FREE))
    assert tensor(Module.free(Z, 1), m).factors == m.factors
    a = Module.free(F2, 2)
    b = Module.free(F2, 3)
    assert tensor(a, b).rank == 6


def test_tensor_z4_z2_over_chain():
    # over Z/8: R/(2) (x) R/(4) = R/(2)
    assert tensor(Module(Z8, (1,)), Module(Z8, (2,))).factors == (1,)


def test_tensor_morphisms_functorial():
    rng = random.Random(3)
    for ring in (Z, F3, Z4, D2):
        for _ in range(8):
            a, b, c = (rand_module(ring, rng, 2) for _ in range(3))
            f = rand_morphism(ring, a, b, rng)
            g = rand_morphism(ring, b, c, rng)
            a2, b2, c2 = (rand_module(ring, rng, 2) for _ in range(3))
            f2 = rand_morphism(ring, a2, b2, rng)
            g2 = rand_morphism(ring, b2, c2, rng)
            lhs = tensor_morphisms(g.compose(f), g2.compose(f2))
            rhs = tensor_morphisms(g, g2).compose(tensor_morphisms(f, f2))
            assert lhs.matrix == rhs.matrix
    ident = tensor_morphisms(Morphism.identity(Module.free(Z, 2)),
                             Morphism.identity(Module(Z, (2, 4))))
    assert ident.matrix == mat_identity(Z, ident.domain.ngens)


def test_tor_via_resolution_z2_over_z4():
    # Tor_1(Z/2, Z/2) over Z/4 via ... -> R --2--> R --2--> R -> Z/2 -> 0:
    # tensoring with Z/2 gives maps that vanish, so Tor_1 = Z/2 != 0,
    # matching is_flat(Z/2 over Z/4) == False.
    r = Z4
    rr = Module.free(r, 1)
    z2 = Module(r, (1,))
    times2 = Morphism(rr, rr, ((2,),))
    proj = Morphism(rr, z2, ((1,),))
    step = proj.compose(times2)
    assert step.is_zero_map  # d1 tensored with Z/2 is zero
    assert not z2.is_flat()
    assert Module.free(D2, 2).is_flat()
    assert not Module(Z, (2,)).is_flat()


# ---------------------------------------------------------------------------
# direct sums
# ---------------------------------------------------------------------------


def test_direct_sum_crt_over_z():
    ds = direct_sum(Z, (Module(Z, (2,)), Module(Z, (3,))))
    assert ds.module.factors == (6,)
    for inj, proj in zip(ds.injections, ds.projections):
        assert proj.compose(inj).matrix == mat_identity(Z, 1)
    # cross projections vanish
    assert ds.projections[0].compose(ds.injections[1]).is_zero_map


@pytest.mark.parametrize("ring", [Z, F3, Z8, D2])
def test_direct_sum_witnesses(ring):
    rng = random.Random(9)
    for _ in range(10):
        mods = tuple(rand_module(ring, rng) for _ in range(rng.randint(0, 3)))
        ds = direct_sum(ring, mods)
        assert ds.module.ngens == sum(m.ngens for m in mods)
        total = None
        for inj, proj, m in zip(ds.injections, ds.projections, mods):
            assert proj.compose(inj).matrix == mat_identity(ring, m.ngens)
            term = inj.compose(proj)
            total = term if total is None else total + term
        if total is not None:
            assert total.matrix == mat_identity(ring, ds.module.ngens)


# ---------------------------------------------------------------------------
# base change
# ---------------------------------------------------------------------------


def test_ring_extension_validity():
    RingExtension(Z8, Z4)
    RingExtension(Z8, Ring.prime_field(2))
    RingExtension(D2, F3)
    RingExtension(Ring.dual_chain(2, 3), Ring.dual_chain(2, 2))
    with pytest.raises(UnsupportedRingError):
        RingExtension(Z4, Z8)
    with pytest.raises(UnsupportedRingError):
        RingExtension(Z4, F3)
    with pytest.raises(UnsupportedRingError):
        RingExtension(Z, Ring.prime_field(2))


def test_ring_extension_kernel_exponent():
    assert RingExtension(Z8, Z4).kernel_exponent == 2
    assert RingExtension(Z8, Ring.prime_field(2)).kernel_exponent == 3
    assert RingExtension(Z8, Ring.prime_field(2)).small is False
    assert RingExtension(D2, F3).kernel_exponent == 2
    assert RingExtension(D2, F3).small


def test_small_factorization():
    theta = RingExtension(Z8, Ring.prime_field(2))
    steps = theta.small_factorization()
    assert all(s.small for s in steps)
    assert steps[0].source == Z8
    assert steps[-1].target == Ring.prime_field(2)
    for a, b in zip(steps, steps[1:]):
        assert a.target == b.source


def test_base_change_rank_preserved():
    theta = RingExtension(Z4, Ring.prime_field(2))
    m = Module.free(Z4, 3)
    assert theta.base_change(m).factors == (FREE, FREE, FREE)


def test_base_change_dual_sets_epsilon_zero():
    theta = RingExtension(D2, F3)
    f = Morphism(Module.free(D2, 1), Module.free(D2, 1), (((1, 1),),))
    g = theta.base_change_morphism(f)
    assert g.matrix == ((1,),)


def test_base_change_cyclic_quotient():
    theta = RingExtension(Z8, Ring.prime_field(2))
    m = Module(Z8, (2,))  # Z/4 over Z/8
    assert theta.base_change(m).factors == (FREE,)  # Z/2 as an F_2 vector line


def test_base_change_preserves_surjectivity():
    rng = random.Random(13)
    theta = RingExtension(Z8, Z4)
    for _ in range(20):
        dom = rand_module(Z8, rng)
        cod = rand_module(Z8, rng)
        f = rand_morphism(Z8, dom, cod, rng)
        if analyze(f).surjective:
            assert analyze(theta.base_change_morphism(f)).surjective


def test_kernel_as_target_module():
    assert RingExtension(Z4, Ring.prime_field(2)).kernel_as_target_module().factors == (FREE,)
    assert RingExtension(Z8, Z4).kernel_as_target_module().factors == (1,)
    assert RingExtension(D2, F3).kernel_as_target_module().factors == (FREE,)


# ---------------------------------------------------------------------------
# limits and colimits
# ---------------------------------------------------------------------------


def test_limit_one_object():
    m = Module(Z, (2, FREE))
    diag = ModuleDiagram(Z, (m,), ())
    lim = finite_limit(diag)
    assert lim.module.factors == m.factors
    assert analyze(lim.cone[0]).is_iso
    colim = finite_colimit(diag)
    assert colim.module.factors == m.factors
    assert analyze(colim.cocone[0]).is_iso


def test_pullback_2_3_over_z():
    zz = Module.free(Z, 1)
    f = Morphism(zz, zz, ((2,),))
    g = Morphism(zz, zz, ((3,),))
    diag = ModuleDiagram(Z, (zz, zz, zz), ((0, 2, f), (1, 2, g)))
    lim = finite_limit(diag)
    assert lim.module.factors == (FREE,)
    a = lim.cone[0].matrix[0][0]
    b = lim.cone[1].matrix[0][0]
    assert {abs(a), abs(b)} == {2, 3} and 2 * a == 3 * b


def test_coequalizer_of_identities():
    m = Module(Z4, (1, FREE))
    ident = Morphism.identity(m)
    diag = ModuleDiagram(Z4, (m, m), ((0, 1, ident), (0, 1, ident)))
    colim = finite_colimit(diag)
    assert colim.module.factors == m.factors


def test_empty_diagram():
    diag = ModuleDiagram(Z, (), ())
    assert finite_limit(diag).module.is_zero
    assert finite_colimit(diag).module.is_zero


def rand_diagram(ring, rng, max_nodes=6):
    nodes = tuple(rand_module(ring, rng, 2) for _ in range(rng.randint(1, max_nodes)))
    arrows = []
    for _ in range(rng.randint(0, 6)):
        src = rng.randrange(len(nodes))
        tgt = rng.randrange(len(nodes))
        arrows.append((src, tgt, rand_morphism(ring, nodes[src], nodes[tgt], rng)))
    return ModuleDiagram(ring, nodes, tuple(arrows))


def test_spanning_forest_frees_sources_then_cycles():
    # 0 -> 1 -> 2 -> 3 -> 2 and 4 -> 5 -> 4: node 0 reaches the first
    # cycle, the second has no source and frees its lowest node; the
    # colimit of the opposite diagram is the dual
    zz = Module.free(Z, 1)
    ident = Morphism.identity(zz)
    pairs = ((0, 1), (1, 2), (2, 3), (3, 2), (4, 5), (5, 4))
    diag = ModuleDiagram(Z, (zz,) * 6, tuple((s, t, ident) for s, t in pairs))
    lim = finite_limit(diag)
    assert lim.equations.free == (0, 4)
    assert lim.module.factors == (FREE, FREE)
    op = ModuleDiagram(Z, (zz,) * 6, tuple((t, s, ident) for s, t in pairs))
    colim = finite_colimit(op)
    assert colim.free == (0, 4)
    assert colim.module.factors == (FREE, FREE)


@pytest.mark.parametrize("ring", [Z, F3, Z8, D2])
def test_limit_cone_property_and_uniqueness(ring):
    rng = random.Random(23)
    for _ in range(12):
        diag = rand_diagram(ring, rng)
        lim = finite_limit(diag)
        for src, tgt, f in diag.arrows:
            assert f.compose(lim.cone[src]).matrix == lim.cone[tgt].matrix
        # factorization of the limit's own cone is the identity (uniqueness
        # holds because the inclusion into the product is injective)
        assert analyze(lim.inclusion).injective
        u = factor_through_limit(lim, lim.cone, lim.module)
        assert u.matrix == mat_identity(ring, lim.module.ngens)


@pytest.mark.parametrize("ring", [Z, F3, Z8])
def test_colimit_cocone_property(ring):
    rng = random.Random(29)
    for _ in range(12):
        diag = rand_diagram(ring, rng)
        colim = finite_colimit(diag)
        for src, tgt, f in diag.arrows:
            assert colim.cocone[tgt].compose(f).matrix == colim.cocone[src].matrix
        u = factor_through_colimit(colim, colim.cocone, colim.module)
        assert u.matrix == mat_identity(ring, colim.module.ngens)
