"""Oracle for the counted predicates of ``analyze`` and ``image_equals_kernel``.

Over a field, a chain ring, or the integers with every factor torsion,
``injective``, ``surjective``, ``is_iso`` and ``image_equals_kernel`` compare
sizes of cokernels read off the diagonal-only elimination; over the integers
with a free factor they read the witnesses.  Both are checked here against
the transform path they replaced: ``kernel_data(f)[0].is_zero``,
``cokernel_data(f)[0].is_zero``, and, for exactness, the factorization of
the inclusion through the kernel of the projection, copied below.  Random
morphisms cover F_2, F_5, Q, Z/2^3, Z/3^2, F_3[e]/(e^2), F_2[e]/(e^3), Z
with torsion only and Z with a free factor; random short sequences include
p o i != 0 and im i strictly inside ker p.  Spies check that the counted
readers of the deformation harness and the deg-projectivity checker run no
transform.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense import densify, mat_hstack, order_columns
from templikit import coeff
from templikit.coeff import (
    FREE,
    Module,
    Morphism,
    Ring,
    RingExtension,
    ShapeError,
    analyze,
    cokernel_data,
    image_equals_kernel,
    kernel_data,
    solve_linear,
)
from templikit.constructors import free_templicial, paper_p, sset_nerve_of_poset
from templikit.deform import extension_sequence
from templikit.kan import _degenerate_parts, check_deg_projective
from templikit.templicial import hom_necklicial

Z = Ring.integers()
# (ring, free): over Z, whether every module drawn has a free factor
SETTINGS = [
    (Ring.prime_field(2), None), (Ring.prime_field(5), None), (Ring.rationals(), None),
    (Ring.chain(2, 3), None), (Ring.chain(3, 2), None),
    (Ring.dual_chain(3, 2), None), (Ring.dual_chain(2, 3), None),
    (Z, False), (Z, True),
]
# divisibility chains of Z/2, Z/3, Z/4, Z/6 and Z/12
Z_TORSION = [(), (2,), (3,), (4,), (6,), (2, 2), (2, 4), (2, 6), (3, 6), (6, 6), (2, 12)]

def _elements(ring, sparse=True):
    if ring.kind == "integers":
        values = st.integers(-12, 12)
    elif ring.kind == "rationals":
        values = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    elif ring.kind == "dual-chain":
        values = st.tuples(*[st.integers(0, ring.p - 1)] * ring.m)
    elif ring.kind == "chain":
        values = st.integers(0, ring.p ** ring.m - 1)
    else:
        values = st.integers(0, ring.p - 1)
    values = values.map(ring.reduce)
    # sparse: zero entries often, so that maps fail to be injective or onto
    if sparse:
        return st.one_of(values, st.just(ring.zero()))
    return values.filter(lambda x: x != ring.zero())


@st.composite
def _modules(draw, ring, free):
    if ring.is_field:
        return Module.free(ring, draw(st.integers(0, 3)))
    if ring.kind == "integers":
        rank = draw(st.integers(1, 2)) if free else 0
        return Module(ring, draw(st.sampled_from(Z_TORSION)) + (FREE,) * rank)
    exps = draw(st.lists(st.integers(1, ring.m - 1), max_size=2)) if ring.m > 1 else []
    return Module(ring, tuple(sorted(exps)) + (FREE,) * draw(st.integers(0, 2)))


def _valid_multiplier(ring, od, oc):
    """Generator of {x : order(oc) | order(od) * x}, for domain order od."""
    if ring.is_field or od == FREE:
        return ring.one()
    if ring.kind == "integers":
        return 0 if oc == FREE else oc // gcd(oc, od)
    x = ring.one()
    for _ in range(max(0, (ring.m if oc == FREE else oc) - od)):
        x = ring.mul(x, ring.uniformizer)
    return x


@st.composite
def _morphisms(draw, dom, cod, sparse=True):
    ring = dom.ring
    return Morphism(dom, cod, tuple(
        tuple(ring.mul(draw(_elements(ring, sparse)), _valid_multiplier(ring, od, oc))
              for od in dom.factors)
        for oc in cod.factors))


@st.composite
def sequences(draw, ring, free):
    """A --i--> B --p--> C: i the kernel inclusion of p (exact), that
    inclusion composed with a random endomorphism of ker p (mostly im i
    strictly inside ker p), or, with p random and dense, i random or the
    identity (mostly p o i != 0)."""
    kind = draw(st.sampled_from(("kernel", "inside kernel", "random", "identity")))
    b, c = draw(_modules(ring, free)), draw(_modules(ring, free))
    if kind == "identity":
        return Morphism.identity(b), draw(_morphisms(b, c, sparse=False))
    if kind == "random":
        p = draw(_morphisms(b, c, sparse=False))
        return draw(_morphisms(draw(_modules(ring, free)), b, sparse=False)), p
    p = draw(_morphisms(b, c))
    ker, incl, _ = kernel_data(p)
    if kind == "kernel":
        return incl, p
    return incl.compose(draw(_morphisms(ker, ker))), p


def _fresh(f):
    """An equal morphism with no kept analysis."""
    return Morphism(f.domain, f.codomain, f.matrix)


def reference_factor_through_mono(inclusion, given):
    """The factorization the old exactness check used, on one linear solve."""
    amat = mat_hstack(inclusion.matrix, order_columns(inclusion.codomain))
    x = solve_linear(inclusion.ring, amat, given.rows)
    if x is None:
        raise ShapeError("map does not factor through the inclusion")
    u = Morphism(given.domain, inclusion.domain,
                 densify(inclusion.ring, x[:inclusion.domain.ngens], given.domain.ngens))
    if inclusion.compose(u).matrix != given.matrix:
        raise ShapeError("mono factorization verification failed")
    return u


def reference_exact(incl, proj):
    """Exactness of A --incl--> B --proj--> C at B on the transform path:
    proj o incl = 0, and incl factors through ker proj onto it."""
    if not proj.compose(incl).is_zero_map:
        return False
    try:
        u = reference_factor_through_mono(kernel_data(proj)[1], incl)
    except ShapeError:
        return False
    return cokernel_data(u)[0].is_zero


SETTING_IDS = [f"{ring}{'-free' if free else ''}" for ring, free in SETTINGS]


@pytest.mark.parametrize("ring, free", SETTINGS, ids=SETTING_IDS)
def test_predicates_equal_the_transform_path(ring, free):
    """Also checks that the maps drawn in each setting include injective
    and non-injective, onto and non-onto ones."""
    seen = set()

    @settings(max_examples=30)
    @given(st.tuples(_modules(ring, free), _modules(ring, free)).flatmap(
        lambda mods: _morphisms(*mods)))
    def check(f):
        injective = kernel_data(f)[0].is_zero
        surjective = cokernel_data(f)[0].is_zero
        seen.update({("injective", injective), ("surjective", surjective)})
        assert analyze(_fresh(f)).injective == injective
        assert analyze(_fresh(f)).surjective == surjective
        assert analyze(_fresh(f)).is_iso == (injective and surjective)
        # with a kept cokernel or kernel witness read first
        g = _fresh(f)
        assert analyze(g).cokernel.is_zero == surjective
        assert analyze(g).injective == injective and analyze(g).surjective == surjective
        g = _fresh(f)
        assert analyze(g).kernel.is_zero == injective
        assert analyze(g).is_iso == (injective and surjective)

    check()
    assert seen == {(name, verdict) for name in ("injective", "surjective")
                    for verdict in (True, False)}


@pytest.mark.parametrize("ring, free", SETTINGS, ids=SETTING_IDS)
def test_exactness_equals_the_factorization_through_the_kernel(ring, free):
    """Also checks that the sequences drawn in each setting include exact
    ones, p o i != 0, and p o i = 0 with im i strictly inside ker p."""
    seen = set()

    @settings(max_examples=50)
    @given(sequences(ring, free))
    def check(seq):
        i, p = seq
        exact = reference_exact(i, p)
        assert image_equals_kernel(_fresh(i), _fresh(p)) == exact
        if not p.compose(i).is_zero_map:
            seen.add("nonzero composite")
        else:
            seen.add("exact" if exact else "image inside kernel")

    check()
    assert seen == {"exact", "nonzero composite", "image inside kernel"}


def _spy(monkeypatch):
    calls = []
    for name in ("kernel_data", "cokernel_data"):
        real = getattr(coeff, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(coeff, name, counted)
    smith = coeff.smith

    def counted_smith(*args, **kwargs):
        if kwargs.get("row_t") or kwargs.get("col_t"):
            calls.append("smith with a transform")
        return smith(*args, **kwargs)

    monkeypatch.setattr(coeff, "smith", counted_smith)
    return calls


@pytest.mark.parametrize("ring, target", [
    (Ring.dual_chain(3, 2), Ring.prime_field(3)),
    (Ring.chain(2, 2), Ring.prime_field(2)),
])
def test_extension_sequence_runs_no_transform(monkeypatch, ring, target):
    sset = sset_nerve_of_poset(("p0", "p1"), (("p0", "p1"),), 3)
    ybar = hom_necklicial(free_templicial(sset, ring, 3), ("p0",), ("p1",))
    calls = _spy(monkeypatch)
    ext = extension_sequence(RingExtension(ring, target), ybar)
    assert calls == []
    assert any(not mod.is_zero for _, mod in ext.sub.values)


def test_deg_projective_check_reads_no_kernel_when_it_passes(monkeypatch):
    calls = _spy(monkeypatch)
    report = check_deg_projective(paper_p(3), 3)
    assert report.passed
    assert "kernel_data" not in calls


def test_deg_projective_items_compare_sizes_with_the_kept_cokernels(monkeypatch):
    """Once the degenerate parts are built, a passing check eliminates
    nothing: injectivity reads the cokernels the parts keep."""
    x = paper_p(3)
    for n in (1, 2, 3):
        _degenerate_parts(x, n)
    calls = _spy(monkeypatch)
    real = coeff._cokernel_of_rows

    def counted(*args):
        calls.append("elimination")
        return real(*args)

    monkeypatch.setattr(coeff, "_cokernel_of_rows", counted)
    assert check_deg_projective(x, 3).passed
    assert calls == []
