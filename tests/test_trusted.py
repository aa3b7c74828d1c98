"""Property tests: trusted internal results equal the validated ones.

Operations whose results are valid by construction (compose, +, -, scale,
tensor products, limit and colimit difference maps) skip the checks of
``Morphism(...)``.  Here each is compared, on random valid morphisms over Z
with torsion, Z/p^m, F_p[e]/(e^m), F_p and Q, with the same result built
through the validating constructor.  Limits and colimits are compared with a
dense reference that forms the difference map from the full direct-sum
witnesses.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from templikit.coeff import (
    FREE,
    Module,
    ModuleDiagram,
    Morphism,
    Ring,
    _tensor_layout,
    cokernel_data,
    direct_sum,
    finite_colimit,
    finite_limit,
    kernel_data,
    mat_add,
    mat_identity,
    mat_mul,
    mat_neg,
    mat_zero,
    tensor_morphisms,
)

Z = Ring.integers()
RINGS = [Z, Ring.chain(2, 3), Ring.chain(3, 2), Ring.dual_chain(3, 2),
         Ring.dual_chain(2, 3), Ring.prime_field(5), Ring.rationals()]

# torsion parts over Z: divisibility chains of Z/2, Z/4 and Z/6
Z_TORSION = [(), (2,), (4,), (6,), (2, 2), (2, 4), (2, 6), (4, 4), (6, 6)]

PROPERTY = settings(max_examples=40, deadline=None, database=None, derandomize=True)


def elements(ring):
    if ring.kind == "integers":
        return st.integers(-7, 7)
    if ring.kind == "rationals":
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    if ring.kind == "prime-field":
        return st.integers(0, ring.p - 1)
    if ring.kind == "chain":
        return st.integers(0, ring.p ** ring.m - 1)
    return st.tuples(*[st.integers(0, ring.p - 1)] * ring.m)


@st.composite
def modules(draw, ring):
    rank = draw(st.integers(0, 2))
    if ring.is_field:
        torsion = ()
    elif ring.kind == "integers":
        torsion = draw(st.sampled_from(Z_TORSION))
    else:
        exps = draw(st.lists(st.integers(1, ring.m - 1), max_size=2)) if ring.m > 1 else []
        torsion = tuple(sorted(exps))
    return Module(ring, torsion + (FREE,) * rank)


def _valid_multiplier(ring, od, oc):
    """Generator of {x : order(oc) | order(od) * x}, for domain order od."""
    if ring.is_field or od == FREE:
        return ring.one()
    if ring.kind == "integers":
        return 0 if oc == FREE else oc // gcd(oc, od)
    ec = ring.m if oc == FREE else oc
    x = ring.one()
    for _ in range(max(0, ec - od)):
        x = ring.mul(x, ring.uniformizer)
    return x


@st.composite
def morphisms(draw, dom, cod):
    ring = dom.ring
    rows = tuple(
        tuple(ring.mul(draw(elements(ring)), _valid_multiplier(ring, od, oc))
              for od in dom.factors)
        for oc in cod.factors)
    return Morphism(dom, cod, rows)


def assert_same(got, want):
    assert got == want
    assert [[type(x) for x in row] for row in got.matrix] == \
        [[type(x) for x in row] for row in want.matrix]


@st.composite
def morphism_data(draw):
    ring = draw(st.sampled_from(RINGS))
    a, b, c = draw(modules(ring)), draw(modules(ring)), draw(modules(ring))
    f, g = draw(morphisms(a, b)), draw(morphisms(a, b))
    h = draw(morphisms(b, c))
    return ring, f, g, h, draw(elements(ring))


@PROPERTY
@given(morphism_data())
def test_operations_equal_validated_constructor(data):
    ring, f, g, h, c = data
    a, b = f.domain, f.codomain
    product = (mat_mul(ring, h.matrix, f.matrix) if b.ngens
               else mat_zero(ring, h.codomain.ngens, a.ngens))
    assert_same(h.compose(f), Morphism(a, h.codomain, product))
    assert_same(f + g, Morphism(a, b, mat_add(ring, f.matrix, g.matrix)))
    assert_same(f - g, Morphism(a, b, mat_add(ring, f.matrix, mat_neg(ring, g.matrix))))
    c = ring.reduce(c)
    assert_same(f.scale(c),
                Morphism(a, b, tuple(tuple(ring.mul(c, x) for x in row) for row in f.matrix)))
    assert_same(Morphism.identity(a), Morphism(a, a, mat_identity(ring, a.ngens)))
    assert_same(Morphism.zero(a, b), Morphism(a, b, mat_zero(ring, b.ngens, a.ngens)))


def dense_tensor(f, g):
    """f (x) g with explicit change-of-basis products, identities included."""
    ring = f.ring
    dpairs, dom, _, dfrom = _tensor_layout(f.domain, g.domain)
    cpairs, cod, cto, _ = _tensor_layout(f.codomain, g.codomain)
    raw = tuple(
        tuple(ring.mul(f.matrix[ic][idx], g.matrix[jc][jdx]) for (idx, jdx) in dpairs)
        for (ic, jc) in cpairs)
    if not dpairs or not cpairs:
        return Morphism(dom, cod, mat_zero(ring, cod.ngens, dom.ngens))
    cto = mat_identity(ring, len(cpairs)) if cto is None else cto
    dfrom = mat_identity(ring, len(dpairs)) if dfrom is None else dfrom
    return Morphism(dom, cod, mat_mul(ring, mat_mul(ring, cto, raw), dfrom))


@PROPERTY
@given(morphism_data())
def test_tensor_morphisms_equal_dense_tensor(data):
    _, f, g, h, _ = data
    assert_same(tensor_morphisms(f, h), dense_tensor(f, h))
    assert_same(tensor_morphisms(h, g), dense_tensor(h, g))


@st.composite
def diagrams(draw):
    ring = draw(st.sampled_from(RINGS))
    nodes = tuple(draw(st.lists(modules(ring), min_size=1, max_size=3)))
    ends = st.integers(0, len(nodes) - 1)
    arrows = []
    for src, tgt in draw(st.lists(st.tuples(ends, ends), max_size=4)):
        arrows.append((src, tgt, draw(morphisms(nodes[src], nodes[tgt]))))
    return ModuleDiagram(ring, nodes, tuple(arrows))


def _dense_sum_map(ring, domain, codomain, terms):
    """Validated morphism with matrix sum(left @ middle @ right) over terms."""
    total = mat_zero(ring, codomain.ngens, domain.ngens)
    for left, middle, right in terms:
        if middle and middle[0]:  # an empty inner dimension contributes zero
            total = mat_add(ring, total, mat_mul(ring, mat_mul(ring, left, middle), right))
    return Morphism(domain, codomain, total)


def dense_limit(diagram):
    """Kernel of sum_a inj_a o (f o pi_src - pi_tgt), from full witnesses."""
    ring = diagram.ring
    nodes_sum = direct_sum(ring, diagram.nodes)
    arr_sum = direct_sum(ring, tuple(diagram.nodes[tgt] for _, tgt, _ in diagram.arrows))
    terms = []
    for a, (src, tgt, f) in enumerate(diagram.arrows):
        inj, p_src, p_tgt = (arr_sum.injections[a].matrix, nodes_sum.projections[src].matrix,
                             nodes_sum.projections[tgt].matrix)
        terms.append((inj, f.matrix, p_src))
        terms.append((inj, mat_neg(ring, mat_identity(ring, f.codomain.ngens)), p_tgt))
    delta = _dense_sum_map(ring, nodes_sum.module, arr_sum.module, terms)
    kernel, incl, _ = kernel_data(delta)
    cone = tuple(Morphism(kernel, p.codomain, mat_mul(ring, p.matrix, incl.matrix))
                 for p in nodes_sum.projections)
    return kernel, incl, cone


def dense_colimit(diagram):
    """Cokernel of sum_a (inj_tgt o f - inj_src) o pi_a, from full witnesses."""
    ring = diagram.ring
    nodes_sum = direct_sum(ring, diagram.nodes)
    arr_sum = direct_sum(ring, tuple(diagram.nodes[src] for src, _, _ in diagram.arrows))
    terms = []
    for a, (src, tgt, f) in enumerate(diagram.arrows):
        proj, i_src, i_tgt = (arr_sum.projections[a].matrix, nodes_sum.injections[src].matrix,
                              nodes_sum.injections[tgt].matrix)
        terms.append((i_tgt, f.matrix, proj))
        terms.append((i_src, mat_neg(ring, mat_identity(ring, f.domain.ngens)), proj))
    delta = _dense_sum_map(ring, arr_sum.module, nodes_sum.module, terms)
    coker, proj = cokernel_data(delta)
    cocone = tuple(Morphism(i.domain, coker, mat_mul(ring, proj.matrix, i.matrix))
                   for i in nodes_sum.injections)
    return coker, proj, cocone


@PROPERTY
@given(diagrams())
def test_finite_limit_equals_dense_reference(diagram):
    lim = finite_limit(diagram)
    kernel, incl, cone = dense_limit(diagram)
    assert lim.module == kernel
    assert_same(lim.inclusion, incl)
    assert len(lim.cone) == len(cone)
    for got, want in zip(lim.cone, cone):
        assert_same(got, want)


@PROPERTY
@given(diagrams())
def test_finite_colimit_equals_dense_reference(diagram):
    colim = finite_colimit(diagram)
    coker, proj, cocone = dense_colimit(diagram)
    assert colim.module == coker
    assert_same(colim.projection, proj)
    assert len(colim.cocone) == len(cocone)
    for got, want in zip(colim.cocone, cocone):
        assert_same(got, want)
