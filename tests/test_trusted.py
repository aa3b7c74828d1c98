"""Oracle tests for the trusted internal paths.

Operations whose results are valid by construction (compose, +, -, scale,
tensor products, limit and colimit difference maps) skip the checks of
``Morphism(...)``.  Here each is compared, on random valid morphisms over Z
with torsion, Z/p^m, F_p[e]/(e^m), F_p and Q, with the same result built
through the validating constructor.  Limits and colimits, which are solved on
a spanning forest, are compared up to their unique isomorphism with a dense
reference that has one equation block per arrow over the sum of all nodes,
the sparse rows of a limit's difference map are compared with the dense
construction they replaced, and the factorizations through a limit accept
exactly the families of legs that are cones by definition.  Index diagrams,
which keep only covering arrows, are compared with their full order
relation.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from templikit.coeff import (
    FREE,
    Module,
    ModuleDiagram,
    Morphism,
    Ring,
    ShapeError,
    _block_starts,
    _forest_paths,
    _limit_equations,
    _reduce_torsion_rows,
    _spanning_forest,
    _tensor_layout,
    analyze,
    change_basis,
    cokernel_data,
    cokernel_module,
    direct_sum,
    factor_through_colimit,
    factor_through_limit,
    finite_colimit,
    finite_limit,
    kernel_data,
    limit_cokernel,
    limit_is_iso,
    mat_add,
    mat_identity,
    mat_mul,
    mat_neg,
    mat_zero,
    normalize_orders,
    tensor_morphisms,
)
from templikit.constructors import (
    nerve,
    paper_p,
    paper_p_deformed,
    s0_times_2,
    truncated_polynomial_category,
)
from templikit.kan import _limit_over_diagram
from templikit.necklace import (
    IndexDiagram,
    build_diagram,
    fint_maps,
    injective_into_simplex,
    necklace_maps_between,
)
from templikit.templicial import evaluator, hom_necklicial, tensor_external

Z = Ring.integers()
F3 = Ring.prime_field(3)
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
    product = mat_mul(ring, h.matrix, f.matrix, a.ngens)
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


# shapes every diagram strategy draws from, on top of random arrows: the
# spanning forest must handle self-loops, cycles without a free node and
# parallel arrows
SHAPES = ("random", "self-loop", "cycle", "parallel")


@st.composite
def diagrams(draw, ring=None):
    ring = ring or draw(st.sampled_from(RINGS))
    nodes = draw(st.lists(modules(ring), min_size=1, max_size=3))
    if draw(st.booleans()):
        nodes.insert(draw(st.integers(0, len(nodes))), Module.zero(ring))
    last = len(nodes) - 1
    ends = st.integers(0, last)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=4))
    shape = draw(st.sampled_from(SHAPES))
    if shape == "self-loop":
        pairs.append((last, last))
    elif shape == "cycle":
        pairs.extend((i, (i + 1) % len(nodes)) for i in range(len(nodes)))
    elif shape == "parallel":
        pairs.extend([(0, last), (0, last)])
    arrows = tuple((src, tgt, draw(morphisms(nodes[src], nodes[tgt]))) for src, tgt in pairs)
    return ModuleDiagram(ring, tuple(nodes), arrows)


def _dense_sum_map(ring, domain, codomain, terms):
    """Validated morphism with matrix sum(left @ middle @ right) over terms."""
    total = mat_zero(ring, codomain.ngens, domain.ngens)
    for left, middle, right in terms:
        product = mat_mul(ring, mat_mul(ring, left, middle, len(right)), right, domain.ngens)
        total = mat_add(ring, total, product)
    return Morphism(domain, codomain, total)


def dense_limit(diagram):
    """Kernel of sum_a inj_a o (f o pi_src - pi_tgt) over all nodes and
    arrows, from full direct-sum witnesses."""
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
    cone = tuple(Morphism(kernel, p.codomain, mat_mul(ring, p.matrix, incl.matrix, kernel.ngens))
                 for p in nodes_sum.projections)
    return kernel, cone


def dense_colimit(diagram):
    """Cokernel of sum_a (inj_tgt o f - inj_src) o pi_a over all nodes and
    arrows, from full direct-sum witnesses."""
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
    cocone = tuple(Morphism(i.domain, coker, mat_mul(ring, proj.matrix, i.matrix, i.domain.ngens))
                   for i in nodes_sum.injections)
    return coker, cocone


def assert_limit_matches_dense(diagram):
    """The limit equals the dense one up to the unique iso of their cones."""
    lim = finite_limit(diagram)
    kernel, cone = dense_limit(diagram)
    assert lim.module == kernel
    assert len(lim.cone) == len(cone) == len(diagram.nodes)
    for src, tgt, f in diagram.arrows:
        assert f.compose(lim.cone[src]) == lim.cone[tgt]
    u = factor_through_limit(lim, cone, kernel)
    assert analyze(u).is_iso
    for got, want in zip(lim.cone, cone):
        assert_same(got.compose(u), want)


def assert_colimit_matches_dense(diagram):
    """The colimit equals the dense one up to the unique iso of their cocones."""
    colim = finite_colimit(diagram)
    coker, cocone = dense_colimit(diagram)
    assert colim.module == coker
    assert len(colim.cocone) == len(cocone) == len(diagram.nodes)
    for src, tgt, f in diagram.arrows:
        assert colim.cocone[tgt].compose(f) == colim.cocone[src]
    u = factor_through_colimit(colim, cocone, coker)
    assert analyze(u).is_iso
    for got, want in zip(colim.cocone, cocone):
        assert_same(u.compose(got), want)


LIMITS = settings(PROPERTY, max_examples=150)


@LIMITS
@given(diagrams())
def test_finite_limit_equals_dense_reference(diagram):
    assert_limit_matches_dense(diagram)


@LIMITS
@given(diagrams())
def test_finite_colimit_equals_dense_reference(diagram):
    assert_colimit_matches_dense(diagram)


@LIMITS
@given(diagrams(Z))
def test_limits_over_integers_equal_dense_reference(diagram):
    """Over Z, where torsion orders need not be prime powers."""
    assert_limit_matches_dense(diagram)
    assert_colimit_matches_dense(diagram)


def reference_limit_equations(diagram):
    """The dense construction of a limit's difference map that the sparse
    rows replaced: a dense raw matrix, each forest block subtracted entry by
    entry, then one change of basis between the normal forms of F and T.
    Returns (raw, delta)."""
    ring = diagram.ring
    nodes, arrows = diagram.nodes, diagram.arrows
    free, tree, order = _spanning_forest(len(nodes), arrows)
    root, path = _forest_paths(ring, nodes, arrows, tree, order)
    free_sum = direct_sum(ring, [nodes[i] for i in free])
    starts, width = _block_starts(nodes[i] for i in free)
    at = dict(zip(free, starts))
    equations = [(src, tgt, f) for a, (src, tgt, f) in enumerate(arrows) if tree[tgt] != a]
    targets = [nodes[tgt] for _, tgt, _ in equations]
    arrow_at, height = _block_starts(targets)
    arr_mod, arr_to, _ = normalize_orders(ring, [f for m in targets for f in m.factors])
    raw = [[ring.zero()] * width for _ in range(height)]
    for r0, (src, tgt, f) in zip(arrow_at, equations):
        r = root[src]
        lhs = f.matrix if path[src] is None else mat_mul(ring, f.matrix, path[src],
                                                         nodes[r].ngens)
        for k, row in enumerate(lhs):
            raw[r0 + k][at[r]:at[r] + len(row)] = row
        block = path[tgt] or mat_identity(ring, nodes[tgt].ngens)
        c0 = at[root[tgt]]
        for k, row in enumerate(block):
            for c, x in enumerate(row):
                raw[r0 + k][c0 + c] = ring.add(raw[r0 + k][c0 + c], ring.neg(x))
    raw = tuple(map(tuple, raw))
    delta = Morphism._trusted(free_sum.module, arr_mod,
                              change_basis(ring, arr_to, raw, free_sum.from_norm))
    return raw, delta


@LIMITS
@given(diagrams())
def test_sparse_difference_map_equals_dense_reference(diagram):
    """The rows of delta are the dense raw matrix with each row reduced
    modulo its generator's order, and the delta densified from them is the
    dense construction's, entry for entry."""
    ring = diagram.ring
    eq = _limit_equations(diagram)
    raw, delta = reference_limit_equations(diagram)
    assert len(eq.rows) == len(raw) == len(eq.target_orders)
    for row, line, f in zip(eq.rows, raw, eq.target_orders):
        reduced = _reduce_torsion_rows(Module(ring, (f,)), (line,))[0]
        assert row == {j: x for j, x in enumerate(reduced) if not ring.is_zero(x)}
    assert_same(eq.delta, delta)


@st.composite
def perturbed_cones(draw):
    """A diagram, its limit, a module D and a family of legs D -> node_i:
    a cone through the limit with one leg moved by a random map."""
    diagram = draw(diagrams())
    lim = finite_limit(diagram)
    domain = draw(modules(diagram.ring))
    through = draw(morphisms(domain, lim.module))
    legs = [cone.compose(through) for cone in lim.cone]
    k = draw(st.integers(0, len(legs) - 1))
    legs[k] = legs[k] + draw(morphisms(domain, diagram.nodes[k]))
    return diagram, lim, domain, legs


@LIMITS
@given(perturbed_cones())
def test_limit_factorizations_accept_exactly_the_cones(data):
    """The factorization through a limit, ``limit_cokernel`` and
    ``limit_is_iso`` accept a family of legs exactly when it is a cone by
    definition, f o leg_src == leg_tgt for every arrow, and otherwise raise
    the same ShapeError; for an accepted family they give the cokernel and
    the verdict of its factorization."""
    diagram, lim, domain, legs = data
    is_cone = all(f.compose(legs[src]) == legs[tgt] for src, tgt, f in diagram.arrows)
    try:
        u = factor_through_limit(lim, legs, domain)
    except ShapeError as exc:
        assert not is_cone
        for decide in (limit_cokernel, limit_is_iso):
            with pytest.raises(ShapeError) as again:
                decide(diagram, legs, domain)
            assert str(again.value) == str(exc)
        return
    assert is_cone
    assert all(cone.compose(u) == leg for cone, leg in zip(lim.cone, legs))
    assert limit_cokernel(diagram, legs, domain) == cokernel_module(u)
    assert limit_is_iso(diagram, legs, domain) == analyze(u).is_iso


def test_legs_with_the_wrong_endpoints_are_refused():
    """A leg that is not a map from the domain to its node makes no cone.
    Counting alone would read the leg Z --2--> Z/4 to the node Z/2 as a
    map with cokernel Z/2.  Its colimit dual, the leg Z/4 --1--> Z/2 from
    the node Z/2, would factor as the identity."""
    zz, z2, z4 = Module.free(Z, 1), Module(Z, (2,)), Module(Z, (4,))
    diagram = ModuleDiagram(Z, (z2,), ())
    for legs, domain in (([Morphism(zz, z4, ((2,),))], zz),
                         ([Morphism(zz, z2, ((1,),))], z4)):
        for decide in (limit_cokernel, limit_is_iso):
            with pytest.raises(ShapeError, match="leg 0 is not a map"):
                decide(diagram, legs, domain)
        with pytest.raises(ShapeError, match="leg 0 is not a map"):
            factor_through_limit(finite_limit(diagram), legs, domain)
    colim = finite_colimit(diagram)
    for legs, codomain in (([Morphism(z4, z2, ((1,),))], z2),
                           ([Morphism(z2, z2, ((1,),))], z4)):
        with pytest.raises(ShapeError, match="leg 0 is not a map"):
            factor_through_colimit(colim, legs, codomain)
    # with the right endpoints the same maps are a cone and a cocone
    ident = Morphism.identity(z2)
    assert limit_cokernel(diagram, [ident], z2).is_zero
    assert limit_is_iso(diagram, [ident], z2)
    assert factor_through_colimit(colim, [ident], z2) == ident


def test_factorization_rejects_non_cones():
    """Legs that agree on the free nodes but break an arrow are rejected."""
    zz = Module.free(Z, 1)
    double = Morphism(zz, zz, ((2,),))
    diagram = ModuleDiagram(Z, (zz, zz), ((0, 1, double),))
    ident, zero = Morphism.identity(zz), Morphism.zero(zz, zz)
    lim = finite_limit(diagram)
    assert lim.equations.free == (0,)
    assert factor_through_limit(lim, [ident, double], zz) == ident
    with pytest.raises(ShapeError):
        factor_through_limit(lim, [ident, zero], zz)
    with pytest.raises(ShapeError):
        factor_through_limit(lim, [ident], zz)
    colim = finite_colimit(diagram)
    assert colim.free == (1,)
    assert factor_through_colimit(colim, [double, ident], zz) == ident
    with pytest.raises(ShapeError):
        factor_through_colimit(colim, [ident, ident], zz)
    with pytest.raises(ShapeError):
        factor_through_colimit(colim, [ident], zz)


# index diagrams kept to their covering arrows, against their full relation
COVERED = [("horn", 4, 1), ("horn", 4, 2), ("horn", 4, 3), ("wings", 5, None),
           ("degeneracy", 4, None), ("truncated_wings", 5, 3), ("wedge_intersection", 5, 4)]


def full_closure(index):
    """Every composite of the covering arrows, in (source, target) order."""
    arrows = {(i, k): g for i, k, g in index.arrows}
    leaving = {}
    for i, k, g in index.arrows:
        leaving.setdefault(i, []).append((k, g))
    frontier = list(arrows)
    while frontier:
        i, k = frontier.pop()
        for m, h in leaving.get(k, ()):
            composite = h.compose(arrows[(i, k)])
            if (i, m) in arrows:
                assert arrows[(i, m)] == composite  # a poset: parallel paths agree
            else:
                arrows[(i, m)] = composite
                frontier.append((i, m))
    return tuple((i, k, arrows[(i, k)]) for i, k in sorted(arrows))


def brute_force_relation(index):
    """Every arrow between two objects, found by enumerating all maps."""
    if index.kind == "degeneracy":
        def between(si, sk):
            return [t for t in fint_maps(si.target_dim, sk.target_dim) if t.compose(si) == sk]
    else:
        def between(fi, fk):
            return [g for g in necklace_maps_between(fi.source, fk.source)
                    if fk.compose(g) == fi]
    out = []
    for i, oi in enumerate(index.objects):
        for k, ok in enumerate(index.objects):
            found = between(oi, ok) if i != k else []
            assert len(found) <= 1
            out.extend((i, k, g) for g in found)
    return tuple(out)


@pytest.mark.parametrize("kind,n,extra", COVERED)
def test_covering_arrows_generate_the_index_poset(kind, n, extra):
    index = build_diagram(kind, n, extra)
    closure = full_closure(index)
    assert closure == brute_force_relation(index)
    assert (len(index.arrows), len(closure)) == {
        "horn": (44, 64), "truncated_wings": (9, 12), "wedge_intersection": (9, 12),
    }.get(kind, (28, 50))


def hasse(relation):
    """The covering arrows among all arrows (i, k, g) of a finite poset:
    those that are no composite i -> m -> k."""
    above = {}
    for i, k, _ in relation:
        above.setdefault(i, set()).add(k)
    return tuple((i, k, g) for i, k, g in relation
                 if not any(k in above.get(m, ()) for m in above[i] - {k}))


@lru_cache(maxsize=None)
def simplex_relation(n):
    """Every arrow among all injective necklace maps into Delta^n: the
    horn and wing kinds take their objects from these."""
    objects = injective_into_simplex(n)
    return objects, brute_force_relation(IndexDiagram("horn", objects, ()))


EVERY_DIAGRAM = [(kind, n, extra) for n in range(1, 6) for kind, extras in (
    ("horn", range(1, n)), ("wings", [None] if n >= 2 else []),
    ("truncated_wings", range(n)), ("wedge_intersection", range(1, n)),
    ("degeneracy", [None])) for extra in extras]


@pytest.mark.parametrize("kind,n,extra", EVERY_DIAGRAM)
def test_index_arrows_are_the_hasse_arrows_of_the_brute_force_relation(kind, n, extra):
    index = build_diagram(kind, n, extra)
    if kind == "degeneracy":
        relation = brute_force_relation(index)
    else:
        everything, arrows = simplex_relation(n)
        position = {f: k for k, f in enumerate(index.objects)}
        renamed = [position.get(f) for f in everything]
        relation = tuple(sorted(
            ((renamed[i], renamed[k], g) for i, k, g in arrows
             if renamed[i] is not None and renamed[k] is not None),
            key=lambda arrow: arrow[:2]))
    assert hasse(relation) == index.arrows


@pytest.fixture(scope="module")
def necklicial_corpus():
    """Hom necklicial modules over F3, F2 and Z/6 (the last up to level 5)."""
    dual = nerve(truncated_polynomial_category(F3, (F3.zero(), F3.zero())), 4)
    return [hom_necklicial(dual, "*", "*"),
            hom_necklicial(paper_p(4), "a", "c"),
            tensor_external(hom_necklicial(s0_times_2(5), "*", "*"), Module(Z, (6,)))]


@pytest.mark.parametrize("kind,n,extra", COVERED[:4])
def test_covering_limits_equal_full_closure_limits(necklicial_corpus, kind, n, extra):
    index = build_diagram(kind, n, extra)
    full = IndexDiagram(kind, index.objects, full_closure(index))
    for y in necklicial_corpus:
        if n > y.max_level:
            continue
        covering, closed = _limit_over_diagram(y, index), _limit_over_diagram(y, full)
        assert covering.module == closed.module
        u = factor_through_limit(closed, covering.cone, covering.module)
        assert analyze(u).is_iso
        legs = [y.action(obj) for obj in index.objects]
        assert u.compose(factor_through_limit(covering, legs, y.level(n))) == \
            factor_through_limit(closed, legs, y.level(n))


def degeneracy_colimits(x, n, index):
    """(colimit, canonical map to X_n(a, b)) per hom over a degeneracy diagram."""
    ev = evaluator(x)
    for a in x.vertices:
        for b in x.vertices:
            nodes = tuple(x.level_quiver(s.target_dim).hom(a, b) for s in index.objects)
            arrows = tuple((k, i, ev.fint_morphism(tau).comp(a, b))
                           for i, k, tau in index.arrows)
            colim = finite_colimit(ModuleDiagram(x.ring, nodes, arrows))
            legs = [ev.fint_morphism(s).comp(a, b) for s in index.objects]
            yield colim, factor_through_colimit(colim, legs, x.level_quiver(n).hom(a, b))


def test_covering_colimits_equal_full_closure_colimits():
    index = build_diagram("degeneracy", 4)
    full = IndexDiagram("degeneracy", index.objects, full_closure(index))
    for x in (paper_p(4), paper_p_deformed(4)[1], s0_times_2(4)):
        for (covering, can), (closed, can_closed) in zip(degeneracy_colimits(x, 4, index),
                                                         degeneracy_colimits(x, 4, full)):
            assert covering.module == closed.module
            u = factor_through_colimit(covering, closed.cocone, closed.module)
            assert analyze(u).is_iso
            assert can_closed.compose(u) == can
