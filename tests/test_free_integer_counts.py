"""Counting over Z with free nodes, against the full path and sympy.

Over the integers with a free node and every generator of T free,
``coeff.limit_cokernel`` and ``coeff.limit_is_iso`` decide a horn or wings
item without a witness: Y_n maps onto ker delta iff C = coker(s: Y_n -> F)
is torsion-free and rank C = rank_Q(delta), and a free Y_n injects iff
rank F - rank C = rank Y_n.  Each item below is checked three ways: the
counted verdicts equal those of the full path (``finite_limit``, then the
factorization and ``analyze``); rank_Q(delta) equals sympy's
``Matrix.rank()``; and C is torsion-free exactly when sympy's invariant
factors of the presentation [s | order columns] are all 0 or 1.  The items
are every horn and wings item of free templicial modules over Z on poset
nerves and of ``s0_times_2``, mutants with one doubled action, and random
pullbacks and equalizers whose free nodes carry torsion.
"""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from templikit import coeff
from templikit.coeff import (
    FREE,
    Module,
    ModuleDiagram,
    Morphism,
    Ring,
    ShapeError,
    _cokernel_of_rows,
    _cone_on_forest,
    _counted_cone,
    _limit_equations,
    _rank_over_q,
    analyze,
    cokernel_module,
    factor_through_limit,
    finite_limit,
    limit_cokernel,
    limit_is_iso,
)
from templikit.constructors import free_templicial, s0_times_2, sset_nerve_of_poset
from templikit.deform import verify_wings_tensor
from templikit.kan import _module_diagram
from templikit.necklace import build_diagram
from templikit.templicial import NecklicialModule, hom_necklicial

sympy = pytest.importorskip("sympy", reason="sympy is the independent rank and Smith oracle")
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

Z = Ring.integers()
SYMPY_SIZE = 12
PROPERTY = settings(max_examples=120)

POSETS = {
    "p0<p1": (("p0", "p1"), (("p0", "p1"),)),
    "p0<p1<p2": (("p0", "p1", "p2"), (("p0", "p1"), ("p1", "p2"))),
    "p0<p1>p2": (("p0", "p1", "p2"), (("p0", "p1"), ("p2", "p1"))),
}


def _homs(x):
    return [hom_necklicial(x, a, b) for a in x.vertices for b in x.vertices]


CORPUS = {
    **{f"free-{name}-4": (lambda poset=poset: _homs(
        free_templicial(sset_nerve_of_poset(*poset, 4), Z, 4))) for name, poset in POSETS.items()},
    "s0-times-2-3": lambda: _homs(s0_times_2(3)),
    "s0-times-2-4": lambda: _homs(s0_times_2(4)),
}


def _items(y):
    for n in range(2, y.max_level + 1):
        for j in range(1, n):
            yield "horn", n, (j,)
        yield "wings", n, ()


def _item(y, kind, n, extra):
    diagram = build_diagram(kind, n, *extra)
    return (_module_diagram(y, diagram), [y.action(obj) for obj in diagram.objects],
            y.level(n))


def _outcome(decide):
    try:
        return "ok", decide()
    except ShapeError as exc:
        return "ShapeError", str(exc)


def _dense(rows, columns):
    return [[row.get(j, 0) for j in columns] for row in rows]


def _free_columns_rank(eq):
    """rank_Q(delta) by sympy, on the free columns of F; delta must vanish
    on the torsion columns."""
    orders = eq.free_orders
    free = [j for j, f in enumerate(orders) if f == FREE]
    assert all(orders[j] == FREE for row in eq.rows for j in row), "delta on a torsion column"
    return sympy.Matrix(_dense(eq.rows, free)).rank() if eq.rows and free else 0


def _sympy_torsion_free(s, orders, width):
    """Whether coker [s | order columns] is torsion-free, by sympy's
    invariant factors over ZZ; None above the oracle's size."""
    torsion = [i for i, f in enumerate(orders) if f != FREE]
    cols = width + len(torsion)
    if not 0 < len(orders) <= SYMPY_SIZE or not 0 < cols <= SYMPY_SIZE:
        return None
    matrix = [row + [orders[i] if i == t else 0 for t in torsion]
              for i, row in enumerate(_dense(s, range(width)))]
    factors = invariant_factors(sympy.Matrix(matrix), domain=sympy.ZZ)
    return all(abs(int(d)) in (0, 1) for d in factors)


def check_item(modules, legs, domain):
    """Compare one item with the full path and the sympy oracles.  Returns
    (counted outcome, whether the counting decided it, whether sympy
    checked coker s)."""
    def counted():
        return limit_cokernel(modules, legs, domain), limit_is_iso(modules, legs, domain)

    def full():
        u = factor_through_limit(finite_limit(modules), legs, domain)
        return cokernel_module(u), analyze(u).is_iso

    count = _outcome(counted)
    assert count == _outcome(full)
    if count[0] != "ok":
        return count, False, False
    eq = _limit_equations(modules)
    s = _cone_on_forest(eq, legs, domain)
    onto, injective, _ = _counted_cone(modules, legs, domain)
    decided = onto is not None
    if any(node.rank for node in modules.nodes) and all(f == FREE for f in eq.target_orders):
        assert decided
        assert onto == count[1][0].is_zero
        if domain.rank == domain.ngens:
            u = factor_through_limit(finite_limit(modules), legs, domain)
            assert injective == analyze(u).injective
    assert _rank_over_q(eq.rows) == _free_columns_rank(eq)
    coker_s = _cokernel_of_rows(Z, s, eq.free_orders, domain.ngens)
    oracle = _sympy_torsion_free(s, eq.free_orders, domain.ngens)
    if oracle is not None:
        assert (coker_s.rank == coker_s.ngens) == oracle
    return count, decided, oracle is not None


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_items_are_counted_as_on_the_full_path(name):
    decided = by_sympy = failing = 0
    for y in CORPUS[name]():
        for kind, n, extra in _items(y):
            count, counted, checked = check_item(*_item(y, kind, n, extra))
            assert count[0] == "ok"
            decided += counted
            by_sympy += checked
            failing += not count[1][0].is_zero
    assert decided and by_sympy
    # s0_times_2 fails its horn (2, 1) with Z/2; the free modules lift every horn
    assert bool(failing) == name.startswith("s0")


def _mutant(y, target, change):
    def source(f):
        act = y.action(f)
        return change(act) if f == target else act
    return NecklicialModule(y.ring, y.max_level, dict(y.values), source, y._maps)


@pytest.mark.parametrize("poset", sorted(POSETS))
def test_doubled_actions_give_z2_on_both_paths(poset):
    """Doubling the action of one object or arrow of an item's diagram
    breaks the cone or makes the item fail, the same way on both paths;
    some doubled action leaves a cone with cokernel Z/2."""
    x = free_templicial(sset_nerve_of_poset(*POSETS[poset], 3), Z, 3)
    outcomes = []
    for y in _homs(x):
        for kind, n, extra in _items(y):
            diagram = build_diagram(kind, n, *extra)
            maps = list(diagram.objects) + [g for _, _, g in diagram.arrows]
            for target in maps:
                mutant = _mutant(y, target, lambda act: act + act)
                outcomes.append(check_item(*_item(mutant, kind, n, extra))[0])
    z2 = ("ok", (Module(Z, (2,)), False))
    assert z2 in outcomes
    assert any(kind == "ShapeError" for kind, _ in outcomes)


# -- random pullbacks and equalizers over Z, torsion allowed in F ----------

ROOT_FACTORS = [(FREE,), (FREE, FREE), (2, FREE), (3, FREE, FREE), (2, 4, FREE), (2,), (6,)]
DOMAIN_FACTORS = [(), (FREE,), (FREE, FREE), (FREE, FREE, FREE), (2, FREE), (3,)]


@st.composite
def _maps(draw, domain, codomain):
    """A random morphism: each entry a small integer times the least
    multiple that makes it congruence-valid."""
    matrix = []
    for o in codomain.factors:
        row = []
        for d in domain.factors:
            x = draw(st.integers(-3, 3))
            if d != FREE:
                x = 0 if o == FREE else x * (o // gcd(o, d))
            row.append(x)
        matrix.append(tuple(row))
    return Morphism(domain, codomain, tuple(matrix))


@st.composite
def _cones(draw):
    """A pullback a -> t <- b or an equalizer a => t over Z, with T = t free
    and roots that may carry torsion, and a cone from a random map into its
    limit."""
    t = Module.free(Z, draw(st.integers(0, 3)))
    a = Module(Z, draw(st.sampled_from(ROOT_FACTORS)))
    if draw(st.booleans()):
        b = Module(Z, draw(st.sampled_from(ROOT_FACTORS)))
        nodes = (a, b, t)
        arrows = ((0, 2, draw(_maps(a, t))), (1, 2, draw(_maps(b, t))))
    else:
        nodes = (a, t)
        arrows = ((0, 1, draw(_maps(a, t))), (0, 1, draw(_maps(a, t))))
    diagram = ModuleDiagram(Z, nodes, arrows)
    limit = finite_limit(diagram)
    domain = Module(Z, draw(st.sampled_from(DOMAIN_FACTORS)))
    u = draw(_maps(domain, limit.module))
    return diagram, [leg.compose(u) for leg in limit.cone], domain


@PROPERTY
@given(_cones())
def test_random_cones_with_torsion_in_f_are_counted_as_on_the_full_path(case):
    diagram, legs, domain = case
    count, decided, _ = check_item(diagram, legs, domain)
    # T is free, so the counting decides: by ranks and torsion when a node
    # has a free summand, by orders when none has
    assert count[0] == "ok" and decided


def test_torsion_in_f_is_counted():
    """A pullback whose root a = Z/2 + Z maps onto T = Z along its free
    generator, with b = Z mapping by 2: the limit is Z/2 + Z.  Its own cone
    is counted onto (its injectivity, from a domain with torsion, is
    analyzed); twice that cone is counted not onto, with cokernel
    Z/2 + Z/2."""
    a, b, t = Module(Z, (2, FREE)), Module.free(Z, 1), Module.free(Z, 1)
    diagram = ModuleDiagram(Z, (a, b, t), (
        (0, 2, Morphism(a, t, ((0, 1),))), (1, 2, Morphism(b, t, ((2,),)))))
    limit = finite_limit(diagram)
    assert limit.module == Module(Z, (2, FREE))
    eq = _limit_equations(diagram)
    assert eq.free_orders == (2, FREE, FREE)
    legs = list(limit.cone)
    ident = Morphism.identity(limit.module)
    assert _counted_cone(diagram, legs, limit.module)[:2] == (True, None)
    assert limit_is_iso(diagram, legs, limit.module)
    doubled = [leg.compose(ident + ident) for leg in legs]
    assert _counted_cone(diagram, doubled, limit.module)[0] is False
    assert limit_cokernel(diagram, doubled, limit.module) == Module(Z, (2, 2))
    assert not limit_is_iso(diagram, doubled, limit.module)
    check_item(diagram, legs, limit.module)
    check_item(diagram, doubled, limit.module)


def test_wings_tensor_over_z_takes_no_witness(monkeypatch):
    """Every horn of the free module over Z and of its tensor with Z/6,
    and every wing square, is decided by counting: the wings-tensor harness
    passes without one witness."""
    def no_witness(*args):
        raise AssertionError("a witness was taken")

    monkeypatch.setattr(coeff, "_witness", no_witness)
    x = free_templicial(sset_nerve_of_poset(*POSETS["p0<p1"], 4), Z, 4)
    assert verify_wings_tensor(x, Module(Z, (6,)), 4).passed
