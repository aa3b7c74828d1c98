"""Whether a map into a limit is an isomorphism, without the limit.

``coeff.limit_is_iso`` answers on the limit's forest equations: onto and
injective are both counted on the diagonals of coker s and coker delta,
over Z with a free node and a free T on the rank and torsion of coker s
and the rank of delta, and otherwise over Z with a free node the map into
ker delta is analyzed.  These
tests compare its verdict with the one of the canonical map into the built
limit, ``analyze(factor_through_limit(finite_limit(d), legs, dom)).is_iso``,
on every comparison ``verify_wings_tensor`` makes on four instances, and on
false cases built from each comparison.
"""

from functools import lru_cache

import pytest

from templikit import deform
from templikit.coeff import (
    FREE,
    INTEGERS,
    Module,
    Morphism,
    Ring,
    ShapeError,
    analyze,
    direct_sum,
    factor_through_limit,
    finite_limit,
    limit_is_iso,
)
from templikit.constructors import (
    free_templicial,
    nerve,
    sset_nerve_of_poset,
    truncated_polynomial_category,
)

Z = Ring.integers()
F3 = Ring.prime_field(3)
Z8 = Ring.chain(2, 3)
D32 = Ring.dual_chain(3, 2)

INSTANCES = {
    # Y is free over Z, so its pullback squares take the analyzed path
    "Z-p0<p1-N4-Z6": lambda: (
        free_templicial(sset_nerve_of_poset(("p0", "p1"), (("p0", "p1"),), 4), Z, 4),
        Module(Z, (6,)), 4),
    "F3[x]/(x^2)-nerve-N4": lambda: (
        nerve(truncated_polynomial_category(F3, (F3.zero(), F3.zero())), 4),
        Module.free(F3, 2), 4),
    "Z8-3-chain-N3": lambda: (
        free_templicial(sset_nerve_of_poset(
            ("p0", "p1", "p2"), (("p0", "p1"), ("p1", "p2"), ("p0", "p2")), 3), Z8, 3),
        Module(Z8, (1, 2)), 3),
    "F3[e]/(e^2)-nerve-N4": lambda: (
        nerve(truncated_polynomial_category(D32, (D32.uniformizer, D32.zero())), 4),
        Module(D32, (1, FREE)), 4),
}


@lru_cache(maxsize=None)
def _comparisons(name):
    """Every (diagram, legs, domain) that ``verify_wings_tensor`` asks
    ``limit_is_iso`` about on an instance, in order, with its report."""
    x, module, n_max = INSTANCES[name]()
    asked = []

    def recorded(diagram, legs, domain):
        asked.append((diagram, tuple(legs), domain))
        return limit_is_iso(diagram, legs, domain)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(deform, "limit_is_iso", recorded)
        report = deform.verify_wings_tensor(x, module, n_max)
    return report, tuple(asked)


def _outcome(decide):
    try:
        return "verdict", decide()
    except ShapeError as exc:
        return "ShapeError", str(exc)


def _both_paths(diagram, legs, domain):
    """(limit_is_iso outcome, full-path outcome): the verdict, or the message
    of the ShapeError raised."""
    count = _outcome(lambda: limit_is_iso(diagram, legs, domain))
    full = _outcome(lambda: analyze(
        factor_through_limit(finite_limit(diagram), legs, domain)).is_iso)
    return count, full


def _non_unit(ring):
    """2 over the integers, else the characteristic prime p."""
    return ring.from_int(2 if ring.kind == INTEGERS else ring.p)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_matches_full_path_on_every_harness_comparison(name):
    report, asked = _comparisons(name)
    assert report.passed
    diagnostics = report.children[0].items
    # per hom: one wing comparison per truncated wing, and a pullback and a
    # tensored pullback per wing square
    assert len(asked) == sum(1 for i in diagnostics if i.indices[-1] != "wedge-square-commutes")
    for diagram, legs, domain in asked:
        assert _both_paths(diagram, legs, domain) == (("verdict", True),) * 2


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_doubled_domain_through_a_projection_is_not_injective(name):
    checked = 0
    for diagram, legs, domain in _comparisons(name)[1]:
        doubled = direct_sum(diagram.ring, (domain, domain))
        first = doubled.projections[0]
        count, full = _both_paths(diagram, [leg.compose(first) for leg in legs],
                                  doubled.module)
        assert count == full
        if not domain.is_zero:
            assert count == ("verdict", False)
            checked += 1
    assert checked


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_legs_times_a_non_unit_are_not_onto(name):
    checked = 0
    for diagram, legs, domain in _comparisons(name)[1]:
        times = Morphism.identity(domain).scale(_non_unit(diagram.ring))
        count, full = _both_paths(diagram, [leg.compose(times) for leg in legs], domain)
        assert count == full
        if not domain.is_zero:
            assert count == ("verdict", False)
            checked += 1
    assert checked


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_a_proper_summand_of_the_domain_is_not_onto(name):
    """Dropping the first invariant factor of the domain keeps the map
    injective and makes it miss the limit."""
    checked = 0
    for diagram, legs, domain in _comparisons(name)[1]:
        if domain.is_zero:
            continue
        ring = diagram.ring
        summand = Module(ring, domain.factors[1:])
        incl = Morphism(summand, domain, tuple(
            tuple(ring.one() if r == c + 1 else ring.zero() for c in range(summand.ngens))
            for r in range(domain.ngens)))
        count, full = _both_paths(diagram, [leg.compose(incl) for leg in legs], summand)
        assert count == full == ("verdict", False)
        checked += 1
    assert checked


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_a_non_cone_raises_the_full_path_error(name):
    raised = 0
    for diagram, legs, domain in _comparisons(name)[1]:
        if not legs:
            continue
        moved = list(legs)
        moved[-1] = moved[-1] + moved[-1]
        count, full = _both_paths(diagram, moved, domain)
        assert count == full
        raised += count[0] == "ShapeError"
    assert raised
