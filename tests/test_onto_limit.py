"""The cokernel of Y_n -> lim on a horn or wings limit, without the limit.

``coeff.limit_cokernel`` works on the limit's forest equations: an onto map
costs two diagonal-only cokernels, of the free legs s and of the difference
map delta, whose lengths it compares (over Z with free values, the rank and
torsion of coker s against the rank of delta); otherwise it reads the
cokernel off the kernel of delta.  These tests compare the cokernel it returns, the
witness and not only the verdict, with the one of the canonical map into
the built limit on every horn and wings item of a corpus over five ring
kinds, and on mutants with one perturbed action.
"""

import pytest

from templikit import coeff, deform, kan
from templikit.coeff import (
    InvalidInstanceError,
    Module,
    Morphism,
    Ring,
    RingExtension,
    ShapeError,
    analyze,
    cokernel_module,
    factor_through_limit,
    finite_limit,
    limit_cokernel,
    limit_is_iso,
)
from templikit.constructors import (
    free_templicial,
    nerve,
    paper_p,
    paper_p_deformed,
    s0_times_2,
    sset_nerve_of_poset,
    truncated_polynomial_category,
)
from templikit.deform import base_change_templicial, verify_wings_tensor
from templikit.kan import (
    _module_diagram,
    check_lifts_wings,
    check_quasicategory,
    check_weak_kan,
)
from templikit.necklace import build_diagram
from templikit.templicial import NecklicialModule, hom_necklicial, tensor_external

F3 = Ring.prime_field(3)
D32 = Ring.dual_chain(3, 2)
Z = Ring.integers()
Z8 = Ring.chain(2, 3)


def _homs(x):
    return [hom_necklicial(x, a, b) for a in x.vertices for b in x.vertices]


def _dual_numbers_nerve(n):
    return nerve(truncated_polynomial_category(F3, (F3.zero(), F3.zero())), n)


def _deformed_dual_numbers_nerve(n):
    return nerve(truncated_polynomial_category(D32, (D32.uniformizer, D32.zero())), n)


def _z8_chain():
    """A nerve over Z/8 and the free templicial module on p0 < p1, with its
    base change to Z/4."""
    poset = free_templicial(sset_nerve_of_poset(("p0", "p1"), (("p0", "p1"),), 3), Z8, 3)
    return (_homs(nerve(truncated_polynomial_category(Z8, (2, 4)), 3)) + _homs(poset)
            + _homs(base_change_templicial(RingExtension(Z8, Ring.chain(2, 2)), poset)))


CORPUS = {
    "F3-nerve-3": lambda: _homs(_dual_numbers_nerve(3)),
    "F3-nerve-4": lambda: _homs(_dual_numbers_nerve(4)),
    "D32-nerve-3": lambda: _homs(_deformed_dual_numbers_nerve(3)),
    "D32-nerve-4": lambda: _homs(_deformed_dual_numbers_nerve(4)),
    "paper-p-4": lambda: _homs(paper_p(4)),
    "s0-times-2-Z6": lambda: [tensor_external(y, Module(Z, (6,)))
                              for y in _homs(s0_times_2(4))],
    "paper-P-deformed-4": lambda: _homs(paper_p_deformed(4)[1]) + _homs(paper_p_deformed(4)[2]),
    "Z8-chain": _z8_chain,
}


def _items(y):
    for n in range(2, y.max_level + 1):
        for j in range(1, n):
            yield "horn", n, (j,)
        yield "wings", n, ()


def _outcome(decide):
    try:
        return "cokernel", decide()
    except ShapeError as exc:
        return "ShapeError", str(exc)


def _both_paths(y, kind, n, extra):
    """(limit_cokernel outcome, full-path outcome) of one item: the cokernel
    of Y_n -> lim, or the message of the ShapeError raised."""
    diagram = build_diagram(kind, n, *extra)
    modules = _module_diagram(y, diagram)
    legs = [y.action(obj) for obj in diagram.objects]
    count = _outcome(lambda: limit_cokernel(modules, legs, y.level(n)))
    full = _outcome(lambda: cokernel_module(
        factor_through_limit(finite_limit(modules), legs, y.level(n))))
    return count, full


def _passes(outcome):
    return outcome[0] == "cokernel" and outcome[1].is_zero


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_count_matches_full_path(name):
    checked = 0
    for y in CORPUS[name]():
        for kind, n, extra in _items(y):
            count, full = _both_paths(y, kind, n, extra)
            assert count == full, (kind, n, extra)
            assert count[0] == "cokernel"
            checked += 1
    assert checked


def test_paper_p_count_fails_only_at_a_c_2_1():
    x = paper_p(4)
    failing = []
    for a in x.vertices:
        for b in x.vertices:
            y = hom_necklicial(x, a, b)
            for kind, n, extra in _items(y):
                count, full = _both_paths(y, kind, n, extra)
                assert count == full
                if kind == "horn" and n <= 3 and not _passes(count):
                    failing.append((a, b, n) + extra)
    assert failing == [("a", "c", 2, 1)]


def test_integers_with_free_values_count_passing_items(monkeypatch):
    """Over Z with free values and a free T, a passing item is counted (coker
    s torsion-free of rank rank_Q(delta)) and takes no witness and no
    cokernel of one.  The failing item takes exactly one witness, the map
    into the kernel of delta that the full path factors, and exactly one
    cokernel, of that witness, equal to the full path's."""
    y = hom_necklicial(s0_times_2(3), "*", "*")
    report = check_weak_kan(y, 3)
    assert [(i.indices, i.passed) for i in report.items] == [
        ((2, 1), False), ((3, 1), True), ((3, 2), True)]
    witnesses, taken = [], []
    witness = coeff._witness

    def spied_witness(eq, s, domain):
        witnesses.append(witness(eq, s, domain))
        return witnesses[-1]

    def spied_cokernel(f):
        taken.append(f)
        return cokernel_module(f)

    monkeypatch.setattr(coeff, "_witness", spied_witness)
    monkeypatch.setattr(coeff, "cokernel_module", spied_cokernel)
    for item in report.items:
        n, extra = item.indices[0], item.indices[1:]
        witnesses.clear()
        taken.clear()
        count, full = _both_paths(y, "horn", n, extra)
        assert count == full and _passes(count) == item.passed
        if item.passed:
            assert witnesses == taken == []
            continue
        diagram = build_diagram("horn", n, *extra)
        limit = finite_limit(_module_diagram(y, diagram))
        legs = [y.action(obj) for obj in diagram.objects]
        assert witnesses == taken == [factor_through_limit(limit, legs, y.level(n))]
        assert count[1] == Module(Z, (2,))


def _mutant(y, target, change):
    """``y`` with the action of the necklace map ``target`` replaced by
    ``change(action)``."""
    def source(f):
        act = y.action(f)
        return change(act) if f == target else act
    return NecklicialModule(y.ring, y.max_level, dict(y.values), source, y._maps)


def _doubled(act):
    return act + act


def _zeroed(act):
    return Morphism.zero(act.domain, act.codomain)


@pytest.mark.parametrize("change", [_doubled, _zeroed], ids=["doubled", "zeroed"])
@pytest.mark.parametrize("kind,n,extra", [("horn", 3, (1,)), ("horn", 3, (2,)),
                                          ("wings", 3, ())])
def test_mutants_fail_or_break_the_cone_on_both_paths(change, kind, n, extra):
    """Perturbing the action of one diagram object or arrow makes the item
    fail, or stop being a cone, the same way on both paths."""
    y = hom_necklicial(_dual_numbers_nerve(3), "*", "*")
    diagram = build_diagram(kind, n, *extra)
    maps = [obj for obj in diagram.objects] + [g for _, _, g in diagram.arrows]
    outcomes = set()
    for target in maps:
        mutant = _mutant(y, target, change)
        count, full = _both_paths(mutant, kind, n, extra)
        assert count == full, target
        outcomes.add(count)
    # the unperturbed item passes; some mutant of it does not
    assert _passes(_both_paths(y, kind, n, extra)[0])
    assert any(not _passes(outcome) for outcome in outcomes)


@pytest.mark.parametrize("kind,n,extra", [("horn", 3, (1,)), ("horn", 3, (2,)),
                                          ("wings", 3, ())])
def test_legs_through_a_proper_summand_fail_on_both_paths(kind, n, extra):
    """Precomposing every leg with the projection of Y_n onto a proper
    summand keeps a cone, and shrinks the image below the limit.  The
    mutant is not functorial, so the public checkers refuse it."""
    y = hom_necklicial(_dual_numbers_nerve(3), "*", "*")
    top = y.level(n)
    keep = Morphism(top, top, tuple(
        tuple(F3.one() if r == c and r else F3.zero() for c in range(top.ngens))
        for r in range(top.ngens)))
    legs_into = {obj.target for obj in build_diagram(kind, n, *extra).objects}
    mutant = NecklicialModule(
        y.ring, y.max_level, dict(y.values),
        lambda f: y.action(f).compose(keep) if f.target in legs_into else y.action(f))
    count, full = _both_paths(mutant, kind, n, extra)
    assert count == full and count[0] == "cokernel" and not _passes(count)
    check = check_weak_kan if kind == "horn" else check_lifts_wings
    with pytest.raises(InvalidInstanceError, match="necklicial module failed validation"):
        check(mutant, n)


def test_failing_item_reports_the_full_path_cokernel():
    y = hom_necklicial(paper_p(3), "a", "c")
    item = next(i for i in check_weak_kan(y, 3).items if not i.passed)
    diagram = build_diagram("horn", 2, 1)
    limit = finite_limit(_module_diagram(y, diagram))
    legs = [y.action(obj) for obj in diagram.objects]
    assert item.cokernel == cokernel_module(factor_through_limit(limit, legs, y.level(2)))


@pytest.mark.parametrize("build", [_dual_numbers_nerve, _deformed_dual_numbers_nerve],
                         ids=["F3", "F3[e]/(e^2)"])
def test_passing_item_runs_no_smith(monkeypatch, build):
    """Each passing item takes one cokernel of s and one of delta, both on
    their sparse rows, and neither makes a dense Smith run."""
    y = hom_necklicial(build(4), "*", "*")
    # evaluates every action the check reads
    assert check_weak_kan(y, 4).passed
    per_item = []
    smith, cokernel, diagram = coeff.smith, coeff._cokernel_of_rows, kan.build_diagram

    def counted_smith(ring, matrix, **kwargs):
        per_item[-1].append("smith")
        return smith(ring, matrix, **kwargs)

    def counted_cokernel(ring, rows, orders, width):
        per_item[-1].append("cokernel")
        return cokernel(ring, rows, orders, width)

    def item_start(*args):
        per_item.append([])
        return diagram(*args)

    monkeypatch.setattr(coeff, "smith", counted_smith)
    monkeypatch.setattr(coeff, "_cokernel_of_rows", counted_cokernel)
    monkeypatch.setattr(kan, "build_diagram", item_start)
    report = check_weak_kan(y, 4)
    assert report.passed
    assert per_item == [["cokernel"] * 2] * 6


@pytest.mark.parametrize("kind,n,extra", [("horn", 4, (2,)), ("wings", 4, ())])
def test_passing_item_stays_sparse(monkeypatch, kind, n, extra):
    """A passing horn or wings item is decided on the sparse rows of s and
    delta: it builds no direct sum, normalizes no orders and builds no
    delta morphism."""
    y = hom_necklicial(_deformed_dual_numbers_nerve(4), "*", "*")
    diagram = build_diagram(kind, n, *extra)
    modules = _module_diagram(y, diagram)
    legs = [y.action(obj) for obj in diagram.objects]
    is_iso = analyze(factor_through_limit(finite_limit(modules), legs, y.level(n))).is_iso
    calls = []
    for name in ("direct_sum", "normalize_orders", "_delta_map"):
        def spied(*args, name=name, run=getattr(coeff, name)):
            calls.append(name)
            return run(*args)

        monkeypatch.setattr(coeff, name, spied)
    assert limit_cokernel(modules, legs, y.level(n)).is_zero
    assert limit_is_iso(modules, legs, y.level(n)) == is_iso
    assert calls == []


def test_quasicategory_report_unchanged_on_paper_p():
    report = check_quasicategory(paper_p(3), 3)
    failures = [i for i in report.items if not i.passed]
    assert [str(i) for i in failures] == [
        "('a', 'c', 2, 1): FAIL [canonical map not surjective] cokernel F2"]


def _limit_builds(monkeypatch):
    """A list that records, for every difference map built from a
    necklicial module's index diagram, the pair (module, index diagram) by
    identity: distinct diagrams can be equal, as the empty truncated wings
    at every n are."""
    builds, tags = [], {}
    module_diagram, equations = kan._module_diagram, coeff._limit_equations

    def tagged(y, diagram):
        modules = module_diagram(y, diagram)
        # kept alive, so that no id is reused
        tags[id(modules)] = (modules, y, diagram)
        return modules

    def recorded(modules):
        kept, y, diagram = tags.get(id(modules), (None, None, None))
        if kept is modules:
            builds.append((id(y), id(diagram)))
        return equations(modules)

    monkeypatch.setattr(kan, "_module_diagram", tagged)
    monkeypatch.setattr(deform, "_module_diagram", tagged)
    monkeypatch.setattr(coeff, "_limit_equations", recorded)
    return builds


def test_wings_tensor_builds_each_limit_once(monkeypatch):
    """Each truncated wing of Y and of Y (x) M, each horn and each wedge
    intersection is solved once."""
    poset = free_templicial(sset_nerve_of_poset(("p0", "p1"), (("p0", "p1"),), 4), Z, 4)
    builds = _limit_builds(monkeypatch)
    assert verify_wings_tensor(poset, Module(Z, (6,)), 4).passed
    assert len(set(builds)) == len(builds)
    # per hom: 6 horns of Y and of Y (x) M, 9 truncated wings of each, and
    # 6 wedge intersections
    assert len(builds) == 4 * (6 + 6 + 9 + 9 + 6)


def test_failing_item_builds_its_limit_equations_once(monkeypatch):
    y = hom_necklicial(paper_p(3), "a", "c")
    builds = _limit_builds(monkeypatch)
    report = check_weak_kan(y, 3)
    assert len(set(builds)) == len(builds) == len(report.items) == 3
    assert [str(i) for i in report.items if not i.passed] == [
        "(2, 1): FAIL [canonical map not surjective] cokernel F2"]
