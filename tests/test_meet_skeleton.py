"""The meet skeleton of a horn or wings index diagram, against the full one.

``necklace.meet_skeleton`` keeps the maximal objects of ``build_diagram``
and the maximal common lower bounds of pairs of them, with an arrow from
each maximal object down to each kept object below it.  The checkers take
their limits over it, which is right only for a functor.  These tests check
its objects and arrows against the order of the full diagram, worked out
here from the covering arrows alone; check that the limit and the cokernel
of Y_n -> lim are the same on both diagrams over a corpus of valid modules,
and that the checkers, which trust the validated functor and check no cone,
report the cokernel of the public ``limit_cokernel``; and check that a
module that is not functorial is refused before a skeleton is read.
"""

from itertools import combinations

import pytest

from templikit import coeff, kan
from templikit.coeff import (
    InvalidInstanceError,
    Module,
    Ring,
    RingExtension,
    ShapeError,
    finite_limit,
    limit_cokernel,
)
from templikit.constructors import (
    free_templicial,
    generate,
    nerve,
    paper_p,
    s0_times_2,
    sset_nerve_of_poset,
    truncated_polynomial_category,
)
from templikit.deform import build_extension, extension_sequence
from templikit.kan import (
    _module_diagram,
    check_lifts_wings,
    check_quasicategory,
    check_weak_kan,
)
from templikit.necklace import build_diagram, meet_skeleton
from templikit.templicial import NecklicialModule, hom_necklicial, tensor_external

F3 = Ring.prime_field(3)
D32 = Ring.dual_chain(3, 2)
Z = Ring.integers()

SHAPES = [("horn", n, j) for n in range(2, 8) for j in range(1, n)] + \
         [("wings", n, None) for n in range(2, 8)]


def _ids(shape):
    kind, n, extra = shape
    return f"{kind}-{n}" + ("" if extra is None else f"-{extra}")


def _order(diagram):
    """For every object, the set of objects at or below it, as bits, from
    the transitive closure of the covering arrows (i, k): i below k."""
    size = len(diagram.objects)
    above = [[] for _ in range(size)]
    for i, k, _ in diagram.arrows:
        above[i].append(k)
    below = [1 << t for t in range(size)]
    changed = True
    while changed:
        changed = False
        for i in range(size):
            for k in above[i]:
                if below[k] | below[i] != below[k]:
                    below[k] |= below[i]
                    changed = True
    return below


def _bits(mask):
    return [t for t in range(mask.bit_length()) if mask >> t & 1]


@pytest.mark.parametrize("shape", SHAPES, ids=_ids)
def test_skeleton_is_the_maximal_objects_and_their_maximal_common_lower_bounds(shape):
    kind, n, extra = shape
    full, skeleton = build_diagram(kind, n, extra), meet_skeleton(kind, n, extra)
    below = _order(full)
    size = len(full.objects)
    tops = [r for r in range(size)
            if not any(r != k and below[k] >> r & 1 for k in range(size))]
    # every object lies below a maximal one
    assert all(any(below[r] >> t & 1 for r in tops) for t in range(size))
    expected = set(tops)
    for a, b in combinations(tops, 2):
        common = below[a] & below[b]
        expected.update(t for t in _bits(common)
                        if not any(u != t and below[u] >> t & 1 for u in _bits(common)))
    position = {f: k for k, f in enumerate(full.objects)}
    kept = [position[f] for f in skeleton.objects]
    # a subset of the full objects, in their order, and exactly the rule's
    assert kept == sorted(expected)
    # its maximal objects (no arrow leaves them) are exactly the full ones
    sources = {i for i, _, _ in skeleton.arrows}
    assert [kept[i] for i in range(len(kept)) if i not in sources] == tops
    # one arrow from each maximal r down to each other kept object below it
    assert [(i, k) for i, k, _ in skeleton.arrows] == [
        (i, k) for i, t in enumerate(kept) for k, r in enumerate(kept)
        if r in tops and r != t and below[r] >> t & 1]
    for i, k, g in skeleton.arrows:
        assert skeleton.objects[k].compose(g) == skeleton.objects[i]
    assert skeleton.kind == kind


def test_skeleton_sizes():
    sizes = {shape: (len(meet_skeleton(*shape).objects), len(meet_skeleton(*shape).arrows))
             for shape in [("horn", 4, 2), ("horn", 6, 3), ("horn", 7, 3), ("wings", 6)]}
    assert sizes == {("horn", 4, 2): (13, 16), ("horn", 6, 3): (41, 64),
                     ("horn", 7, 3): (61, 100), ("wings", 6): (15, 20)}


@pytest.mark.parametrize("kind,n,extra", [("truncated_wings", 3, 1), ("degeneracy", 2, None),
                                          ("horn", 3, 3), ("wings", 1, None)])
def test_other_kinds_and_bad_indices_are_refused(kind, n, extra):
    with pytest.raises(ShapeError):
        meet_skeleton(kind, n, extra)


# ---------------------------------------------------------------------------
# limits over the skeleton and over the full diagram
# ---------------------------------------------------------------------------


def _homs(x):
    return [hom_necklicial(x, a, b) for a in x.vertices for b in x.vertices]


def _nerve(ring, coeffs, n):
    return nerve(truncated_polynomial_category(ring, coeffs), n)


def _extension_terms():
    """The sub, total and quotient terms of the extension sequence of the
    deformed dual-numbers nerve, and the direct sum of a poset hom with
    itself, which ``build_extension`` gives by explicit actions (at N=3,
    as it validates them exhaustively)."""
    deformed = _nerve(D32, (D32.uniformizer, D32.zero()), 4)
    ext = extension_sequence(RingExtension(D32, F3), hom_necklicial(deformed, "*", "*"))
    poset = free_templicial(sset_nerve_of_poset(("p0", "p1"), (("p0", "p1"),), 3), F3, 3)
    y = hom_necklicial(poset, ("p0",), ("p1",))
    return [ext.sub, ext.total, ext.quotient, build_extension(y, y).total]


def _z_posets():
    out = []
    for elements, relation in [(("p0", "p1"), (("p0", "p1"),)),
                               (("p0", "p1", "p2"), (("p0", "p1"), ("p2", "p1")))]:
        out += _homs(free_templicial(sset_nerve_of_poset(elements, relation, 4), Z, 4))
    return out


CORPUS = {
    "F3-nerve": lambda: _homs(_nerve(F3, (F3.from_int(1), F3.from_int(2)), 4)),
    "F3-dual-nerve": lambda: _homs(_nerve(F3, (F3.zero(), F3.zero()), 4)),
    "D32-nerve": lambda: _homs(_nerve(D32, (D32.uniformizer, D32.zero()), 4)),
    "Z-posets": _z_posets,
    "paper-P": lambda: _homs(paper_p(4)),
    "s0-times-2": lambda: _homs(s0_times_2(4)),
    "s0-times-2-Z6": lambda: [tensor_external(y, Module(Z, (6,))) for y in _homs(s0_times_2(4))],
    "extension-terms": _extension_terms,
}


def _perturbed(y, seed):
    """``y`` after a random change of basis at every necklace: a functor
    given by explicit actions, with its own entries."""
    return generate(seed, "random-necklicial-perturbation", instance=y)


def _items(y, n_max):
    for n in range(2, n_max + 1):
        for j in range(1, n):
            yield "horn", n, j
        yield "wings", n, None


def _both(y, kind, n, extra):
    """(cokernel of Y_n -> lim, lim) over the skeleton and over the full
    diagram."""
    out = []
    for diagram in (meet_skeleton(kind, n, extra), build_diagram(kind, n, extra)):
        modules = _module_diagram(y, diagram)
        legs = [y.action(obj) for obj in diagram.objects]
        out.append((limit_cokernel(modules, legs, y.level(n)), finite_limit(modules).module))
    return out


def _reported(y, n_max):
    """{(kind, indices): cokernel} of every item of the weak Kan and
    lifts-wings checks, the cokernel None for a passing item."""
    return {(kind, item.indices): item.cokernel
            for kind, check in (("horn", check_weak_kan), ("wings", check_lifts_wings))
            for item in check(y, n_max).items}


@pytest.mark.parametrize("perturb", [False, True], ids=["instance", "perturbed"])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_skeleton_limits_equal_full_limits(name, perturb):
    """Over the skeleton and the full diagram, the limit and the cokernel
    of Y_n -> lim agree; and each checker item, which reads only the legs
    at the skeleton's maximal objects and checks no cone, reports the
    cokernel of the public, cone-checking ``limit_cokernel`` over the
    skeleton with every leg."""
    failing = 0
    for seed, y in enumerate(CORPUS[name]()):
        if perturb:
            y = _perturbed(y, seed)
        kan._require_valid(y)
        n_max = min(y.max_level, 4)
        reported = _reported(y, n_max)
        items = list(_items(y, n_max))
        assert len(reported) == len(items)
        for kind, n, extra in items:
            skeleton, full = _both(y, kind, n, extra)
            assert skeleton == full, (kind, n, extra)
            coker = skeleton[0]
            indices = (n,) if extra is None else (n, extra)
            assert reported[kind, indices] == (None if coker.is_zero else coker), (
                kind, n, extra)
            failing += not full[0].is_zero
    # paper_P and s0_times_2 fail items; the others pass every one
    assert bool(failing) == (name in ("paper-P", "s0-times-2", "s0-times-2-Z6"))


def test_skeleton_limits_equal_full_limits_on_the_f3_nerve_at_5():
    y = hom_necklicial(_nerve(F3, (F3.from_int(1), F3.from_int(2)), 5), "*", "*")
    for kind, n, extra in _items(y, 5):
        if n == 5:
            skeleton, full = _both(y, kind, n, extra)
            assert skeleton == full and full[0].is_zero, (kind, n, extra)


def test_checker_items_read_free_legs_and_check_no_cone(monkeypatch):
    """A weak Kan pass on a valid instance makes no cone check and reads no
    action at a meet, the leg of an object that is not maximal; one public
    ``limit_cokernel`` call makes exactly one cone check."""
    x = _nerve(F3, (F3.from_int(1), F3.from_int(2)), 4)
    kan._require_valid(x)
    cones, read = [], []
    cone_on_forest, action = coeff._cone_on_forest, NecklicialModule.action

    def spied_cone(*args):
        cones.append(args)
        return cone_on_forest(*args)

    def spied_action(self, f):
        read.append(f)
        return action(self, f)

    monkeypatch.setattr(coeff, "_cone_on_forest", spied_cone)
    monkeypatch.setattr(NecklicialModule, "action", spied_action)
    assert check_quasicategory(x, 4).passed
    assert cones == [] and read
    meets = {obj for n in range(2, 5) for j in range(1, n)
             for diagram in [meet_skeleton("horn", n, j)]
             for i, obj in enumerate(diagram.objects)
             if any(i == t for t, _, _ in diagram.arrows)}
    assert meets and meets.isdisjoint(read)
    y = hom_necklicial(x, "*", "*")
    diagram = meet_skeleton("horn", 4, 2)
    legs = [y.action(obj) for obj in diagram.objects]
    assert limit_cokernel(_module_diagram(y, diagram), legs, y.level(4)).is_zero
    assert len(cones) == 1


# ---------------------------------------------------------------------------
# the skeleton is read only for a validated functor
# ---------------------------------------------------------------------------


def _doubled_action(y, target):
    """``y`` with the action of ``target`` doubled: not functorial."""
    def source(f):
        act = y.action(f)
        return act + act if f == target else act
    return NecklicialModule(y.ring, y.max_level, dict(y.values), source, y._maps)


def _outcome(y, diagram, n):
    modules = _module_diagram(y, diagram)
    try:
        return limit_cokernel(modules, [y.action(obj) for obj in diagram.objects], y.level(n))
    except ShapeError as exc:
        return str(exc)


@pytest.mark.parametrize("check", [check_weak_kan, check_lifts_wings])
def test_a_non_functorial_module_is_refused_before_any_skeleton_is_read(monkeypatch, check):
    """Doubling the action of a covering arrow of horn(3, 1) that the
    skeleton does not keep breaks the cone of the full diagram and not that
    of the skeleton; the checkers refuse the module before reading either."""
    y = hom_necklicial(_nerve(F3, (F3.from_int(1), F3.from_int(2)), 3), "*", "*")
    full, skeleton = build_diagram("horn", 3, 1), meet_skeleton("horn", 3, 1)
    kept = {g for _, _, g in skeleton.arrows}
    target = next(g for _, _, g in full.arrows if g not in kept)
    mutant = _doubled_action(y, target)
    assert _outcome(mutant, skeleton, 3).is_zero
    assert _outcome(mutant, full, 3) == "limit factorization verification failed"
    read = []
    monkeypatch.setattr(kan, "meet_skeleton", lambda *args: read.append(args))
    with pytest.raises(InvalidInstanceError, match="necklicial module failed validation"):
        check(mutant, 3)
    assert read == []
