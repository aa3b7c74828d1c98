"""Deformation harnesses: base change, extensions, theorem verification."""

import hashlib

import pytest

from templikit import deform
from templikit.cli import canonical_json, serialize_instance
from templikit.coeff import (
    FREE,
    InvalidInstanceError,
    Module,
    Morphism,
    Ring,
    RingExtension,
    ShapeError,
    UnsupportedRingError,
    analyze,
    direct_sum,
    factor_through_mono,
    image_equals_kernel,
)
from templikit.constructors import (
    builtin,
    free_templicial,
    nerve,
    paper_p,
    paper_p_deformed,
    s0_times_2,
    sset_nerve_of_poset,
    sset_simplex,
    truncated_polynomial_category,
)
from templikit.deform import (
    DeformationPair,
    NecklicialExtension,
    base_change_templicial,
    build_extension,
    check_extension_weak_kan,
    extension_sequence,
    ideal_tensor,
    validate_deformation,
    verify_degproj_lift,
    verify_thm_main,
    verify_wings_tensor,
)
from templikit.kan import (
    _degenerate_parts,
    check_deg_projective,
    check_quasicategory,
    check_weak_kan,
)
from templikit.necklace import Necklace, all_necklace_maps, necklace_generators, necklaces
from templikit.quiver import Quiver, QuiverMorphism
from templikit.templicial import (
    NecklicialModule,
    base_change_necklicial,
    evaluator,
    hom_necklicial,
    validate_templicial,
)

F2 = Ring.prime_field(2)
F3 = Ring.prime_field(3)
D32 = Ring.dual_chain(3, 2)
Z4 = Ring.chain(2, 2)
Z8 = Ring.chain(2, 3)


def nerve_pair(max_level=3):
    """F_3[x]/(x^2) deformed to F_3[e]/(e^2)[x]/(x^2 - e)."""
    theta = RingExtension(D32, F3)
    eps = D32.uniformizer
    deformed = nerve(truncated_polynomial_category(D32, (eps, D32.zero())), max_level)
    fiber = nerve(truncated_polynomial_category(F3, (F3.zero(), F3.zero())), max_level)
    return DeformationPair(theta, deformed, fiber)


def test_base_change_paper_p_deformed():
    theta, deformed, fiber = paper_p_deformed(3)
    assert validate_templicial(deformed).ok
    bc = base_change_templicial(theta, deformed)
    assert validate_templicial(bc).ok
    assert bc.levels == fiber.levels
    assert bc.faces == fiber.faces
    assert bc.degeneracies == fiber.degeneracies
    assert bc.comults == fiber.comults


# sha256 prefixes of the example files written by ``templikit example
# paper_P_deformed --max-level N``
PAPER_P_DEFORMED_DIGESTS = {
    2: "04b83e6ca58c0650",
    3: "d8de8b1205b1ee56",
    4: "a75af5355cedec08",
    5: "72653bd1d8d478ac",
}


@pytest.mark.parametrize("max_level", sorted(PAPER_P_DEFORMED_DIGESTS))
def test_paper_p_deformed_bytes_are_pinned(max_level):
    pair = builtin("paper_P_deformed", max_level)
    blob = canonical_json(serialize_instance(pair))
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == PAPER_P_DEFORMED_DIGESTS[max_level]
    assert validate_templicial(pair.deformed).ok
    assert base_change_templicial(pair.extension, pair.deformed) == pair.special_fiber


def _report_digest(report):
    return hashlib.sha256(str(report).encode()).hexdigest()[:16]


# sha256 prefixes of the library reports of the benchmark's workloads, built
# as perfbench/workloads.py builds them; the drawn parameters (seeds 1 to 3)
# give the same report
@pytest.mark.parametrize("c,d", [((2, 0, 0), (2, 1, 1)), ((2, 1, 0), (0, 1, 2)),
                                 ((0, 1, 2), (2, 2, 0))])
def test_thm_main_report_bytes_are_pinned(c, d):
    lifted = tuple(D32.reduce(pair) for pair in zip(c, d))
    pair = DeformationPair(
        RingExtension(D32, F3),
        nerve(truncated_polynomial_category(D32, lifted), 3),
        nerve(truncated_polynomial_category(F3, tuple(F3.from_int(x) for x in c)), 3))
    assert _report_digest(verify_thm_main(pair, 3)) == "92903168b9b2693d"


@pytest.mark.parametrize("k", [3, 9])
def test_wings_tensor_report_bytes_are_pinned(k):
    z = Ring.integers()
    poset = sset_nerve_of_poset(("p0", "p1"), (("p0", "p1"),), 4)
    report = verify_wings_tensor(free_templicial(poset, z, 4), Module(z, (k,)), 4)
    assert _report_digest(report) == "b2d522c43fcaf29f"


def test_deg_projective_report_bytes_are_pinned():
    assert _report_digest(check_deg_projective(s0_times_2(4), 4)) == "7c5f028a5e839859"


def test_paper_p_deformed_mu_entry():
    """Every comultiplication entry that differs from the fiber's lift is
    that lift plus e, and lies at hom (a, c): the correction of alpha's
    (1, 1) column and its images under the degeneracies of alpha."""
    theta, deformed, fiber = paper_p_deformed(4)
    eps = theta.source.uniformizer
    counts = {}
    for (k, l), mu in deformed.comults:
        for a in deformed.vertices:
            for b in deformed.vertices:
                mat = mu.comp(a, b).matrix
                fiber_mat = fiber.comult(k, l).comp(a, b).matrix
                for i, row in enumerate(mat):
                    for j, entry in enumerate(row):
                        lift = theta.lift_element(fiber_mat[i][j])
                        if entry != lift:
                            assert (a, b) == ("a", "c")
                            assert entry == theta.source.add(lift, eps)
                            counts[(k, l)] = counts.get((k, l), 0) + 1
    assert counts == {(1, 1): 1, (1, 2): 2, (2, 1): 2, (1, 3): 3, (2, 2): 4, (3, 1): 3}


def test_base_change_nerve_commutes():
    theta = RingExtension(Z4, Ring.prime_field(2))
    cbar = truncated_polynomial_category(Z4, (2, 1))
    reduced = truncated_polynomial_category(
        Ring.prime_field(2), (0, 1))
    lhs = base_change_templicial(theta, nerve(cbar, 3))
    rhs = nerve(reduced, 3)
    assert lhs.levels == rhs.levels and lhs.comults == rhs.comults
    assert lhs.faces == rhs.faces and lhs.degeneracies == rhs.degeneracies


def test_base_change_free_commutes():
    theta = RingExtension(Z8, Z4)
    k = sset_simplex(2, 3)
    lhs = base_change_templicial(theta, free_templicial(k, Z8, 3))
    rhs = free_templicial(k, Z4, 3)
    assert lhs == rhs


def test_validate_deformation_nerve_pair():
    assert validate_deformation(nerve_pair(3), 3).passed


def test_validate_deformation_paper_pair():
    pair = builtin("paper_P_deformed")
    assert validate_deformation(pair, 3).passed


def test_validate_deformation_flags_torsion_level():
    from templikit.quiver import Quiver, QuiverMorphism, tensor_layout, unit_quiver

    ring = D32
    vertex = "*"
    mod = Module(ring, (1,))  # R/(e), not flat
    q = Quiver.build(ring, (vertex,), {(vertex, vertex): mod})
    unit = unit_quiver(ring, (vertex,))
    layout = tensor_layout(ring, (vertex,), (q, q))

    def scalar(dom_q, cod_q, value):
        return QuiverMorphism.build(dom_q, cod_q, {
            (vertex, vertex): Morphism(dom_q.hom(vertex, vertex),
                                       cod_q.hom(vertex, vertex), ((value,),)),
        })

    from templikit.templicial import TemplicialModule

    torsion = TemplicialModule.build(
        ring, (vertex,), 2, (q, q),
        {(2, 1): scalar(q, q, ring.one())},
        {(0, 0): scalar(unit, q, ring.one()), (1, 0): scalar(q, q, ring.one()),
         (1, 1): scalar(q, q, ring.one())},
        {(1, 1): QuiverMorphism.build(q, layout.quiver, {
            (vertex, vertex): Morphism(mod, layout.hom(vertex, vertex), ((ring.one(),),)),
        })},
    )
    assert validate_templicial(torsion).ok
    fiber = base_change_templicial(RingExtension(ring, F3), torsion)
    pair = DeformationPair(RingExtension(ring, F3), torsion, fiber)
    report = validate_deformation(pair, 2)
    assert not report.passed
    assert any("levelwise-flat" in str(i.indices) for i in report.items if not i.passed)


def test_ideal_tensor_shapes():
    theta = RingExtension(Ring.dual_chain(2, 2), F2)
    x = free_templicial(sset_simplex(1, 2), F2, 2)
    y = hom_necklicial(x, (0,), (1,))
    it = ideal_tensor(theta, y)
    for t, mod in y.values:
        assert it.value(t).rank == mod.rank  # I = k as a k-module
    theta2 = RingExtension(Z4, Ring.prime_field(2))
    it2 = ideal_tensor(theta2, y)
    for t, mod in y.values:
        assert it2.value(t).rank == mod.rank  # I = 2Z/4 = F2 as an F2-module
    assert theta2.kernel_as_target_module().factors == (FREE,)


def test_ideal_tensor_requires_small():
    theta = RingExtension(Z8, Ring.prime_field(2))
    assert not theta.small
    x = free_templicial(sset_simplex(1, 2), Ring.prime_field(2), 2)
    y = hom_necklicial(x, (0,), (1,))
    with pytest.raises(UnsupportedRingError):
        ideal_tensor(theta, y)


def test_extension_sequence_free_ranks():
    theta = RingExtension(Ring.dual_chain(2, 2), F2)
    ring_r = Ring.dual_chain(2, 2)
    x = free_templicial(sset_simplex(1, 2), ring_r, 2)
    ybar = hom_necklicial(x, (0,), (1,))
    ext = extension_sequence(theta, ybar)
    for t, mod in ybar.values:
        assert ext.sub.value(t).factors == (1,) * mod.ngens
        assert ext.quotient.value(t).factors == (1,) * mod.ngens


def test_extension_sequence_z4():
    theta = RingExtension(Z4, Ring.prime_field(2))
    x = free_templicial(sset_simplex(1, 2), Z4, 2)
    ybar = hom_necklicial(x, (0,), (0,))
    ext = extension_sequence(theta, ybar)
    # I = 2Z/4 = Z/2: every sub value is (Z/2)^rank
    for t, mod in ybar.values:
        assert ext.sub.value(t).factors == (1,) * mod.ngens


def test_extension_sequence_zero_module():
    theta = RingExtension(Z4, Ring.prime_field(2))
    values = {t: Module.zero(Z4) for p in range(3) for t in necklaces(p)}
    actions = {f: Morphism.zero(values[f.target], values[f.source])
               for f in all_necklace_maps(2)}
    y = NecklicialModule.build(Z4, 2, values, actions)
    ext = extension_sequence(theta, y)
    assert all(mod.is_zero for _, mod in ext.sub.values)
    assert all(mod.is_zero for _, mod in ext.quotient.values)


def _full_map_comparison(theta, ybar):
    """Reference for ``extension_sequence``: sub and quotient actions built
    eagerly from every action of ybar by the validating constructor, and the
    ideal-tensor comparison checked on every necklace map.  Returns (sub
    actions, quotient actions, maps where the comparison fails)."""
    ring = theta.source
    e_i = ring.m - theta.target_nilpotency
    sub_values = {t: Module(ring, (e_i,) * mod.ngens) for t, mod in ybar.values}
    quot_values = {t: theta.view_module_over_source(theta.base_change(mod))
                   for t, mod in ybar.values}
    sub_actions, quot_actions = {}, {}
    for f, act in ybar.actions:
        sub_actions[f] = Morphism(sub_values[f.target], sub_values[f.source], act.matrix)
        quot_actions[f] = Morphism(quot_values[f.target], quot_values[f.source], act.matrix)
    ideal = ideal_tensor(theta, base_change_necklicial(theta, ybar))
    failing = [f for f, act in ideal.actions
               if theta.view_morphism_over_source(act).matrix != sub_actions[f].matrix]
    return sub_actions, quot_actions, failing


def _dual_nerve_homs():
    pair = nerve_pair(3)
    return [(pair.extension, hom_necklicial(pair.deformed, "*", "*"))]


def _paper_p_deformed_homs():
    theta, deformed, _ = paper_p_deformed(3)
    return [(theta, hom_necklicial(deformed, a, b))
            for a in deformed.vertices for b in deformed.vertices]


def _free_z4_homs():
    x = free_templicial(sset_simplex(1, 2), Z4, 2)
    return [(RingExtension(Z4, F2), hom_necklicial(x, a, b))
            for a in x.vertices for b in x.vertices]


def _two_step_z8_homs():
    sset = sset_nerve_of_poset(("p0", "p1"), (("p0", "p1"),), 3)
    upper = free_templicial(sset, Z8, 3)
    out = []
    for step in RingExtension(Z8, F2).small_factorization():
        out.extend((step, hom_necklicial(upper, a, b))
                   for a in upper.vertices for b in upper.vertices)
        upper = base_change_templicial(step, upper)
    return out


ORACLE_CASES = {
    "dual-nerve": _dual_nerve_homs,
    "paper-P-deformed": _paper_p_deformed_homs,
    "free-Z4": _free_z4_homs,
    "two-step-Z8": _two_step_z8_homs,
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_extension_sequence_matches_full_map_comparison(name):
    for theta, ybar in ORACLE_CASES[name]():
        sub_actions, quot_actions, failing = _full_map_comparison(theta, ybar)
        assert failing == []
        ext = extension_sequence(theta, ybar)  # the generator-only comparison passes too
        assert dict(ext.sub.actions) == sub_actions
        assert dict(ext.quotient.actions) == quot_actions
        assert ext.verify_naturality()


def test_ideal_tensor_mutant_at_one_generator_is_rejected(monkeypatch):
    pair = nerve_pair(3)
    theta, ybar = pair.extension, hom_necklicial(pair.deformed, "*", "*")
    gens = necklace_generators(3)
    target = next(f for f in gens[len(gens) // 2:]
                  if ybar.value(f.source).ngens and ybar.value(f.target).ngens)
    real_ideal_tensor = deform.ideal_tensor

    def mutated(theta, y_k):
        ideal = real_ideal_tensor(theta, y_k)

        def source(f):
            act = ideal.action(f)
            if f != target:
                return act
            rows = [list(row) for row in act.matrix]
            rows[0][0] = act.ring.add(rows[0][0], act.ring.one())
            return Morphism(act.domain, act.codomain, tuple(map(tuple, rows)))

        return NecklicialModule(ideal.ring, ideal.max_level, dict(ideal.values), source)

    monkeypatch.setattr(deform, "ideal_tensor", mutated)
    with pytest.raises(ShapeError) as exc:
        extension_sequence(theta, ybar)
    assert str(exc.value) == f"ideal tensor comparison map not natural at {target}"


def test_extension_sequence_evaluates_only_the_maps_it_reads():
    sset = sset_nerve_of_poset(("p0", "p1"), (("p0", "p1"),), 4)
    x = free_templicial(sset, Z4, 4)
    theta = RingExtension(Z4, F2)
    ext = extension_sequence(theta, hom_necklicial(x, ("p0",), ("p1",)))
    assert check_weak_kan(ext.sub, 4).passed
    assert check_weak_kan(ext.quotient, 4).passed
    assert len(evaluator(x)._maps) < len(all_necklace_maps(4))


def _exact_by_factorization(i, p):
    """Exactness at the middle on witnesses: p o i = 0 and i factors
    through the kernel inclusion of p onto it."""
    if not p.compose(i).is_zero_map:
        return False
    try:
        u = factor_through_mono(analyze(p).kernel_inclusion, i)
    except ShapeError:
        return False
    return analyze(u).cokernel.is_zero


def _per_necklace_exactness(total, inclusions, projections):
    """The exactness check made at every necklace, as before equal pairs
    were checked once, on witness reads: the message of the first failure,
    or None."""
    incl, proj = dict(inclusions), dict(projections)
    for t, _ in total.values:
        i, p = incl[t], proj[t]
        if not analyze(i).kernel.is_zero:
            return f"extension inclusion at {t} not injective"
        if not analyze(p).cokernel.is_zero:
            return f"extension projection at {t} not surjective"
        if not _exact_by_factorization(i, p):
            return f"extension sequence at {t} not exact"
    return None


@pytest.mark.parametrize("bad", [((0, 2),), ((0, 1, 2), (0, 2))])
def test_non_exact_extension_names_first_failing_necklace(bad):
    x = free_templicial(sset_simplex(1, 2), F2, 2)
    y = hom_necklicial(x, (0,), (1,))
    ext = build_extension(y, y)
    incl = dict(ext.inclusions)
    for points in bad:
        t = Necklace(points)
        # include into the summand the projection keeps: p o i = id, not 0
        ds = direct_sum(F2, (y.value(t), y.value(t)))
        incl[t] = ds.injections[1]
    inclusions = tuple(sorted(incl.items(), key=lambda kv: kv[0].points))
    expected = f"extension sequence at {Necklace(bad[0])} not exact"
    # the counted check first, so that it finds no witness kept on the maps
    with pytest.raises(ShapeError) as exc:
        NecklicialExtension(y, ext.total, y, inclusions, ext.projections)
    assert str(exc.value) == expected
    assert _per_necklace_exactness(ext.total, inclusions, ext.projections) == expected


def test_build_extension_direct_sum_weak_kan():
    x = free_templicial(
        sset_nerve_of_poset(("p0", "p1"), (("p0", "p1"),), 3), F2, 3)
    y = hom_necklicial(x, ("p0",), ("p1",))
    assert check_weak_kan(y, 3).passed
    ext = build_extension(y, y)
    report = check_extension_weak_kan(ext, 3)
    assert report.passed


def test_build_extension_rejects_bad_cocycle():
    x = free_templicial(sset_simplex(1, 2), F2, 2)
    y = hom_necklicial(x, (0,), (1,))
    bad = {}
    for f, _ in y.actions:
        if not f.is_identity and y.value(f.source).ngens and y.value(f.target).ngens:
            bad[f] = Morphism(
                y.value(f.target), y.value(f.source),
                tuple(tuple(1 for _ in range(y.value(f.target).ngens))
                      for _ in range(y.value(f.source).ngens)))
            break
    with pytest.raises(InvalidInstanceError):
        build_extension(y, y, bad)


def test_verify_thm_main_nerve_pair():
    report = verify_thm_main(nerve_pair(3), 3)
    assert report.passed
    assert report.status == "checked"


def test_verify_thm_main_hypothesis_failure_on_paper_p():
    pair = builtin("paper_P_deformed")
    report = verify_thm_main(pair, 3)
    assert report.status == "hypothesis-failure"
    assert not report.passed


def test_verify_thm_main_two_step_chain():
    theta = RingExtension(Z8, Ring.prime_field(2))
    sset = sset_nerve_of_poset(("p0", "p1", "p2"), (("p0", "p1"), ("p1", "p2")), 3)
    pair = DeformationPair(theta, free_templicial(sset, Z8, 3),
                           free_templicial(sset, Ring.prime_field(2), 3))
    report = verify_thm_main(pair, 3)
    assert report.passed
    assert "2 small step" in report.note


def test_verify_wings_tensor_unit_and_square():
    x = nerve(truncated_polynomial_category(F3, (F3.zero(), F3.zero())), 3)
    for rank in (1, 2):
        report = verify_wings_tensor(x, Module.free(F3, rank), 3)
        assert report.passed


def test_verify_wings_tensor_torsion_over_z():
    sset = sset_nerve_of_poset(("p0", "p1"), (("p0", "p1"),), 3)
    x = free_templicial(sset, Ring.integers(), 3)
    report = verify_wings_tensor(x, Module(Ring.integers(), (2,)), 3)
    assert report.passed


def test_verify_wings_tensor_hypothesis_failure():
    x = paper_p(3)
    report = verify_wings_tensor(x, Module.free(F2, 1), 3)
    assert report.status == "hypothesis-failure"


def test_verify_degproj_lift_paper_pair():
    pair = builtin("paper_P_deformed")
    report = verify_degproj_lift(pair, 3)
    assert report.passed


def test_degproj_lift_3x3_report_reads_the_fiber_instance(monkeypatch):
    pair = DeformationPair(*paper_p_deformed(3))
    real_report = deform._three_by_three_report
    calls = []

    def recording(theta, upper, lower, n_max, step_idx):
        calls.append((theta, upper, lower, n_max, step_idx))
        return real_report(theta, upper, lower, n_max, step_idx)

    monkeypatch.setattr(deform, "_three_by_three_report", recording)
    report = verify_degproj_lift(pair, 3)
    assert report.passed
    ((theta, upper, lower, n_max, step_idx),) = calls
    assert lower is pair.special_fiber
    # the report over an equal but distinct fiber has the same bytes
    copy = base_change_templicial(theta, upper)
    assert copy == lower and copy is not lower
    assert str(real_report(theta, upper, copy, n_max, step_idx)) == str(report.children[1])


def _thm_main_dual_pair():
    """The pair of the benchmark's thm-main-dual workload, c = (2, 0, 0) and
    d = (2, 1, 1)."""
    c, d = (2, 0, 0), (2, 1, 1)
    lifted = tuple(D32.reduce(pair) for pair in zip(c, d))
    return DeformationPair(
        RingExtension(D32, F3), nerve(truncated_polynomial_category(D32, lifted), 3),
        nerve(truncated_polynomial_category(F3, tuple(F3.from_int(x) for x in c)), 3))


@pytest.mark.parametrize("harness", [verify_thm_main, verify_degproj_lift],
                         ids=lambda h: h.__name__)
@pytest.mark.parametrize("name", ["thm-main-dual", "paper-P-deformed", "free-chain-z8"])
def test_harnesses_base_change_once_per_step(monkeypatch, harness, name):
    # the validation's base change along theta is the chain's last instance;
    # only the steps before the last small one base-change again
    pair = {"thm-main-dual": _thm_main_dual_pair,
            "paper-P-deformed": lambda: builtin("paper_P_deformed"),
            "free-chain-z8": _free_chain_z8_pair}[name]()
    real = deform.base_change_templicial
    calls = []

    def counting(theta, x):
        calls.append(theta)
        return real(theta, x)

    monkeypatch.setattr(deform, "base_change_templicial", counting)
    report = harness(pair, 3)
    theta = pair.extension
    if report.status == "hypothesis-failure":
        assert calls == [theta]
    else:
        assert calls == [theta] + list(theta.small_factorization()[:-1])


def _free_chain_z8_pair():
    """Free Z/8 -> F_2 pair on a<b<c: two small steps."""
    k = sset_nerve_of_poset(("a", "b", "c"), (("a", "b"), ("b", "c")), 3)
    return DeformationPair(RingExtension(Z8, F2), free_templicial(k, Z8, 3),
                           free_templicial(k, F2, 3))


THREE_BY_THREE_PAIRS = {
    "dual-nerve-3": lambda: nerve_pair(3),
    "paper-P-deformed-3": lambda: DeformationPair(*paper_p_deformed(3)),
    "paper-P-deformed-4": lambda: DeformationPair(*paper_p_deformed(4)),
    "free-chain-z8": _free_chain_z8_pair,
}


@pytest.mark.parametrize("name", sorted(THREE_BY_THREE_PAIRS))
def test_3x3_exactness_given_by_construction(name):
    """What the 3x3 report takes from its construction: q is the cokernel
    projection of can on both instances of each small step, so the E columns
    are exact where can is injective; and each entrywise reduction is onto,
    so a row is exact where its kernel is I (x) -."""
    pair = THREE_BY_THREE_PAIRS[name]()
    theta, xbar = pair.extension, pair.deformed
    steps, chain = deform._fiber_chain(theta, xbar, base_change_templicial(theta, xbar))
    for idx, step in enumerate(steps):
        upper, lower = chain[idx], chain[idx + 1]
        for n in range(1, upper.max_level + 1):
            for x in (upper, lower):
                _, _, can, _, q = _degenerate_parts(x, n)
                for a in x.vertices:
                    for b in x.vertices:
                        assert image_equals_kernel(can.comp(a, b), q.comp(a, b))
                        assert analyze(q.comp(a, b)).surjective
            deg, _, _, _, q = _degenerate_parts(upper, n)
            for a in upper.vertices:
                for b in upper.vertices:
                    for module in (deg.hom(a, b), upper.level_quiver(n).hom(a, b),
                                   q.comp(a, b).codomain):
                        rho = deform._reduction_morphism(step, module)
                        assert analyze(rho).surjective


def test_verify_degproj_lift_trivial_free():
    theta = RingExtension(Ring.dual_chain(2, 2), F2)
    k = sset_simplex(2, 3)
    pair = DeformationPair(theta, free_templicial(k, Ring.dual_chain(2, 2), 3),
                           free_templicial(k, F2, 3))
    report = verify_degproj_lift(pair, 3)
    assert report.passed


def test_s0_times_2_has_no_supported_extension():
    # this counterexample lives over Z: no supported nilpotent
    # extension exists, so deformation harnesses reject it at the ring level
    with pytest.raises(UnsupportedRingError):
        RingExtension(Z4, Ring.integers())
    with pytest.raises(UnsupportedRingError):
        RingExtension(Ring.integers(), Ring.prime_field(2))


def test_validate_deformation_with_witness():
    from templikit.quiver import QuiverMorphism

    pair = nerve_pair(2)
    ident_witness = tuple(
        QuiverMorphism.identity(pair.special_fiber.level_quiver(n))
        for n in range(1, 3))
    wrapped = DeformationPair(pair.extension, pair.deformed,
                              pair.special_fiber, ident_witness)
    assert validate_deformation(wrapped, 2).passed

    # a wrong witness (swap of the rank-2 basis at level 1) breaks the match
    c = pair.special_fiber.level_quiver(1)
    mod = c.hom("*", "*")
    swap = Morphism(mod, mod, ((F3.zero(), F3.one()), (F3.one(), F3.zero())))
    bad_witness = (
        QuiverMorphism.build(c, c, {("*", "*"): swap}),
        QuiverMorphism.identity(pair.special_fiber.level_quiver(2)),
    )
    bad = DeformationPair(pair.extension, pair.deformed,
                          pair.special_fiber, bad_witness)
    report = validate_deformation(bad, 2)
    assert not report.passed


def _paper_p_identity_witness(change):
    """The identity witness of ``paper_p_deformed(3)``, with its level-1
    morphism replaced by ``change(level-1 quiver)``."""
    theta, deformed, fiber = paper_p_deformed(3)
    levels = [fiber.level_quiver(n) for n in range(1, 4)]
    witness = [QuiverMorphism.identity(q) for q in levels]
    witness[0] = change(levels[0])
    return DeformationPair(theta, deformed, fiber, tuple(witness))


def test_identity_witness_of_paper_p_deformed_passes():
    """Pairs of vertices with a zero hom on both sides need no component."""
    pair = _paper_p_identity_witness(QuiverMorphism.identity)
    assert validate_deformation(pair).passed


def test_witness_with_a_zero_component_is_rejected():
    """A zero component between equal-rank nonzero homs is not stored by
    the quiver morphism, and is still checked."""
    def zeroed(q):
        return QuiverMorphism.build(q, q, {key: Morphism.identity(mod)
                                           for key, mod in q.homs if key != ("a", "a")})

    pair = _paper_p_identity_witness(zeroed)
    with pytest.raises(ShapeError, match=r"witness component \('a', 'a'\) is not invertible"):
        validate_deformation(pair)


def test_witness_onto_a_zero_hom_is_rejected():
    """A nonzero domain hom whose codomain hom is zero is not invertible."""
    def dropped(q):
        smaller = Quiver.build(q.ring, q.vertices,
                               {key: mod for key, mod in q.homs if key != ("a", "a")})
        return QuiverMorphism.build(q, smaller, {key: Morphism.identity(mod)
                                                 for key, mod in smaller.homs})

    pair = _paper_p_identity_witness(dropped)
    with pytest.raises(ShapeError, match=r"witness component \('a', 'a'\) is not invertible"):
        validate_deformation(pair)
