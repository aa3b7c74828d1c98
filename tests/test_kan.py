"""Horn/wing objects and the structural property checkers."""

from itertools import combinations_with_replacement

import pytest

from templikit import kan
from templikit.coeff import (
    FREE,
    InvalidInstanceError,
    Module,
    Morphism,
    Ring,
    RingExtension,
    analyze,
)
from templikit.constructors import (
    _constant_templicial,
    builtin,
    free_templicial,
    nerve,
    paper_p,
    s0_times_2,
    sset_nerve_of_poset,
    sset_simplex,
    truncated_polynomial_category,
)
from templikit.deform import (
    DeformationPair,
    build_extension,
    check_extension_weak_kan,
    validate_deformation,
    verify_degproj_lift,
    verify_thm_main,
    verify_wings_tensor,
)
from templikit.kan import (
    check_deg_projective,
    check_levelwise,
    check_lifts_wings,
    check_quasicategory,
    check_templicial_wings,
    check_weak_kan,
    degenerate_subobject,
    ez_check,
    horn_object,
    truncated_wing_object,
    wing_object,
)
from templikit.necklace import Necklace, all_necklace_maps, necklaces
from templikit.quiver import Quiver
from templikit.templicial import (
    NecklicialModule,
    TemplicialModule,
    hom_necklicial,
    tensor_external,
)

F2 = Ring.prime_field(2)
F3 = Ring.prime_field(3)
Z = Ring.integers()


def dual_numbers_nerve(max_level=3):
    cat = truncated_polynomial_category(F3, (F3.zero(), F3.zero()))
    return nerve(cat, max_level)


def zero_necklicial(ring, max_level):
    values = {t: Module.zero(ring)
              for p in range(max_level + 1) for t in necklaces(p)}
    actions = {f: Morphism.zero(values[f.target], values[f.source])
               for f in all_necklace_maps(max_level)}
    return NecklicialModule.build(ring, max_level, values, actions)


def test_horn_2_is_wedge_value():
    x = dual_numbers_nerve(2)
    y = hom_necklicial(x, "*", "*")
    horn, canonical = horn_object(y, 2, 1)
    assert horn.factors == y.value(Necklace((0, 1, 2))).factors
    assert analyze(canonical).is_iso  # nerve comultiplications are isos


def test_horn_zero_module():
    y = zero_necklicial(F2, 2)
    horn, canonical = horn_object(y, 2, 1)
    assert horn.is_zero
    assert analyze(canonical).surjective


def test_wing_2_is_wedge_value():
    x = paper_p(2)
    y = hom_necklicial(x, "a", "c")
    w, _ = wing_object(y, 2)
    assert w.factors == y.value(Necklace((0, 1, 2))).factors


def test_truncated_wing_chain():
    x = dual_numbers_nerve(3)
    y = hom_necklicial(x, "*", "*")
    for n in (2, 3):
        bottom = truncated_wing_object(y, n, 0)
        assert bottom.module.is_zero
        top = truncated_wing_object(y, n, n - 1)
        wing, _ = wing_object(y, n)
        assert top.module.factors == wing.factors


def test_nerve_is_quasicategory():
    x = dual_numbers_nerve(3)
    report = check_quasicategory(x, 3)
    assert report.passed


def test_free_on_poset_nerve_is_quasicategory():
    sset = sset_nerve_of_poset(("p0", "p1", "p2"),
                               (("p0", "p1"), ("p1", "p2")), 3)
    x = free_templicial(sset, F2, 3)
    report = check_quasicategory(x, 3)
    assert report.passed


def test_paper_p_fails_exactly_at_2_1():
    x = paper_p(3)
    report = check_quasicategory(x, 3)
    assert not report.passed
    failures = [i for i in report.items if not i.passed]
    assert len(failures) == 1
    item = failures[0]
    assert item.indices == ("a", "c", 2, 1)
    assert item.cokernel.rank == 1 and item.cokernel.factors == (FREE,)


def test_wings_agree_with_horns_on_examples():
    for x in (dual_numbers_nerve(3), paper_p(3)):
        kan = check_quasicategory(x, 3)
        wings = check_templicial_wings(x, 3)
        assert kan.passed == wings.passed
    y = zero_necklicial(F2, 3)
    assert check_weak_kan(y, 3).passed
    assert check_lifts_wings(y, 3).passed


def test_paper_p_wings_fail_at_2():
    x = paper_p(2)
    report = check_templicial_wings(x, 2)
    failures = [i for i in report.items if not i.passed]
    assert failures and failures[0].indices == ("a", "c", 2)


def test_degenerate_subobject_level_1():
    x = dual_numbers_nerve(2)
    deg, can, nd, _ = degenerate_subobject(x, 1)
    assert deg.hom("*", "*").rank == 1  # X^deg_1 = X_0 = I_S
    assert can.comp("*", "*").matrix == x.degeneracy(0, 0).comp("*", "*").matrix
    assert nd.hom("*", "*").rank == 1  # x modulo scalars


def test_s0_times_2_degenerate_part():
    x = s0_times_2(2)
    deg, can, nd, _ = degenerate_subobject(x, 1)
    assert can.comp("*", "*").matrix == ((2,),)
    assert nd.hom("*", "*").factors == (2,)  # Z/2
    report = check_deg_projective(x, 2)
    assert not report.passed
    first = report.first_failure()
    assert first.indices == (1, "*", "*")
    assert first.cokernel.factors == (2,)


def test_deg_projective_reuses_degenerate_part_analyses(monkeypatch):
    from templikit import coeff

    calls = []
    smith = coeff.smith

    def counted(*args, **kwargs):
        calls.append(None)
        return smith(*args, **kwargs)

    monkeypatch.setattr(coeff, "smith", counted)
    x = paper_p(3)
    check_deg_projective(x, 3)
    checker = len(calls)

    def parts_and_injectivity(y):
        calls.clear()
        for n in (1, 2, 3):
            _, can, _, _ = degenerate_subobject(y, n)
            for a in y.vertices:
                for b in y.vertices:
                    analyze(can.comp(a, b)).injective
        return len(calls)

    # the degenerate parts, plus injectivity of each component of can_n:
    # the checker needs no more, so it must not analyze can_n again; the
    # reference runs on an equal copy, because x keeps its parts
    assert 0 < checker <= parts_and_injectivity(paper_p(3))
    assert parts_and_injectivity(x) == 0


def test_free_delta1_degenerate_part():
    x = free_templicial(sset_simplex(1, 2), F2, 2)
    deg, can, nd, _ = degenerate_subobject(x, 2)
    assert deg.hom((0,), (1,)).rank == 2
    assert analyze(can.comp((0,), (1,))).injective
    assert nd.hom((0,), (1,)).is_zero


def test_free_templicial_deg_projective_and_ez():
    for sset in (sset_simplex(1, 3), sset_simplex(2, 3)):
        x = free_templicial(sset, F2, 3)
        assert check_deg_projective(x, 3).passed
        report = ez_check(x, 3)
        assert report.passed


def test_ez_rank_accounting_free_delta1():
    x = free_templicial(sset_simplex(1, 2), F2, 2)
    # rank X_2(0,1) = 2 surjections [2] ->> [1] x rank-1 nondegenerate part
    assert x.level_quiver(2).hom((0,), (1,)).rank == 2
    assert ez_check(x, 2).passed


def test_ez_nerve_rank4():
    x = dual_numbers_nerve(2)
    report = ez_check(x, 2)
    assert report.passed


def test_nerve_field_deg_projective():
    assert check_deg_projective(dual_numbers_nerve(2), 2).passed


def test_levelwise_checks():
    x = s0_times_2(2)
    assert check_levelwise(x, "projective", 2).passed
    assert check_levelwise(x, "flat", 2).passed

    # a constant one-vertex instance with a torsion level over Z
    vertex = "*"
    mod = Module(Z, (4,))
    q = Quiver.build(Z, (vertex,), {(vertex, vertex): mod})
    from templikit.quiver import QuiverMorphism, tensor_layout, unit_quiver

    unit = unit_quiver(Z, (vertex,))
    layout = tensor_layout(Z, (vertex,), (q, q))

    def scalar(dom_q, cod_q, value):
        return QuiverMorphism.build(dom_q, cod_q, {
            (vertex, vertex): Morphism(dom_q.hom(vertex, vertex),
                                       cod_q.hom(vertex, vertex), ((value,),)),
        })

    levels = (q, q)
    faces = {(2, 1): scalar(q, q, 1)}
    degens = {(0, 0): scalar(unit, q, 1), (1, 0): scalar(q, q, 1),
              (1, 1): scalar(q, q, 1)}
    comults = {(1, 1): QuiverMorphism.build(q, layout.quiver, {
        (vertex, vertex): Morphism(mod, layout.hom(vertex, vertex), ((1,),)),
    })}
    x_tors = TemplicialModule.build(Z, (vertex,), 2, levels, faces, degens, comults)
    from templikit.templicial import validate_templicial

    assert validate_templicial(x_tors).ok
    report = check_levelwise(x_tors, "flat", 2)
    assert not report.passed
    assert report.first_failure().indices == (1, vertex, vertex)


def test_w3_free_delta3_set_level_oracle():
    x = free_templicial(sset_simplex(3, 3), F2, 3)
    y = hom_necklicial(x, (0,), (3,))
    w, _ = wing_object(y, 3)
    # independent set-level oracle: union over k of the edge paths reachable
    # from (Delta^k v Delta^{3-k}) chains from 0 to 3
    paths = set()
    for k in (1, 2):
        for front in combinations_with_replacement(range(4), k + 1):
            if front[0] != 0:
                continue
            for back in combinations_with_replacement(range(4), 3 - k + 1):
                if back[0] != front[-1] or back[-1] != 3:
                    continue
                paths.add(front + back[1:])
    assert w.rank == len(paths)


def test_ez_not_applicable_without_deg_projectivity():
    report = ez_check(s0_times_2(2), 2)
    assert not report.passed
    assert report.status == "not-applicable"


@pytest.fixture
def validations(monkeypatch):
    """The instances validate_templicial and validate_necklicial run on,
    as the checkers call them."""
    calls = {"templicial": [], "necklicial": []}
    for kind in calls:
        validate = getattr(kan, f"validate_{kind}")

        def spied(x, validate=validate, seen=calls[kind]):
            seen.append(x)
            return validate(x)

        monkeypatch.setattr(kan, f"validate_{kind}", spied)
    return calls


def _validated(calls, templicial=(), necklicial=()):
    """Whether exactly these instances, by identity and in this order, were
    validated (equal copies would compare equal)."""
    return ([id(x) for x in calls["templicial"]] == [id(x) for x in templicial]
            and [id(y) for y in calls["necklicial"]] == [id(y) for y in necklicial])


def test_checkers_refuse_unvalidated_input(validations):
    bad = _constant_templicial(Z, 2, 1, 2)  # fails colax naturality
    y = hom_necklicial(bad, "*", "*")
    calls = [(check, bad, "templicial") for check in (
        check_quasicategory, check_templicial_wings, check_deg_projective, ez_check,
        check_levelwise)]
    calls += [(check_weak_kan, y, "necklicial"), (check_lifts_wings, y, "necklicial"),
              (check_weak_kan, tensor_external(y, Module(Z, (2,))), "necklicial")]
    for check, instance, kind in calls:
        for _ in range(2):  # the second refusal reads the kept report
            with pytest.raises(InvalidInstanceError) as exc:
                check(instance, max_level=2)
            assert str(exc.value).startswith(f"{kind} module failed validation")
            assert not exc.value.report.ok
    assert _validated(validations, templicial=[bad])


def test_every_checker_validates_the_instance_once(validations):
    x = dual_numbers_nerve(2)
    y = hom_necklicial(x, "*", "*")
    for check in (check_quasicategory, check_quasicategory, check_templicial_wings,
                  check_deg_projective, ez_check, check_levelwise):
        assert check(x, max_level=2).passed
    assert check_weak_kan(y, 2).passed and check_lifts_wings(y, 2).passed
    assert _validated(validations, templicial=[x])


def test_thm_main_validates_each_chain_instance_once(validations):
    z8 = Ring.chain(2, 3)
    sset = sset_nerve_of_poset(("p0", "p1", "p2"), (("p0", "p1"), ("p1", "p2")), 3)
    pair = DeformationPair(RingExtension(z8, F2), free_templicial(sset, z8, 3),
                           free_templicial(sset, F2, 3))
    assert verify_thm_main(pair, 3).passed
    middle = validations["templicial"][-1]
    assert middle.ring == Ring.chain(2, 2)
    assert _validated(validations, templicial=[pair.deformed, pair.special_fiber, middle])


def test_wings_tensor_validates_no_necklicial_module(validations):
    sset = sset_nerve_of_poset(("p0", "p1"), (("p0", "p1"),), 3)
    x = free_templicial(sset, Z, 3)
    assert verify_wings_tensor(x, Module(Z, (2,)), 3).passed
    assert _validated(validations, templicial=[x])


def test_explicit_necklicial_module_is_validated_once(validations):
    y = zero_necklicial(F2, 2)
    ext = build_extension(y, y)  # validates and keeps the total term
    assert check_extension_weak_kan(ext, 2).passed and check_lifts_wings(y, 2).passed
    assert _validated(validations, necklicial=[ext.total, y])


def test_eval_map_truncation_guard():
    from templikit.coeff import ShapeError
    from templikit.necklace import necklace_identity, simplex_necklace
    from templikit.templicial import evaluator

    x = dual_numbers_nerve(2)
    with pytest.raises(ShapeError):
        evaluator(x).eval_map(necklace_identity(simplex_necklace(3)))


def _items_by_prop(report):
    """(prop, indices) of every item in the report and its children."""
    yield from ((report.prop, item.indices) for item in report.items)
    for child in report.children:
        yield from _items_by_prop(child)


# max_level=0 reads no level, so only items that name no level remain: the
# special-fiber condition of a deformation and the exact sequence of each
# hom in the main theorem's proof skeleton
MAX_LEVEL_ZERO = {
    "quasi-category": (lambda x, pair: check_quasicategory(x, 0), set()),
    "templicial-wings": (lambda x, pair: check_templicial_wings(x, 0), set()),
    "deg-projective": (lambda x, pair: check_deg_projective(x, 0), set()),
    "eilenberg-zilber": (lambda x, pair: ez_check(x, 0), set()),
    "levelwise-flat": (lambda x, pair: check_levelwise(x, "flat", 0), set()),
    "wings-tensor": (lambda x, pair: verify_wings_tensor(x, Module(F2, (0,)), 0), set()),
    "deformation": (lambda x, pair: validate_deformation(pair, 0), {"deformation"}),
    "main-theorem": (lambda x, pair: verify_thm_main(pair, 0), {"proof-skeleton"}),
    "degproj-lift": (lambda x, pair: verify_degproj_lift(pair, 0), set()),
}


@pytest.mark.parametrize("name", MAX_LEVEL_ZERO)
def test_max_level_zero_checks_no_level(name):
    check, props = MAX_LEVEL_ZERO[name]
    items = list(_items_by_prop(check(paper_p(3), builtin("paper_P_deformed", 3))))
    assert {prop for prop, _ in items} <= props
    assert all(indices[0] in ("fiber-condition", 0) for _, indices in items)
