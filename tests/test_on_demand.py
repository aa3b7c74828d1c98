"""Necklicial actions computed on first use.

``hom_necklicial``, ``tensor_external`` and ``base_change_necklicial``
compute the action of a necklace map only when it is asked for.  These tests
compare them with an eager construction over every necklace map, check that
a weak Kan / wings check evaluates only the maps of its index diagrams, and
that reports do not depend on what the caches already hold.
"""

import gc
import re
import weakref

import pytest

from templikit import coeff, necklace, quiver, templicial
from templikit.coeff import FREE, Module, Morphism, Ring, ShapeError, tensor, tensor_morphisms
from templikit.constructors import (
    free_templicial,
    nerve,
    paper_p,
    s0_times_2,
    sset_nerve_of_poset,
    truncated_polynomial_category,
)
from templikit.deform import verify_wings_tensor
from templikit.kan import (
    check_deg_projective,
    check_levelwise,
    check_lifts_wings,
    check_quasicategory,
    check_templicial_wings,
    check_weak_kan,
)
from templikit.necklace import (
    all_necklace_maps,
    build_diagram,
    necklace_identity,
    necklaces,
    simplex_necklace,
)
from templikit.templicial import (
    NecklicialModule,
    evaluator,
    hom_necklicial,
    tensor_external,
    validate_templicial,
)

D32 = Ring.dual_chain(3, 2)
Z = Ring.integers()


@pytest.fixture
def fresh_caches():
    """Empty ``lru_cache``s for the test; fresh instances already get fresh
    evaluators."""
    for mod in (coeff, necklace, quiver):
        for fn in vars(mod).values():
            if hasattr(fn, "cache_clear") and fn.__module__ == mod.__name__:
                fn.cache_clear()


def _dual_nerve():
    eps = D32.uniformizer
    return nerve(truncated_polynomial_category(D32, (eps, D32.zero())), 3)


# (name, instance builder, hom, coefficient module M)
CASES = (
    ("dual-nerve-3", _dual_nerve, ("*", "*"), Module(D32, (1, FREE))),
    ("paper-P-4-ac", lambda: paper_p(4), ("a", "c"), Module.free(Ring.prime_field(2), 2)),
    ("s0-times-2-4", lambda: s0_times_2(4), ("*", "*"), Module(Z, (6,))),
)


def _eager_hom(x, a, b):
    ev = templicial.TemplicialEvaluator(x)  # its own caches, apart from the instance's
    n = x.max_level
    values = {t: ev.layout(t).hom(a, b) for p in range(n + 1) for t in necklaces(p)}
    actions = {f: ev.eval_map(f).comp(a, b) for f in all_necklace_maps(n)}
    return NecklicialModule.build(x.ring, n, values, actions)


def _eager_tensor(y, module):
    ident = Morphism.identity(module)
    values = {t: tensor(mod, module) for t, mod in y.values}
    actions = {f: tensor_morphisms(y.action(f), ident) for f in all_necklace_maps(y.max_level)}
    return NecklicialModule.build(y.ring, y.max_level, values, actions)


@pytest.mark.parametrize("name,make,hom,module", CASES, ids=[c[0] for c in CASES])
def test_on_demand_matches_eager_construction(name, make, hom, module, fresh_caches):
    x = make()
    maps = all_necklace_maps(x.max_level)
    eager = _eager_hom(x, *hom)
    eager_t = _eager_tensor(eager, module)
    in_order = sorted(maps, key=lambda f: (f.source.points, f.target.points, f.fint.values))
    for lazy_of, oracle in ((lambda: hom_necklicial(x, *hom), eager),
                            (lambda: tensor_external(hom_necklicial(x, *hom), module),
                             eager_t)):
        lazy = lazy_of()
        assert lazy.values == oracle.values
        assert lazy.actions == oracle.actions
        assert [f for f, _ in lazy.actions] == in_order
        assert lazy == oracle and oracle == lazy
        assert hash(lazy) == hash(oracle)
        # equality and hashing read every action of a module never read before
        assert lazy_of() == oracle
        assert hash(lazy_of()) == hash(oracle)
        for order in (maps, maps[::-1]):
            lazy = lazy_of()
            for f in order:
                assert lazy.action(f) == oracle.action(f)
            assert lazy.actions == oracle.actions


def _diagram_maps(n_max):
    """Every necklace map a horn or wings diagram up to n_max reads."""
    read = set()
    for n in range(2, n_max + 1):
        for diagram in [build_diagram("horn", n, j) for j in range(1, n)] + \
                [build_diagram("wings", n)]:
            read.update(diagram.objects)
            read.update(g for _, _, g in diagram.arrows)
    return read


def test_checks_evaluate_only_diagram_maps(fresh_caches):
    cat = truncated_polynomial_category(Ring.prime_field(3), (Ring.prime_field(3).zero(),) * 2)
    x = nerve(cat, 4)
    y = hom_necklicial(x, "*", "*")
    assert check_weak_kan(y, 4).passed
    assert check_lifts_wings(y, 4).passed
    ev = evaluator(x)
    read = _diagram_maps(4)
    assert len(ev._maps) <= len(read) < len(all_necklace_maps(4))
    assert set(ev._maps) <= read


def test_actions_computed_once_and_checked():
    x = s0_times_2(2)
    values = dict(hom_necklicial(x, "*", "*").values)
    calls = []

    def source(f):
        calls.append(f)
        return Morphism.zero(values[f.target], values[f.source])

    y = NecklicialModule(Z, 2, values, source)
    f = next(g for g in all_necklace_maps(2) if not g.is_identity)
    assert y.action(f) is y.action(f)
    assert calls == [f]

    def wrong(f):
        return Morphism.zero(values[f.target], Module(Z, (2,)))

    bad = NecklicialModule(Z, 2, values, wrong)
    with pytest.raises(ShapeError, match="has wrong endpoints"):
        bad.action(f)
    with pytest.raises(ShapeError, match="has wrong endpoints"):
        bad.actions


def test_action_beyond_truncation_has_no_action():
    for y in (hom_necklicial(s0_times_2(2), "*", "*"),
              tensor_external(hom_necklicial(s0_times_2(2), "*", "*"), Module(Z, (6,)))):
        f = necklace_identity(simplex_necklace(3))
        with pytest.raises(ShapeError, match=re.escape(f"no action stored for {f}")):
            y.action(f)


def test_build_checks_every_given_action():
    x = s0_times_2(2)
    y = hom_necklicial(x, "*", "*")
    actions = dict(y.actions)
    f = next(g for g in actions if g.source != g.target)
    actions[f] = Morphism.zero(Module(Z, (2,)), y.value(f.source))
    with pytest.raises(ShapeError, match="has wrong endpoints"):
        NecklicialModule.build(y.ring, y.max_level, dict(y.values), actions)
    partial = NecklicialModule.build(y.ring, y.max_level, dict(y.values), {f: y.action(f)})
    assert partial.actions == ((f, y.action(f)),)
    g = next(g for g in all_necklace_maps(2) if g != f)
    with pytest.raises(ShapeError, match=re.escape(f"no action stored for {g}")):
        tensor_external(partial, Module(Z, (6,))).action(g)


# ---------------------------------------------------------------------------
# reports do not depend on cache state or order
# ---------------------------------------------------------------------------


def _poset_z():
    poset = sset_nerve_of_poset(("p0", "p1"), (("p0", "p1"),), 3)
    return free_templicial(poset, Z, 3)


def _qcat_report(x):
    return str(check_quasicategory(x, 3))


def _wings_tensor_report(x):
    return str(verify_wings_tensor(x, Module(Z, (6,)), 3))


def _fill_caches(x):
    """Other homs and other checks first."""
    validate_templicial(x)
    check_templicial_wings(x)
    check_deg_projective(x)
    check_levelwise(x)
    for a in reversed(x.vertices):
        for b in x.vertices:
            y = hom_necklicial(x, a, b)
            y.actions
            tensor_external(y, Module.free(x.ring, 1)).actions


def _reverse_homs(x, tensor_with):
    for a in reversed(x.vertices):
        for b in reversed(x.vertices):
            y = hom_necklicial(x, a, b)
            if tensor_with is not None:
                y = tensor_external(y, tensor_with)
            check_weak_kan(y, 3, label=(a, b))


@pytest.mark.parametrize("make,report,tensor_with", (
    (lambda: paper_p(3), _qcat_report, None),
    (_poset_z, _wings_tensor_report, Module(Z, (6,))),
), ids=("paper-P-quasicategory", "poset-z-wings-tensor"))
def test_report_independent_of_cache_state(make, report, tensor_with, fresh_caches):
    fresh = report(make())
    x = make()
    _fill_caches(x)
    assert report(x) == fresh
    x = make()
    _reverse_homs(x, tensor_with)
    assert report(x) == fresh


def test_dropped_instances_free_their_evaluator():
    xs = [s0_times_2(n) for n in (2, 3, 4)] + [paper_p(3)]
    for x in xs:
        check_quasicategory(x)
    assert all(evaluator(x)._maps for x in xs)
    refs = [weakref.ref(x) for x in xs]
    del xs, x
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)
