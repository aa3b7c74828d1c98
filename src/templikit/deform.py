"""Deformation machinery: base change, extensions, and theorem harnesses.

A deformation pair couples a templicial module over R with its special fiber
over k along a supported surjective ring map with nilpotent kernel.  The
harnesses verify the preservation statements on concrete instances and keep
hypothesis failures strictly separate from conclusion failures; non-small
extensions are handled through their chain of small quotients.
"""

from __future__ import annotations

from functools import partial

from .coeff import (
    Frozen,
    InvalidInstanceError,
    Module,
    ModuleDiagram,
    Morphism,
    RingMismatchError,
    ShapeError,
    UnsupportedRingError,
    _factor_order_elt,
    _set,
    analyze,
    direct_sum,
    factor_through_colimit,
    factor_through_epi,
    factor_through_limit,
    factor_through_mono,
    image_equals_kernel,
    limit_is_iso,
    tensor,
    tensor_morphisms,
)
from .kan import (
    CheckItem,
    CheckReport,
    _degenerate_parts,
    _limit_over_diagram,
    _module_diagram,
    _require_valid,
    _top_level,
    check_deg_projective,
    check_levelwise,
    check_quasicategory,
    check_weak_kan,
    validation_report,
)
from .necklace import (
    Necklace,
    NecklaceMap,
    build_diagram,
    fint_identity,
    necklace_generators,
)
from .quiver import Quiver, QuiverMorphism, tensor_quiver_morphisms
from .templicial import (
    NecklicialModule,
    TemplicialModule,
    base_change_necklicial,
    hom_necklicial,
    tensor_external,
)


# ---------------------------------------------------------------------------
# base change of templicial modules
# ---------------------------------------------------------------------------


def base_change_quiver(theta, quiver):
    return Quiver.build(
        theta.target, quiver.vertices,
        {key: theta.base_change(mod) for key, mod in quiver.homs},
    )


def base_change_quiver_morphism(theta, f):
    dom = base_change_quiver(theta, f.domain)
    cod = base_change_quiver(theta, f.codomain)
    comps = {key: theta.base_change_morphism(mor) for key, mor in f.components}
    return QuiverMorphism.build(dom, cod, comps)


def base_change_templicial(theta, x):
    """Reduce every level and structure matrix along theta."""
    if x.ring != theta.source:
        raise RingMismatchError(f"instance over {x.ring}, extension from {theta.source}")
    levels = tuple(base_change_quiver(theta, q) for q in x.levels)
    faces = {key: base_change_quiver_morphism(theta, f) for key, f in x.faces}
    degens = {key: base_change_quiver_morphism(theta, f) for key, f in x.degeneracies}
    comults = {key: base_change_quiver_morphism(theta, f) for key, f in x.comults}
    return TemplicialModule.build(theta.target, x.vertices, x.max_level,
                                  levels, faces, degens, comults)


# ---------------------------------------------------------------------------
# deformation pairs
# ---------------------------------------------------------------------------


class DeformationPair(Frozen):
    """A deformed instance over R with its special fiber over k.

    The optional witness is a tuple of levelwise invertible quiver morphisms
    from the base-changed levels to the fiber levels; omitted, the fiber
    condition is matrix-for-matrix equality.
    """

    _fields = ("extension", "deformed", "special_fiber", "witness")

    def __init__(self, extension, deformed, special_fiber, witness=None):
        _set(self, "extension", extension)
        _set(self, "deformed", deformed)
        _set(self, "special_fiber", special_fiber)
        _set(self, "witness", witness)


def _invert_quiver_morphism(f):
    """The inverse of a quiver morphism, checked invertible at every pair
    with a nonzero hom on either side (a zero component is not stored)."""
    comps = {}
    for key in dict.fromkeys([k for k, _ in f.domain.homs] + [k for k, _ in f.codomain.homs]):
        mor = f.comp(*key)
        if not analyze(mor).is_iso:
            raise ShapeError(f"witness component {key} is not invertible")
        comps[key] = factor_through_epi(mor, Morphism.identity(mor.domain))
    return QuiverMorphism.build(f.codomain, f.domain, comps)


def _transport_by_witness(bc, witness):
    """Conjugate the structure maps of ``bc`` by levelwise isomorphisms."""
    ring, vertices = bc.ring, bc.vertices
    fw = {n + 1: witness[n] for n in range(bc.max_level)}
    fw[0] = QuiverMorphism.identity(bc.level_quiver(0))
    bw = {n: _invert_quiver_morphism(f) for n, f in fw.items()}
    levels = tuple(fw[n + 1].codomain for n in range(bc.max_level))
    faces = {(n, j): fw[n - 1].compose(f.compose(bw[n]))
             for (n, j), f in bc.faces}
    degens = {(n, i): fw[n + 1].compose(f.compose(bw[n]))
              for (n, i), f in bc.degeneracies}
    comults = {}
    for (k, l), f in bc.comults:
        paired = tensor_quiver_morphisms(ring, vertices, (fw[k], fw[l]))
        comults[(k, l)] = paired.compose(f.compose(bw[k + l]))
    return TemplicialModule.build(ring, vertices, bc.max_level,
                                  levels, faces, degens, comults)


def validate_deformation(pair, max_level=None):
    """Levelwise flatness over R plus the special-fiber condition."""
    return _validated(pair, max_level)[0]


def _validated(pair, max_level):
    """The report of :func:`validate_deformation` and the base change of
    the deformed instance along theta, before any witness transport."""
    theta, xbar, x = pair.extension, pair.deformed, pair.special_fiber
    if xbar.ring != theta.source or x.ring != theta.target:
        raise RingMismatchError("deformation pair rings inconsistent with the extension")
    if xbar.vertices != x.vertices:
        raise ShapeError("deformed instance and special fiber have different vertex sets")
    for inst, name in ((xbar, "deformed"), (x, "special fiber")):
        report = validation_report(inst)
        if not report.ok:
            raise InvalidInstanceError(f"{name} instance failed validation", report)
    n_max = _top_level(xbar, max_level)
    items = []
    flat = check_levelwise(xbar, "flat", n_max)
    for item in flat.items:
        items.append(CheckItem(("levelwise-flat",) + item.indices, item.passed, item.detail))
    bc = base_change_templicial(theta, xbar)
    fiber = bc if pair.witness is None else _transport_by_witness(bc, pair.witness)
    fiber_ok = (fiber.levels == x.levels and fiber.faces == x.faces
                and fiber.degeneracies == x.degeneracies and fiber.comults == x.comults)
    items.append(CheckItem(("fiber-condition",), fiber_ok,
                           "" if fiber_ok else "base change does not reproduce the fiber"))
    return CheckReport.from_items("deformation", items), bc


# ---------------------------------------------------------------------------
# ideal tensor and extension sequences
# ---------------------------------------------------------------------------


def ideal_tensor(theta, y_k):
    """I (x)_k Y for the kernel ideal of a small extension, over k."""
    if not theta.small:
        raise UnsupportedRingError(
            "extension is not small; factor through small steps "
            "(RingExtension.small_factorization)")
    if y_k.ring != theta.target:
        raise RingMismatchError("ideal_tensor expects a necklicial module over the target")
    return tensor_external(y_k, theta.kernel_as_target_module())


class NecklicialExtension(Frozen):
    """A necklace-wise short exact sequence of necklicial modules."""

    _fields = ("sub", "total", "quotient", "inclusions", "projections")

    def __init__(self, sub, total, quotient, inclusions, projections):
        _set(self, "sub", sub)
        _set(self, "total", total)
        _set(self, "quotient", quotient)
        _set(self, "inclusions", inclusions)    # ((Necklace, Morphism sub_T -> total_T))
        _set(self, "projections", projections)  # ((Necklace, Morphism total_T -> quotient_T))
        # inclusion and projection depend only on the value module, so each
        # distinct pair is checked once, at the first necklace carrying it;
        # over a chain ring the three checks share the two counted cokernels
        # of i and p (see coeff.Analysis and coeff.image_equals_kernel)
        incl = dict(inclusions)
        proj = dict(projections)
        checked = set()
        for t, _ in total.values:
            i, p = incl[t], proj[t]
            if (i, p) in checked:
                continue
            if not analyze(i).injective:
                raise ShapeError(f"extension inclusion at {t} not injective")
            if not analyze(p).surjective:
                raise ShapeError(f"extension projection at {t} not surjective")
            if not image_equals_kernel(i, p):
                raise ShapeError(f"extension sequence at {t} not exact")
            checked.add((i, p))

    def verify_naturality(self):
        """Inclusion/projection naturality for every action of the total term.

        Reads (and so computes) every action of the three terms.  The
        constructors build these maps from the same matrices as the actions,
        so this holds by construction there; the check is exposed for
        hand-built extensions and the test corpus.
        """
        incl = dict(self.inclusions)
        proj = dict(self.projections)
        for f, act in self.total.actions:
            t, u = f.source, f.target
            if incl[t].compose(self.sub.action(f)) != act.compose(incl[u]):
                raise ShapeError(f"inclusion not natural at {f}")
            if self.quotient.action(f).compose(proj[u]) != proj[t].compose(act):
                raise ShapeError(f"projection not natural at {f}")
        return True


def extension_sequence(theta, ybar):
    """0 -> I.Ybar -> Ybar -> k (x) Ybar -> 0 for a levelwise flat Ybar over R.

    The sub and quotient terms reread the rows of Ybar's action when one
    of their own actions is first asked for, so later checks evaluate only
    the maps they read.  The sub term is identified with the ideal tensor
    of the special fiber: invariant factors are compared at every necklace
    and the canonical comparison map is verified to be natural on the
    generating maps (``necklace_generators``; this is where smallness
    enters).  Both sides are functors, so naturality on generators gives it
    on every composite.  The inclusions (pi^mt on each generator, into a
    free module, where pi^e_i pi^mt = pi^m = 0) and the projections (the
    identity out of a free module) are congruence-valid by construction.
    """
    if not theta.small:
        raise UnsupportedRingError(
            "extension is not small; factor through small steps "
            "(RingExtension.small_factorization)")
    if ybar.ring != theta.source:
        raise RingMismatchError("extension_sequence expects a module over the source")
    ring = theta.source
    mt = theta.target_nilpotency
    e_i = ring.m - mt
    pi_mt = _factor_order_elt(ring, mt)
    one = ring.one()

    sub_values = {}
    quot_values = {}
    inclusions = {}
    projections = {}
    for t, mod in ybar.values:
        if not mod.is_flat():
            raise ShapeError(f"extension_sequence requires levelwise flat values ({t})")
        r = mod.ngens
        sub_values[t] = Module(ring, (e_i,) * r)
        quot_values[t] = theta.view_module_over_source(theta.base_change(mod))
        inclusions[t] = Morphism._trusted(sub_values[t], mod, [{i: pi_mt} for i in range(r)])
        projections[t] = Morphism._trusted(mod, quot_values[t], [{i: one} for i in range(r)])

    sub, quotient = (NecklicialModule(ring, ybar.max_level, vals, partial(_reread, vals, ybar),
                                      ybar._maps) for vals in (sub_values, quot_values))
    sub.origin = quotient.origin = ybar
    ext = NecklicialExtension(sub, ybar, quotient,
                              tuple(sorted(inclusions.items(), key=lambda kv: kv[0].points)),
                              tuple(sorted(projections.items(), key=lambda kv: kv[0].points)))

    # identification sub = I (x)_k (k (x)_R Ybar), natural in the necklace
    ideal = ideal_tensor(theta, base_change_necklicial(theta, ybar))
    for t, mod in ideal.values:
        viewed = theta.view_module_over_source(mod)
        if viewed.factors != sub_values[t].factors:
            raise ShapeError(f"ideal tensor mismatch at {t}: "
                             f"{viewed.factors} != {sub_values[t].factors}")
    for f in necklace_generators(ybar.max_level):
        viewed = theta.view_morphism_over_source(ideal.action(f))
        if viewed != sub.action(f):
            raise ShapeError(f"ideal tensor comparison map not natural at {f}")
    return ext


def _reread(values, ybar, f):
    # every value is a sum of copies of one cyclic module (R/pi^e_i for the
    # sub term, R/pi^mt for the quotient), so any matrix over R is
    # congruence-valid between them
    return Morphism._trusted(values[f.target], values[f.source], ybar.action(f).rows)


def build_extension(sub, quotient, cocycle=None):
    """Total necklicial module with actions [[sub_f, c_f], [0, quot_f]].

    ``cocycle`` maps necklace maps to correction morphisms quotient_U ->
    sub_T; missing entries are zero, so no cocycle gives the direct sum.
    A cocycle that breaks functoriality is rejected with the failing
    composite in the attached report.
    """
    if sub.ring != quotient.ring or sub.max_level != quotient.max_level:
        raise RingMismatchError("extension terms must share ring and truncation")
    ring = sub.ring
    cocycle = dict(cocycle or {})
    sums = {t: direct_sum(ring, (mod, quotient.value(t)))
            for t, mod in sub.values}
    values = {t: ds.module for t, ds in sums.items()}
    actions = {}
    inclusions = {}
    projections = {}
    for t, ds in sums.items():
        inclusions[t] = ds.injections[0]
        projections[t] = ds.projections[1]
    for f, sub_act in sub.actions:
        t, u = f.source, f.target
        ds_t, ds_u = sums[t], sums[u]
        act = ds_t.injections[0].compose(sub_act).compose(ds_u.projections[0])
        act = act + ds_t.injections[1].compose(quotient.action(f)).compose(ds_u.projections[1])
        corr = cocycle.get(f)
        if corr is not None:
            act = act + ds_t.injections[0].compose(corr).compose(ds_u.projections[1])
        actions[f] = act
    total = NecklicialModule.build(ring, sub.max_level, values, actions)
    report = validation_report(total)
    if not report.ok:
        raise InvalidInstanceError("cocycle violates functoriality", report)
    return NecklicialExtension(sub, total, quotient,
                               tuple(sorted(inclusions.items(), key=lambda kv: kv[0].points)),
                               tuple(sorted(projections.items(), key=lambda kv: kv[0].points)))


def check_extension_weak_kan(ext, max_level=None):
    """Weak Kan reports for the sub, total and quotient terms."""
    children = (
        check_weak_kan(ext.sub, max_level, label=("sub",)),
        check_weak_kan(ext.total, max_level, label=("total",)),
        check_weak_kan(ext.quotient, max_level, label=("quotient",)),
    )
    return CheckReport.from_items("extension-weak-kan", (), children=children)


# ---------------------------------------------------------------------------
# theorem harnesses
# ---------------------------------------------------------------------------


def _fiber_chain(theta, xbar, bc):
    """Instances along the small factorization, deformed side first; the
    last is ``bc``, the base change of xbar along theta."""
    steps = theta.small_factorization()
    chain = [xbar]
    for step in steps[:-1]:
        chain.append(base_change_templicial(step, chain[-1]))
    return steps, chain + [bc]


def verify_thm_main(pair, max_level=None):
    """Quasi-category preservation under levelwise flat deformation."""
    theta, xbar, x = pair.extension, pair.deformed, pair.special_fiber
    n_max = _top_level(xbar, max_level)
    hyp, bc = _validated(pair, n_max)
    if not hyp.passed:
        return CheckReport.hypothesis_failure(
            "main-theorem", "deformation hypotheses fail", (hyp,))
    fiber_kan = check_quasicategory(x, n_max)
    if not fiber_kan.passed:
        return CheckReport.hypothesis_failure(
            "main-theorem", "special fiber is not a quasi-category", (fiber_kan,))
    conclusion = check_quasicategory(xbar, n_max)
    children = [conclusion]
    steps, chain = _fiber_chain(theta, xbar, bc)
    for idx, step in enumerate(steps):
        upper = chain[idx]
        for a in upper.vertices:
            for b in upper.vertices:
                ybar = hom_necklicial(upper, a, b)
                ext = extension_sequence(step, ybar)
                items = [CheckItem((idx, a, b, "exact-sequence"), True)]
                sub_wk = check_weak_kan(ext.sub, n_max, label=(idx, a, b, "sub"))
                quot_wk = check_weak_kan(ext.quotient, n_max, label=(idx, a, b, "quotient"))
                if idx == 0:
                    # the total term is the deformed instance itself; its
                    # horn checks are the conclusion items for this hom
                    tot_items = tuple(
                        CheckItem((idx, a, b, "total") + it.indices[2:],
                                  it.passed, it.detail, it.cokernel)
                        for it in conclusion.items if it.indices[:2] == (a, b))
                    tot_wk = CheckReport.from_items("weak-kan", tot_items)
                else:
                    tot_wk = check_weak_kan(ext.total, n_max, label=(idx, a, b, "total"))
                children.append(CheckReport.from_items(
                    "proof-skeleton", items, children=(sub_wk, quot_wk, tot_wk)))
    passed = all(c.passed for c in children)
    return CheckReport("main-theorem", passed, (), "checked",
                       f"checked through {len(theta.small_factorization())} small step(s)",
                       tuple(children))


def _wedge_square_maps(y, n, i, upper, lower):
    """The wing pullback square of a necklicial module at (n, i), given the
    (limit, index diagram) of its truncated wings P at i and B at i - 1.

    Returns the cospan A -> C <- B, with A = Y(0 < i < n) and C the wedge
    intersection, the legs of P into its nodes, and P.
    """
    (p_wing, p_diag), (b_wing, b_diag) = upper, lower
    mid = Necklace((0, i, n))
    a_mod = y.value(mid)
    c_diag = build_diagram("wedge_intersection", n, i)
    c_lim = _limit_over_diagram(y, c_diag)
    ident = fint_identity(n)
    a_to_c = factor_through_limit(
        c_lim, [y.action(NecklaceMap(obj.source, mid, ident)) for obj in c_diag.objects],
        a_mod)
    b_index = {obj.source.points: k for k, obj in enumerate(b_diag.objects)}
    b_legs = []
    for obj in c_diag.objects:
        stripped = tuple(x for x in obj.source.points if x != i)
        cone = b_wing.cone[b_index[stripped]]
        refine = y.action(NecklaceMap(obj.source, Necklace(stripped), ident))
        b_legs.append(refine.compose(cone))
    b_to_c = factor_through_limit(c_lim, b_legs, b_wing.module)
    p_index = {obj.source.points: k for k, obj in enumerate(p_diag.objects)}
    p_to_a = p_wing.cone[p_index[mid.points]]
    p_to_b = factor_through_limit(
        b_wing, [p_wing.cone[p_index[obj.source.points]] for obj in b_diag.objects],
        p_wing.module)
    cospan = ModuleDiagram(y.ring, (a_mod, b_wing.module, c_lim.module),
                           ((0, 2, a_to_c), (1, 2, b_to_c)))
    return cospan, [p_to_a, p_to_b, a_to_c.compose(p_to_a)], p_wing.module


def verify_wings_tensor(x, module, max_level=None):
    """Weak Kan of X_.(a,b) (x) M for a levelwise flat quasi-category X.

    The diagnostics ask whether a map into a limit is an isomorphism with
    one :func:`coeff.limit_is_iso` call each, counted on the sparse rows of
    the limit's equations (over Z with a free node, by ranks when the
    targets of the equations are free); only the truncated wings of Y and
    the wedge intersections, whose cones the pullback squares read, are
    built as limits.
    """
    n_max = _top_level(x, max_level)
    _require_valid(x)
    if module.ring != x.ring:
        raise RingMismatchError("coefficient module over the wrong ring")
    hyp_kan = check_quasicategory(x, n_max)
    hyp_flat = check_levelwise(x, "flat", n_max)
    if not (hyp_kan.passed and hyp_flat.passed):
        return CheckReport.hypothesis_failure(
            "wings-tensor",
            "instance must be a levelwise flat quasi-category",
            (hyp_kan, hyp_flat))
    ident_m = Morphism.identity(module)
    items = []
    diag_items = []
    for a in x.vertices:
        for b in x.vertices:
            y = hom_necklicial(x, a, b)
            yt = tensor_external(y, module)
            main = check_weak_kan(yt, n_max, label=(a, b))
            items.extend(main.items)
            wings = {}
            for n in range(2, n_max + 1):
                for i in range(0, n):
                    diagram = build_diagram("truncated_wings", n, i)
                    tw = _limit_over_diagram(y, diagram)
                    wings[(n, i)] = tw, diagram
                    ok = limit_is_iso(_module_diagram(yt, diagram),
                                      [tensor_morphisms(cone, ident_m) for cone in tw.cone],
                                      tensor(tw.module, module))
                    diag_items.append(CheckItem(
                        (a, b, n, i, "wing-tensor-iso"), ok,
                        "" if ok else "comparison W(x)M -> W(Y(x)M) not an isomorphism"))
            for n in range(2, n_max + 1):
                for i in range(1, n):
                    cospan, legs, p_mod = _wedge_square_maps(y, n, i, wings[(n, i)],
                                                             wings[(n, i - 1)])
                    b_to_c = cospan.arrows[1][2]
                    commutes = legs[2] == b_to_c.compose(legs[1])
                    diag_items.append(CheckItem(
                        (a, b, n, i, "wedge-square-commutes"), commutes))
                    ok = limit_is_iso(cospan, legs, p_mod)
                    diag_items.append(CheckItem(
                        (a, b, n, i, "wedge-square-pullback"), ok))
                    # flat pullback lemma: M (x) P is the pullback of the
                    # tensored cospan
                    t_cospan = ModuleDiagram(
                        y.ring, tuple(tensor(node, module) for node in cospan.nodes),
                        tuple((src, tgt, tensor_morphisms(f, ident_m))
                              for src, tgt, f in cospan.arrows))
                    ok = limit_is_iso(t_cospan, [tensor_morphisms(leg, ident_m) for leg in legs],
                                      tensor(p_mod, module))
                    diag_items.append(CheckItem(
                        (a, b, n, i, "flat-pullback-tensor"), ok))
    children = ()
    if diag_items:
        children = (CheckReport.from_items("wings-tensor-diagnostics", diag_items),)
    return CheckReport.from_items("wings-tensor", items, children=children)


def verify_degproj_lift(pair, max_level=None):
    """Deg-projectivity lift under levelwise flat deformation."""
    theta, xbar, x = pair.extension, pair.deformed, pair.special_fiber
    n_max = _top_level(xbar, max_level)
    hyp, bc = _validated(pair, n_max)
    if not hyp.passed:
        return CheckReport.hypothesis_failure(
            "degproj-lift", "deformation hypotheses fail", (hyp,))
    fiber_dp = check_deg_projective(x, n_max)
    if not fiber_dp.passed:
        return CheckReport.hypothesis_failure(
            "degproj-lift", "special fiber is not deg-projective", (fiber_dp,))
    conclusion = check_deg_projective(xbar, n_max)
    children = [conclusion]
    steps, chain = _fiber_chain(theta, xbar, bc)
    if chain[-1] == x:
        # the fiber already keeps the degenerate parts its
        # deg-projectivity check built; an equal copy would build them again
        chain[-1] = x
    for idx, step in enumerate(steps):
        upper, lower = chain[idx], chain[idx + 1]
        diag = _three_by_three_report(step, upper, lower, n_max, idx)
        children.append(diag)
    passed = all(c.passed for c in children)
    return CheckReport("degproj-lift", passed, (), "checked",
                       f"checked through {len(theta.small_factorization())} small step(s)",
                       tuple(children))


def _three_by_three_report(theta, upper, lower, n_max, step_idx):
    """Exactness of the rows and columns of the lifting proof's diagram.

    Rows are the base-change sequences of the degenerate part, the level and
    the nondegenerate part; columns are the E-sequences over R, over k, and
    the induced sequence of reduction kernels (the I (x) E_X column).
    """
    items = []
    ideal = theta.kernel_as_target_module()
    for n in range(1, n_max + 1):
        deg_r, homs_r, can_r, _, q_r = _degenerate_parts(upper, n)
        deg_k, homs_k, can_k, _, q_k = _degenerate_parts(lower, n)
        for a in upper.vertices:
            for b in upper.vertices:
                tag = (step_idx, n, a, b)
                xbar_deg = deg_r.hom(a, b)
                xbar_n = upper.level_quiver(n).hom(a, b)
                x_n = lower.level_quiver(n).hom(a, b)
                x_deg = deg_k.hom(a, b)
                canbar = can_r.comp(a, b)
                qbar = q_r.comp(a, b)
                can_f = can_k.comp(a, b)
                q_f = q_k.comp(a, b)

                # base change of the degenerate colimit agrees with the
                # fiber's (Lemma-style identification, canonical iso)
                bc_deg = theta.base_change(xbar_deg)
                ok = bc_deg.factors == x_deg.factors
                items.append(CheckItem(tag + ("deg-base-change",), ok,
                                       "" if ok else f"{bc_deg} != {x_deg}"))
                if not ok:
                    continue
                rho_n = _reduction_morphism(theta, xbar_n)
                u_deg = _colimit_comparison(theta, homs_r[(a, b)], homs_k[(a, b)])
                ok = u_deg is not None and analyze(u_deg).is_iso
                items.append(CheckItem(tag + ("deg-colimit-comparison",), ok))
                if not ok:
                    continue
                w_deg = factor_through_epi(u_deg, Morphism.identity(u_deg.domain))
                rho_deg = theta.view_morphism_over_source(w_deg).compose(
                    _reduction_morphism(theta, xbar_deg))
                # E-sequence base change for the nondegenerate part
                bc_qbar = theta.base_change_morphism(qbar)
                u_nd = factor_through_epi(bc_qbar, q_f)
                ok = analyze(u_nd).is_iso
                items.append(CheckItem(tag + ("nd-base-change",), ok))
                rho_nd = theta.view_morphism_over_source(u_nd).compose(
                    _reduction_morphism(theta, qbar.codomain))
                # squares
                sq1 = rho_n.compose(canbar) == \
                    theta.view_morphism_over_source(can_f).compose(rho_deg)
                items.append(CheckItem(tag + ("square-can",), sq1))
                sq2 = rho_nd.compose(qbar) == \
                    theta.view_morphism_over_source(q_f).compose(rho_n)
                items.append(CheckItem(tag + ("square-q",), sq2))
                # rows: each reduction is onto (entrywise reduction, then for
                # deg the inverse w_deg and for nd u_nd, onto since
                # u_nd bc(qbar) = q_f), so a row is exact iff its kernel is I (x) -
                for name, rho, base in (("deg", rho_deg, x_deg),
                                        ("level", rho_n, x_n),
                                        ("nd", rho_nd, q_f.codomain)):
                    ana = analyze(rho)
                    expected = theta.view_module_over_source(tensor(ideal, base))
                    ok = ana.kernel.factors == expected.factors
                    items.append(CheckItem(
                        tag + (f"row-{name}-exact",), ok,
                        "" if ok else
                        f"kernel {ana.kernel} vs I-tensor {expected}"))
                # columns: E over R, E over k, and the kernel column; q is
                # the cokernel projection of can, so the E columns are exact
                # where can is injective
                items.append(CheckItem(tag + ("column-E-upper-exact",),
                                       analyze(canbar).injective))
                items.append(CheckItem(tag + ("column-E-fiber-exact",),
                                       analyze(can_f).injective))
                k_deg = analyze(rho_deg).kernel_inclusion
                k_n = analyze(rho_n).kernel_inclusion
                k_nd = analyze(rho_nd).kernel_inclusion
                t1 = factor_through_mono(k_n, canbar.compose(k_deg))
                t2 = factor_through_mono(k_nd, qbar.compose(k_n))
                ok = (analyze(t1).injective and image_equals_kernel(t1, t2)
                      and analyze(t2).surjective)
                items.append(CheckItem(tag + ("column-I-tensor-exact",), ok))
                # Tor vanishing via flatness of the nondegenerate part
                items.append(CheckItem(tag + ("tor-vanishing-nd",),
                                       qbar.codomain.is_flat()))
    return CheckReport.from_items("degproj-3x3", items)


def _reduction_morphism(theta, module):
    """Entrywise reduction M -> view(k (x)_R M) as an R-linear map.
    Congruence-valid by construction: generator i of order pi^a goes to one
    of order pi^min(a, mt)."""
    target = theta.view_module_over_source(theta.base_change(module))
    one = theta.source.one()
    return Morphism._trusted(module, target, [{i: one} for i in range(module.ngens)])


def _colimit_comparison(theta, colim_up, colim_lo):
    """Canonical map X^deg_n(fiber) -> k (x) Xbar^deg_n between the hom-wise
    degeneracy colimits of the deformed instance and of its fiber."""
    legs = [theta.base_change_morphism(coc) for coc in colim_up.cocone]
    try:
        return factor_through_colimit(colim_lo, legs, theta.base_change(colim_up.module))
    except ShapeError:
        return None
