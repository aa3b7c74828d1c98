"""Horn, wing and degeneracy objects, and the structural property checkers.

Surjectivity of a module map implements "regular epimorphism": over module
categories the underlying-set functor preserves and reflects regular epis.
Horn and wing objects are computed as finite limits over the index posets of
necklace maps into the simplex, and degenerate parts as colimits over the
poset of surjections.  Y is validated functorial at the trust boundary, and
the diagrams rely on it.  The limit objects below, the wings-tensor
diagnostics and the colimits keep every object and only the covering
arrows: the equation of every other arrow, a composite of covering ones,
follows from theirs.  The weak Kan and lifts-wings checkers solve on the
meet skeleton (:func:`necklace.meet_skeleton`), the maximal objects and the
maximal common lower bounds of pairs of them: a family on the maximal
objects determines the value at every object p through Y(p <= r), and two
maximal objects above p agree there because p lies below a maximal common
lower bound of the two, where the skeleton makes them agree.  So the limit
over the skeleton is the limit over the whole poset, with the same map from
Y_n, and the same cokernel.

Every checker refuses an invalid instance with ``InvalidInstanceError``;
validity is established once per instance and kept on it
(:func:`validation_report`), so checking an instance again costs nothing.
A checker establishes it before it reads any diagram.

Each horn or wings item reads the cokernel of Y_n -> lim off the limit's
forest equations without building the limit (:func:`coeff._limit_cokernel`,
the part of :func:`coeff.limit_cokernel` after its cone check).  The
equations are sparse rows of the difference map delta, written from
nonzeros.  The item reads Y's actions only at the free nodes of the forest,
the maximal objects of the skeleton, and checks no cone: Y is a validated
functor, so those legs extend to one.  An onto map costs two sparse
eliminations on the rows of s and delta that read only the diagonal (no
direct sum, no delta morphism and no dense Smith run), each over R/(pi^e)
when pi^e kills its orders.  Over Z with free values and a free T, an onto
map costs one diagonal-only cokernel of s and a rank of delta over Q.  A
failing item reads the cokernel off the kernel of delta, built as a
morphism over the instance's ring, and its report carries it.
The wings-tensor harness asks the public :func:`coeff.limit_is_iso`, which
checks its cone (the legs of a wedge square form one only when the square
commutes) and counts injectivity on the same two eliminations.  A limit is
built only where its cone is read: the limit objects below, and the
truncated wings and wedge intersections of that harness.
"""

from __future__ import annotations

from .coeff import (
    Frozen,
    InvalidInstanceError,
    ModuleDiagram,
    _limit_cokernel,
    _limit_equations,
    _set,
    analyze,
    factor_through_colimit,
    factor_through_limit,
    finite_colimit,
    finite_limit,
)
from .necklace import build_diagram, fint_surjections, meet_skeleton
from .quiver import Quiver, QuiverDiagram, QuiverMorphism, _solve_homwise
from .templicial import (
    TemplicialModule,
    evaluator,
    hom_necklicial,
    validate_necklicial,
    validate_templicial,
)


class CheckItem(Frozen):
    _fields = ("indices", "passed", "detail", "cokernel")

    def __init__(self, indices, passed, detail="", cokernel=None):
        _set(self, "indices", indices)
        _set(self, "passed", passed)
        _set(self, "detail", detail)
        _set(self, "cokernel", cokernel)  # a Module, or None

    def __str__(self):
        mark = "pass" if self.passed else "FAIL"
        extra = f" [{self.detail}]" if self.detail else ""
        coker = f" cokernel {self.cokernel}" if self.cokernel is not None else ""
        return f"{self.indices}: {mark}{extra}{coker}"


class CheckReport(Frozen):
    _fields = ("prop", "passed", "items", "status", "note", "children")

    def __init__(self, prop, passed, items, status="checked", note="", children=()):
        _set(self, "prop", prop)
        _set(self, "passed", passed)
        _set(self, "items", items)
        _set(self, "status", status)  # checked | hypothesis-failure | not-applicable
        _set(self, "note", note)
        _set(self, "children", children)

    @staticmethod
    def from_items(prop, items, note="", children=()):
        ok = all(i.passed for i in items) and all(c.passed for c in children)
        return CheckReport(prop, ok, tuple(items), "checked", note, tuple(children))

    @staticmethod
    def hypothesis_failure(prop, note, children=()):
        return CheckReport(prop, False, (), "hypothesis-failure", note, tuple(children))

    def first_failure(self):
        for item in self.items:
            if not item.passed:
                return item
        for child in self.children:
            hit = child.first_failure()
            if hit is not None:
                return hit
        return None

    def __str__(self):
        head = f"{self.prop}: {'PASS' if self.passed else 'FAIL'}"
        if self.status != "checked":
            head += f" ({self.status})"
        if self.note:
            head += f" -- {self.note}"
        lines = [head]
        lines.extend(f"  {i}" for i in self.items)
        for child in self.children:
            lines.extend("  " + line for line in str(child).splitlines())
        return "\n".join(lines)


def validation_report(x):
    """The validation report of a templicial or necklicial module, computed
    the first time it is asked for and kept on the instance (as its
    evaluator is).  A necklicial module computed from another object, its
    ``origin``, is valid when that object is, so it shares that object's
    report; one given by explicit actions is checked exhaustively."""
    report = x.__dict__.get("_validation")
    if report is None:
        if isinstance(x, TemplicialModule):
            report = validate_templicial(x)
        elif x.origin is not None:
            report = validation_report(x.origin)
        else:
            report = validate_necklicial(x)
        object.__setattr__(x, "_validation", report)
    return report


def _require_valid(x):
    report = validation_report(x)
    if not report.ok:
        kind = "templicial" if isinstance(x, TemplicialModule) else "necklicial"
        raise InvalidInstanceError(f"{kind} module failed validation", report)


# ---------------------------------------------------------------------------
# horn / wing objects as limits
# ---------------------------------------------------------------------------


def _module_diagram(y, diagram):
    nodes = tuple(y.value(obj.source) for obj in diagram.objects)
    arrows = tuple((k, i, y.action(g)) for (i, k, g) in diagram.arrows)
    return ModuleDiagram(y.ring, nodes, arrows)


def _limit_over_diagram(y, diagram):
    return finite_limit(_module_diagram(y, diagram))


def _limit_object(y, n, kind, *extra):
    """(limit, canonical map Y_n -> limit, index diagram) for the ``kind``
    index diagram at n (``extra`` is its j or i, if it takes one)."""
    diagram = build_diagram(kind, n, *extra)
    limit = _limit_over_diagram(y, diagram)
    legs = [y.action(obj) for obj in diagram.objects]
    return limit, factor_through_limit(limit, legs, y.level(n)), diagram


def horn_object(y, n, j):
    """(Lambda^j_n Y, canonical map Y_n -> Lambda) as a finite limit."""
    limit, canonical, _ = _limit_object(y, n, "horn", j)
    return limit.module, canonical


def wing_object(y, n):
    limit, canonical, _ = _limit_object(y, n, "wings")
    return limit.module, canonical


class TruncatedWing(Frozen):
    _fields = ("module", "canonical", "limit", "diagram")


def truncated_wing_object(y, n, i):
    """W_n^{<=i} Y with its canonical map and limit data (0 <= i < n)."""
    limit, canonical, diagram = _limit_object(y, n, "truncated_wings", i)
    return TruncatedWing(limit.module, canonical, limit, diagram)


# ---------------------------------------------------------------------------
# weak Kan / wings checkers
# ---------------------------------------------------------------------------


def _top_level(x, max_level):
    """``max_level``, at most the truncation of ``x``; None is the truncation."""
    return x.max_level if max_level is None else min(max_level, x.max_level)


def _surjectivity_report(prop, y, max_level, label, kind, extras):
    """Whether Y_n maps onto the limit object of the ``kind`` index diagram,
    at every 2 <= n <= max_level and every ``extra`` in ``extras(n)``.  The
    limit is taken over the diagram's meet skeleton, which gives the same
    limit and cokernel once Y is validated functorial.  Y's actions at the
    skeleton's maximal objects, the free nodes of the limit's equations,
    then extend to a cone, so an item reads only those and checks no cone."""
    _require_valid(y)
    n_max = _top_level(y, max_level)
    items = []
    for n in range(2, n_max + 1):
        for extra in extras(n):
            diagram = meet_skeleton(kind, n, *extra)
            eq = _limit_equations(_module_diagram(y, diagram))
            s = [row for i in eq.free for row in y.action(diagram.objects[i]).rows]
            coker = _limit_cokernel(eq, s, y.level(n))
            if coker.is_zero:
                items.append(CheckItem(label + (n,) + extra, True))
            else:
                items.append(CheckItem(label + (n,) + extra, False,
                                       "canonical map not surjective", coker))
    return CheckReport.from_items(prop, items)


def check_weak_kan(y, max_level=None, *, label=()):
    """Surjectivity of Y_n -> Lambda^j_n Y for all 0 < j < n <= max_level."""
    return _surjectivity_report("weak-kan", y, max_level, label, "horn",
                                lambda n: ((j,) for j in range(1, n)))


def check_lifts_wings(y, max_level=None, *, label=()):
    """Surjectivity of Y_n -> W_n Y for all 2 <= n <= max_level."""
    return _surjectivity_report("lifts-wings", y, max_level, label, "wings",
                                lambda n: ((),))


def _per_hom_report(prop, x, max_level, check):
    """The items of ``check`` on every hom necklicial module X_.(a, b)."""
    _require_valid(x)
    items = []
    for a in x.vertices:
        for b in x.vertices:
            y = hom_necklicial(x, a, b)
            items.extend(check(y, max_level, label=(a, b)).items)
    return CheckReport.from_items(prop, items)


def check_quasicategory(x, max_level=None):
    """Weak Kan for every hom necklicial module X_.(a, b)."""
    return _per_hom_report("quasi-category", x, max_level, check_weak_kan)


def check_templicial_wings(x, max_level=None):
    """Lifts-wings for every hom necklicial module X_.(a, b)."""
    return _per_hom_report("templicial-lifts-wings", x, max_level, check_lifts_wings)


# ---------------------------------------------------------------------------
# degenerate part and deg-projectivity
# ---------------------------------------------------------------------------


def degenerate_subobject(x, n):
    """(X^deg_n, can_n, X^nd_n, X_n -> X^nd_n) via the colimit over
    non-identity surjections."""
    deg, _, can, nd_quiver, nd_proj = _degenerate_parts(x, n)
    return deg, can, nd_quiver, nd_proj


def _degenerate_parts(x, n):
    """Like :func:`degenerate_subobject`, with the hom-wise colimits as a
    dict {(a, b): ColimitResult} after X^deg_n.  The cokernels of the
    components of can_n are read through :func:`analyze`, so they stay on
    those morphisms for later analyses (injectivity of a component is then
    a comparison of sizes); X^nd_n(a, b) is that cokernel.
    Each level's parts are kept on the instance (as its evaluator is)."""
    kept = x.__dict__.get("_degenerate_parts")
    if kept is None:
        kept = {}
        object.__setattr__(x, "_degenerate_parts", kept)
    if n not in kept:
        kept[n] = _build_degenerate_parts(x, n)
    return kept[n]


def _build_degenerate_parts(x, n):
    ev = evaluator(x)
    diagram = build_diagram("degeneracy", n)
    nodes = tuple(x.level_quiver(s.target_dim) for s in diagram.objects)
    arrows = tuple((k, i, ev.fint_morphism(tau)) for (i, k, tau) in diagram.arrows)
    quiver, hom_colimits = _solve_homwise(
        QuiverDiagram(x.ring, x.vertices, nodes, arrows), finite_colimit)
    legs = [ev.fint_morphism(s) for s in diagram.objects]
    can_comps = {}
    nd_homs = {}
    nd_proj_comps = {}
    level_n = x.level_quiver(n)
    for (a, b), hom_colim in hom_colimits:
        hom_legs = [leg.comp(a, b) for leg in legs]
        can_ab = factor_through_colimit(hom_colim, hom_legs, level_n.hom(a, b))
        can_comps[(a, b)] = can_ab
        ana = analyze(can_ab)
        if not ana.cokernel.is_zero:
            nd_homs[(a, b)] = ana.cokernel
        nd_proj_comps[(a, b)] = ana.cokernel_projection
    nd_quiver = Quiver.build(x.ring, x.vertices, nd_homs)
    can = QuiverMorphism.build(quiver, level_n, can_comps)
    nd_proj = QuiverMorphism.build(level_n, nd_quiver, nd_proj_comps)
    return quiver, dict(hom_colimits), can, nd_quiver, nd_proj


def check_deg_projective(x, max_level=None):
    """can_n split mono with projective cokernel for all n <= max_level.

    A component of can_n is injective iff its domain and its cokernel
    X^nd_n(a, b), kept on it by :func:`_degenerate_parts`, together have the
    size of its codomain, so a passing item runs no elimination; over Z
    with a free factor, and for the kernel a failing item reports, the
    kernel is computed."""
    _require_valid(x)
    items = []
    for n in range(1, _top_level(x, max_level) + 1):
        _, _, can, nd, _ = _degenerate_parts(x, n)
        for a in x.vertices:
            for b in x.vertices:
                ana = analyze(can.comp(a, b))
                coker = nd.hom(a, b)
                if ana.injective and coker.is_flat():
                    items.append(CheckItem((n, a, b), True))
                elif not ana.injective:
                    items.append(CheckItem((n, a, b), False,
                                           "can_n is not injective", ana.kernel))
                else:
                    items.append(CheckItem((n, a, b), False,
                                           "nondegenerate part not projective", coker))
    return CheckReport.from_items("deg-projective", items)


def ez_check(x, max_level=None):
    """Eilenberg-Zilber decomposition X_n = sum over [n] ->> [m] of X^nd_m."""
    dp = check_deg_projective(x, max_level)
    if not dp.passed:
        return CheckReport("eilenberg-zilber", False, (), "not-applicable",
                           "instance is not deg-projective", (dp,))
    n_max = _top_level(x, max_level)
    items = []
    for n in range(1, n_max + 1):
        surjections = fint_surjections(n)
        for a in x.vertices:
            for b in x.vertices:
                lhs = sorted(x.level_quiver(n).hom(a, b).factors)
                rhs = []
                for s in surjections:
                    m = s.target_dim
                    if m == 0:
                        if a == b:
                            rhs.append(0)
                    else:
                        nd_m = _degenerate_parts(x, m)[3]  # X^nd_m
                        rhs.extend(nd_m.hom(a, b).factors)
                if lhs == sorted(rhs):
                    items.append(CheckItem((n, a, b), True))
                else:
                    items.append(CheckItem(
                        (n, a, b), False,
                        f"invariant factors {lhs} != surjection-indexed sum {sorted(rhs)}"))
    return CheckReport.from_items("eilenberg-zilber", items,
                                  note=f"surjection counts: "
                                       f"{[len(fint_surjections(n)) for n in range(1, n_max + 1)]}")


def check_levelwise(x, which="flat", max_level=None):
    """Levelwise flatness (= projectivity = freeness for f.g. modules here)."""
    if which not in ("flat", "projective"):
        raise InvalidInstanceError(f"unknown levelwise property {which!r}")
    _require_valid(x)
    n_max = _top_level(x, max_level)
    items = []
    for n in range(1, n_max + 1):
        for a in x.vertices:
            for b in x.vertices:
                mod = x.level_quiver(n).hom(a, b)
                if mod.is_flat():
                    items.append(CheckItem((n, a, b), True))
                else:
                    items.append(CheckItem((n, a, b), False,
                                           f"level module {mod} has torsion"))
    return CheckReport.from_items(
        f"levelwise-{which}", items,
        note="flat = projective = free for finitely generated modules "
             "over the supported rings")
