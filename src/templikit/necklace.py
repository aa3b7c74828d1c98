"""Combinatorics of the finite interval category and the necklace category.

A necklace is a pair (T, p) with T a subset of {0,...,p} containing the
endpoints; maps are endpoint-preserving monotone maps f with U contained in
f(T).  This module also builds the index diagrams over which horn, wing,
truncated-wing and degenerate-part objects are computed as finite (co)limits.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import combinations, combinations_with_replacement

from .coeff import Frozen, ShapeError, _set


class FintMap(Frozen):
    """Endpoint-preserving monotone map [p] -> [q], stored by its values."""

    _fields = ("values",)

    def __init__(self, values):
        _set(self, "values", values)
        if not values or values[0] != 0:
            raise ShapeError(f"fint map must send 0 to 0: {values}")
        if any(a > b for a, b in zip(values, values[1:])):
            raise ShapeError(f"fint map not monotone: {values}")

    # written out, as the generic __eq__ takes about twice as long on this hot path
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.values == other.values

    __hash__ = Frozen.__hash__

    @property
    def source_dim(self):
        return len(self.values) - 1

    @property
    def target_dim(self):
        return self.values[-1]

    def __call__(self, x):
        return self.values[x]

    @property
    def is_identity(self):
        return self.values == tuple(range(len(self.values)))

    @property
    def is_injective(self):
        return all(a < b for a, b in zip(self.values, self.values[1:]))

    @property
    def is_surjective(self):
        return set(self.values) == set(range(self.target_dim + 1))

    def compose(self, other):
        """self o other."""
        if other.target_dim != self.source_dim:
            raise ShapeError("fint composition mismatch")
        return FintMap(tuple(self.values[x] for x in other.values))

    def plus(self, other):
        """Monoidal sum [p]+[p'] -> [q]+[q'] glueing at the shared endpoint."""
        q = self.target_dim
        return FintMap(self.values + tuple(q + x for x in other.values[1:]))

    def __str__(self):
        return "(" + ",".join(map(str, self.values)) + ")"


def fint_identity(p):
    return FintMap(tuple(range(p + 1)))


def fint_delta(n, j):
    """Inner coface [n-1] -> [n] skipping j (0 < j < n)."""
    if not 0 < j < n:
        raise ShapeError(f"delta_{j} is not inner for [{n - 1}] -> [{n}]")
    return FintMap(tuple(x if x < j else x + 1 for x in range(n)))


def fint_sigma(n, i):
    """Codegeneracy [n+1] -> [n] repeating i (0 <= i <= n)."""
    if not 0 <= i <= n:
        raise ShapeError(f"sigma_{i} out of range for [{n + 1}] -> [{n}]")
    return FintMap(tuple(x if x <= i else x - 1 for x in range(n + 2)))


def fint_factorize(f):
    """Canonical word for f: all codegeneracies first, then inner cofaces.

    Returns ``(collapsed, missed)`` with ``collapsed`` the ascending indices i
    where f(i) = f(i+1) and ``missed`` the ascending inner values absent from
    the image, so that f = delta_{m_r} o ... o delta_{m_1} o sigma_{c_1} o ...
    o sigma_{c_s}.
    """
    v = f.values
    collapsed = tuple(i for i in range(len(v) - 1) if v[i] == v[i + 1])
    image = set(v)
    missed = tuple(j for j in range(f.target_dim + 1) if j not in image)
    return collapsed, missed


def fint_from_word(p, q, collapsed, missed):
    """Evaluate the canonical word back into a fint map (testing oracle)."""
    f = fint_identity(p)
    level = p
    for i in reversed(collapsed):
        f = fint_sigma(level - 1, i).compose(f)
        level -= 1
    for j in missed:
        f = fint_delta(level + 1, j).compose(f)
        level += 1
    return f


@lru_cache(maxsize=None)
def fint_maps(p, q):
    """All fint maps [p] -> [q], lexicographic in their value tuples."""
    if p == 0:
        return (FintMap((0,)),) if q == 0 else ()
    out = []
    for interior in combinations_with_replacement(range(q + 1), p - 1):
        values = (0,) + interior + (q,)
        if all(a <= b for a, b in zip(values, values[1:])):
            out.append(FintMap(values))
    return tuple(out)


@lru_cache(maxsize=None)
def fint_surjections(n):
    """All surjective fint maps out of [n], ordered by (target, values)."""
    out = []
    for m in range(n + 1):
        out.extend(f for f in fint_maps(n, m) if f.is_surjective)
    return tuple(out)


# ---------------------------------------------------------------------------
# necklaces
# ---------------------------------------------------------------------------


class Necklace(Frozen):
    """A pair (T, p) stored as the sorted tuple of points of T."""

    _fields = ("points",)

    def __init__(self, points):
        _set(self, "points", points)
        if not points or points[0] != 0 or list(points) != sorted(set(points)):
            raise ShapeError(f"invalid necklace point set {points}")

    # written out, as the generic __eq__ takes about twice as long on this hot path
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.points == other.points

    __hash__ = Frozen.__hash__

    @property
    def dim(self):
        return self.points[-1]

    @property
    def beads(self):
        """Bead dimensions, left to right (all positive)."""
        pts = self.points
        return tuple(b - a for a, b in zip(pts, pts[1:]))

    def __str__(self):
        return "({" + ",".join(map(str, self.points)) + "}," + str(self.dim) + ")"


def simplex_necklace(n):
    return Necklace((0,)) if n == 0 else Necklace((0, n))


def wedge(a, b):
    """(T, p) v (U, q) = (T u (p + U), p + q)."""
    p = a.dim
    return Necklace(a.points + tuple(p + u for u in b.points[1:]))


@lru_cache(maxsize=None)
def necklaces(p):
    """All necklaces of dimension p, ordered by point set (lexicographic)."""
    if p == 0:
        return (Necklace((0,)),)
    interior = range(1, p)
    out = []
    for r in range(p):
        for inner in combinations(interior, r):
            out.append(Necklace((0,) + inner + (p,)))
    return tuple(sorted(out, key=lambda t: t.points))


class NecklaceMap(Frozen):
    """A necklace map (T,p) -> (U,q): a fint map with U inside f(T)."""

    _fields = ("source", "target", "fint")

    def __init__(self, source, target, fint):
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "fint", fint)
        if fint.source_dim != source.dim or fint.target_dim != target.dim:
            raise ShapeError("necklace map dimensions inconsistent")
        image = {fint(t) for t in source.points}
        if not set(target.points) <= image:
            raise ShapeError(f"target points not contained in image of source points")

    # written out, as the generic __eq__ takes about twice as long on this hot path
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.source, self.target, self.fint) == (other.source, other.target, other.fint)

    __hash__ = Frozen.__hash__

    @property
    def is_inert(self):
        return self.fint.is_identity

    @property
    def is_active(self):
        return {self.fint(t) for t in self.source.points} == set(self.target.points)

    @property
    def is_injective(self):
        return self.fint.is_injective

    @property
    def is_identity(self):
        return self.fint.is_identity and self.source == self.target

    def compose(self, other):
        """self o other (necklace maps compose like their fint parts)."""
        return NecklaceMap(other.source, self.target, self.fint.compose(other.fint))

    def __str__(self):
        return f"{self.source} -> {self.target} via {self.fint}"


def necklace_identity(t):
    return NecklaceMap(t, t, fint_identity(t.dim))


def classify_and_factor(f):
    """Unique decomposition of f as an inert map after an active map.

    Returns ``(info, active, inert)`` where info has the ``inert``/``active``
    flags and ``inert o active == f``.
    """
    mid = Necklace(tuple(sorted({f.fint(t) for t in f.source.points})))
    active = NecklaceMap(f.source, mid, f.fint)
    inert = NecklaceMap(mid, f.target, fint_identity(f.target.dim))
    return {"inert": f.is_inert, "active": f.is_active}, active, inert


@lru_cache(maxsize=None)
def necklace_maps_between(t, u):
    """All necklace maps (T,p) -> (U,q), ordered by underlying value tuples."""
    out = []
    tpoints = t.points
    upoints = set(u.points)
    for f in fint_maps(t.dim, u.dim):
        if upoints <= {f(x) for x in tpoints}:
            out.append(NecklaceMap(t, u, f))
    return tuple(out)


@lru_cache(maxsize=None)
def all_necklace_maps(max_dim):
    """Every necklace map between necklaces of dimension <= max_dim."""
    ts = [t for p in range(max_dim + 1) for t in necklaces(p)]
    out = []
    for t in ts:
        for u in ts:
            out.extend(necklace_maps_between(t, u))
    return tuple(out)


@lru_cache(maxsize=None)
def necklace_generators(max_dim):
    """Necklace maps of dimension <= max_dim that generate all of them under
    composition, together with the identities, in ``all_necklace_maps`` order.

    They are the inert maps that drop exactly one point and the active maps
    whose fint part is one inner coface or one codegeneracy.  Every map is
    inert after active (``classify_and_factor``): the active part follows its
    fint word (``fint_factorize``) one letter at a time and the inert part
    drops its extra points one at a time, so no intermediate necklace of a
    map (T,p) -> (U,q) has a dimension above max(p, q).  Two functors on the
    truncated necklace category that agree on these maps therefore agree on
    every map.

    They are built directly: from each source (T,p), the inert maps onto T
    less one interior point, and the active maps along each codegeneracy
    [p] -> [p-1] and each inner coface [p] -> [p+1] onto the image of T,
    listed by target and then by fint values, as ``all_necklace_maps`` has
    them.
    """
    out = []
    for p in range(max_dim + 1):
        fints = [fint_sigma(p - 1, i) for i in range(p)]
        if p < max_dim:
            fints += [fint_delta(p + 1, j) for j in range(1, p + 1)]
        ident = fint_identity(p)
        for t in necklaces(p):
            pts = t.points
            maps = [NecklaceMap(t, Necklace(pts[:k] + pts[k + 1:]), ident)
                    for k in range(1, len(pts) - 1)]
            maps += [NecklaceMap(t, Necklace(tuple(sorted({f(x) for x in pts}))), f)
                     for f in fints]
            maps.sort(key=lambda g: (g.target.dim, g.target.points, g.fint.values))
            out += maps
    return tuple(out)


@lru_cache(maxsize=None)
def injective_into_simplex(n):
    """All injective necklace maps (T,p) -> Delta^n, deterministic order."""
    target = simplex_necklace(n)
    out = []
    for p in range(1, n + 1):
        for interior in combinations(range(1, n), p - 1):
            values = (0,) + interior + (n,)
            f = FintMap(values)
            for t in necklaces(p):
                out.append(NecklaceMap(t, target, f))
    if n == 0:
        return (necklace_identity(target),)
    return tuple(out)


@lru_cache(maxsize=None)
def inert_into_simplex(n):
    """All inert maps (T,n) -> Delta^n (including the identity)."""
    target = simplex_necklace(n)
    ident = fint_identity(n)
    return tuple(NecklaceMap(t, target, ident) for t in necklaces(n))


# ---------------------------------------------------------------------------
# index diagrams
# ---------------------------------------------------------------------------


class IndexDiagram(Frozen):
    """Objects with commuting connecting maps over a common anchor.

    For horn/wing kinds the objects are necklace maps f_i into Delta^n and an
    arrow (i, k, g) satisfies f_k o g = f_i.  For the degeneracy kind the
    objects are surjections s_i out of [n] and an arrow (i, k, t) satisfies
    s_k = t o s_i.  Either way the objects form a poset, and the arrows are
    sorted by (i, k).  :func:`build_diagram` keeps only the covering arrows:
    every other arrow is a composite of them, so for a functor its equation
    follows from theirs.  :func:`meet_skeleton` keeps fewer objects
    instead: the maximal ones and the maximal common lower bounds of pairs
    of them, with an arrow from each maximal object down to each kept
    object below it; for a functor the limit over it is the limit over the
    whole poset.

    Naming an injective f: (T,p) -> Delta^n by V = f([p]) and J = f(T), a
    map f -> f' exists iff V is inside V' and J' inside J, and it is unique;
    a surjection s is below t o s for every fint map t.  Each kind's object
    set is convex in its order (every object between two of its objects is
    one of them), so its covering arrows are the one-step moves between its
    objects: add one vertex to V, drop one inner joint from J, or follow s
    by one codegeneracy.
    """

    _fields = ("kind", "objects", "arrows")


def _name(f):
    """(V, J) = (f([p]), f(T)) of an injective f: (T,p) -> Delta^n, which
    determines it."""
    return f.fint.values, tuple(f.fint(t) for t in f.source.points)


def _covers(v, joints):
    """The names of the injective maps one step above the map named
    (V, J) = (v, joints), each with a maker of the fint map g between them:
    add one vertex to V (g the coface skipping it) or drop one inner joint
    from J (g the identity)."""
    p = len(v) - 1
    for r in range(1, p + 1):
        for x in range(v[r - 1] + 1, v[r]):
            yield (v[:r] + (x,) + v[r:], joints), partial(fint_delta, p + 1, r)
    for x in joints[1:-1]:
        yield (v, tuple(y for y in joints if y != x)), partial(fint_identity, p)


def _slice_arrows(objects):
    """The covering arrows of a convex set of injective maps into Delta^n:
    its one-step moves (:func:`_covers`)."""
    index = {_name(f): k for k, f in enumerate(objects)}
    arrows = []
    for name, i in index.items():
        for key, g in _covers(*name):
            k = index.get(key)
            if k is not None:
                arrows.append((i, k, NecklaceMap(objects[i].source, objects[k].source, g())))
    return tuple(sorted(arrows, key=lambda a: a[:2]))


def _degeneracy_arrows(objects):
    """The covering arrows of the non-identity surjections out of [n]: each
    s: [n] ->> [m] is covered by sigma_l o s through sigma_l, 0 <= l < m."""
    index = {s.values: k for k, s in enumerate(objects)}
    arrows = []
    for i, s in enumerate(objects):
        m = s.target_dim
        for tau in (fint_sigma(m - 1, l) for l in range(m)):
            arrows.append((i, index[tau.compose(s).values], tau))
    return tuple(sorted(arrows, key=lambda a: a[:2]))


@lru_cache(maxsize=None)
def build_diagram(kind, n, extra=None):
    """Index diagrams for the finite-limit/colimit objects.

    kinds: ``horn`` (extra = j, 0 < j < n), ``wings`` (n >= 2),
    ``truncated_wings`` (extra = i, 0 <= i < n), ``wedge_intersection``
    (extra = i, 0 < i < n; the middle object of the wing pullback square)
    and ``degeneracy`` (n >= 1).

    Each object set is convex (see :class:`IndexDiagram`): the horn kind is
    every injective map into Delta^n but the identity and delta_j, the wing
    kinds are inert maps cut out by which joints they must or must not
    have, and the degeneracy kind is every surjection but the identity.
    The objects left out (the identity, delta_j, the necklace {0,i,n}) have
    no object of the set above them, and the identity surjection none below
    it, so leaving them out adds no covering arrow.
    """
    if kind == "degeneracy":
        if n < 1:
            raise ShapeError(f"degeneracy({n}) needs n >= 1")
        objects = tuple(s for s in fint_surjections(n) if not s.is_identity)
        return IndexDiagram(kind, objects, _degeneracy_arrows(objects))
    objects = _slice_objects(kind, n, extra)
    return IndexDiagram(kind, objects, _slice_arrows(objects))


def _slice_objects(kind, n, extra):
    """The objects of a :func:`build_diagram` kind of injective maps into
    Delta^n: every kind but ``degeneracy``."""
    if kind == "horn":
        j = extra
        if not (isinstance(j, int) and 0 < j < n):
            raise ShapeError(f"horn({n},{j}) out of range")
        delta_j = NecklaceMap(simplex_necklace(n - 1), simplex_necklace(n), fint_delta(n, j))
        objects = tuple(
            f for f in injective_into_simplex(n)
            if not f.is_identity and f != delta_j
        )
        return objects
    if kind == "wings":
        if n < 2:
            raise ShapeError(f"wings({n}) needs n >= 2")
        objects = tuple(f for f in inert_into_simplex(n) if not f.is_identity)
        return objects
    if kind == "truncated_wings":
        i = extra
        if not (isinstance(i, int) and 0 <= i < n):
            raise ShapeError(f"truncated_wings({n},{i}) out of range")
        banned = set(range(i + 1, n))
        objects = tuple(
            f for f in inert_into_simplex(n)
            if not f.is_identity and not (set(f.source.points) & banned)
        )
        return objects
    if kind == "wedge_intersection":
        i = extra
        if not (isinstance(i, int) and 0 < i < n):
            raise ShapeError(f"wedge_intersection({n},{i}) out of range")
        banned = set(range(i + 1, n))
        objects = tuple(
            f for f in inert_into_simplex(n)
            if i in f.source.points
            and not (set(f.source.points) & banned)
            and f.source.points != (0, i, n)
        )
        return objects
    raise ShapeError(f"unknown diagram kind {kind!r}")


@lru_cache(maxsize=None)
def meet_skeleton(kind, n, extra=None):
    """The part of the ``horn`` or ``wings`` index diagram that a limit of
    a functor depends on.

    Its objects are the maximal objects of :func:`build_diagram` and every
    maximal common lower bound of two of them, in that diagram's order; an
    arrow (t, r, g) runs from each maximal r down to each kept t below it,
    with f_r o g = f_t.  For a functor Y the limit over it is the limit over
    the whole poset, with the same legs from Y_n: a family (x_r) on the
    maximal objects determines x_p = Y(p <= r) x_r at every p, and two
    maximal r1, r2 above p agree at p, since p lies below a maximal common
    lower bound t of r1 and r2, where the arrows make them agree.

    In the (V, J) names of :class:`IndexDiagram`, two objects have a common
    lower bound iff J1 u J2 is inside V1 n V2, and then (V1 n V2, J1 u J2)
    is their meet, so their only maximal common lower bound.  The meet is an
    object of the diagram, since the injective maps it leaves out lie below
    none of its objects.
    """
    if kind not in ("horn", "wings"):
        raise ShapeError(f"no meet skeleton for diagram kind {kind!r}")
    # no arrows of the full diagram are built, and it is not kept in
    # build_diagram's cache: the checkers read only the skeleton, and at
    # n=8 the full horn diagrams would hold about 24 MiB
    objects = _slice_objects(kind, n, extra)
    names = [_name(f) for f in objects]
    index = {name: k for k, name in enumerate(names)}
    tops = [k for k, name in enumerate(names)
            if not any(up in index for up, _ in _covers(*name))]
    kept = set(tops)
    for a, b in combinations(tops, 2):
        (v1, j1), (v2, j2) = names[a], names[b]
        v, j = set(v1) & set(v2), set(j1) | set(j2)
        if j <= v:
            kept.add(index[tuple(sorted(v)), tuple(sorted(j))])
    kept = sorted(kept)
    at = {k: i for i, k in enumerate(kept)}
    arrows = []
    for t in kept:
        v, j = names[t]
        for r in tops:
            top_v, top_j = names[r]
            if r != t and set(v) <= set(top_v) and set(top_j) <= set(j):
                position = {x: y for y, x in enumerate(top_v)}
                g = FintMap(tuple(position[x] for x in v))
                arrows.append((at[t], at[r], NecklaceMap(objects[t].source,
                                                         objects[r].source, g)))
    return IndexDiagram(kind, tuple(objects[k] for k in kept), tuple(arrows))
