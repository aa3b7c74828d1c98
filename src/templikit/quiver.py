"""Quivers of modules over a fixed vertex set and their tensor calculus.

The tensor over the vertex set S is implemented in n-ary form: the hom
(a,c) of Q_1 (x)_S ... (x)_S Q_r is the direct sum over vertex paths
a = b_0, b_1, ..., b_r = c of the module tensors Q_1(b_0,b_1) (x) ... (x)
Q_r(b_{r-1},b_r), with raw generators ordered lexicographically by
(path, generator indices) and then normalized to invariant-factor form.
The layout objects returned here retain the raw/normal change of basis.
Every iterated tensor lands in the flat layout of its atomic factors, its
one normal form by coherence: ``tensor_quiver_morphisms`` takes the
bracketing of each factor's domain and codomain and reads the factor on
their raw generators, so a rebracketing or an inserted unit I_S is the
tensor of identities between two bracketings.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .coeff import (
    FREE,
    Frozen,
    Module,
    ModuleDiagram,
    Morphism,
    RingMismatchError,
    ShapeError,
    _set,
    _tensor_factor,
    change_basis,
    finite_colimit,
    finite_limit,
    normalize_orders,
)


class Quiver(Frozen):
    """Modules indexed by ordered vertex pairs; absent entries are zero.

    ``homs`` is the sorted tuple of ((a, b), Module), nonzero modules only.
    ``hom`` reads a dict built once from it, and every absent hom is the
    ring's one zero module; equality and hashing read ``ring``,
    ``vertices`` and ``homs`` only.
    """

    _fields = ("ring", "vertices", "homs")

    def __init__(self, ring, vertices, homs):
        _set(self, "ring", ring)
        _set(self, "vertices", vertices)
        _set(self, "homs", homs)
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise ShapeError("duplicate vertices")
        seen = []
        for (a, b), mod in homs:
            if a not in index or b not in index:
                raise ShapeError(f"hom ({a},{b}) uses unknown vertex")
            if mod.ring != ring:
                raise RingMismatchError("hom module over wrong ring")
            if mod.is_zero:
                raise ShapeError(f"hom ({a},{b}) is zero; absent homs are zero")
            seen.append((index[a], index[b]))
        if seen != sorted(seen) or len(set(seen)) != len(seen):
            raise ShapeError("homs not in canonical order")
        _set(self, "_hom", dict(homs))

    @staticmethod
    def build(ring, vertices, mapping):
        """Quiver from a {(a,b): Module} mapping, dropping zero modules."""
        index = {v: i for i, v in enumerate(vertices)}
        items = [
            ((a, b), mod)
            for (a, b), mod in mapping.items()
            if not mod.is_zero
        ]
        # an unknown vertex sorts last, and the constructor rejects it
        last = len(index)
        items.sort(key=lambda kv: (index.get(kv[0][0], last), index.get(kv[0][1], last)))
        return Quiver(ring, tuple(vertices), tuple(items))

    def hom(self, a, b):
        mod = self._hom.get((a, b))
        return Module.zero(self.ring) if mod is None else mod

    @property
    def is_zero(self):
        return not self.homs


@lru_cache(maxsize=None)
def unit_quiver(ring, vertices):
    """I_S: the ring on the diagonal, zero elsewhere."""
    return Quiver.build(ring, vertices, {(v, v): Module.free(ring, 1) for v in vertices})


class QuiverMorphism(Frozen):
    """Vertex-pairwise module morphisms between quivers on the same vertices.

    ``components`` is stored as the sorted tuple of ((a,b), Morphism),
    nonzero maps only.  ``comp`` reads a dict built once from it; equality
    and hashing read ``domain``, ``codomain`` and ``components`` only.
    """

    _fields = ("domain", "codomain", "components")

    def __init__(self, domain, codomain, components):
        if domain.ring != codomain.ring:
            raise RingMismatchError("quiver morphism over mixed rings")
        if domain.vertices != codomain.vertices:
            raise ShapeError("quiver morphism must fix the vertex set")
        index = {v: i for i, v in enumerate(domain.vertices)}
        cleaned = []
        for (a, b), f in components:
            if f.domain != domain.hom(a, b) or f.codomain != codomain.hom(a, b):
                raise ShapeError(f"component ({a},{b}) inconsistent with quiver homs")
            if not f.is_zero_map:
                cleaned.append(((a, b), f))
        cleaned.sort(key=lambda kv: (index[kv[0][0]], index[kv[0][1]]))
        _set(self, "domain", domain)
        _set(self, "codomain", codomain)
        _set(self, "components", tuple(cleaned))
        _set(self, "_comp", dict(cleaned))

    @staticmethod
    def build(domain, codomain, mapping):
        return QuiverMorphism(domain, codomain, tuple(mapping.items()))

    @staticmethod
    def identity(quiver):
        return QuiverMorphism.build(
            quiver, quiver, {key: Morphism.identity(mod) for key, mod in quiver.homs}
        )

    def comp(self, a, b):
        f = self._comp.get((a, b))
        if f is None:
            return Morphism.zero(self.domain.hom(a, b), self.codomain.hom(a, b))
        return f

    def compose(self, other):
        """self o other."""
        if other.codomain != self.domain:
            raise ShapeError("quiver morphism composition mismatch")
        keys = self._comp.keys() | other._comp.keys()
        comps = {}
        for a, b in keys:
            comps[(a, b)] = self.comp(a, b).compose(other.comp(a, b))
        return QuiverMorphism.build(other.domain, self.codomain, comps)


# ---------------------------------------------------------------------------
# tensor layouts
# ---------------------------------------------------------------------------


def _fold_order(ring, orders):
    """Order of an n-fold tensor of cyclic factors; None if trivial."""
    acc = FREE
    for o in orders:
        acc = _tensor_factor(ring, acc, o)
        if acc is None:
            return None
    return acc


class TensorLayout:
    """The n-ary quiver tensor with raw/normal change-of-basis data."""

    def __init__(self, ring, vertices, factors):
        self.ring = ring
        self.vertices = tuple(vertices)
        self.factors = tuple(factors)
        self._data = {}
        homs = {}
        r = len(self.factors)
        for a in self.vertices:
            for c in self.vertices:
                raw = []
                orders = []
                if r == 0:
                    if a == c:
                        raw.append(((), ()))
                        orders.append(FREE)
                else:
                    for mid in product(self.vertices, repeat=r - 1):
                        full = (a,) + mid + (c,)
                        mods = [self.factors[i].hom(full[i], full[i + 1]) for i in range(r)]
                        if any(m.is_zero for m in mods):
                            continue
                        for gens in product(*(range(m.ngens) for m in mods)):
                            o = _fold_order(ring, [m.factors[g] for m, g in zip(mods, gens)])
                            if o is not None:
                                raw.append((mid, gens))
                                orders.append(o)
                module, to_n, from_n = normalize_orders(ring, orders)
                index = {rg: i for i, rg in enumerate(raw)}
                self._data[(a, c)] = (tuple(raw), index, module, to_n, from_n)
                if not module.is_zero:
                    homs[(a, c)] = module
        self.quiver = Quiver.build(ring, self.vertices, homs)

    def raw_gens(self, a, c):
        return self._data[(a, c)][0]

    def raw_index(self, a, c, path, gens):
        return self._data[(a, c)][1].get((tuple(path), tuple(gens)))

    def hom(self, a, c):
        return self._data[(a, c)][2]

    def to_norm(self, a, c):
        """Raw -> normal change of basis as sparse rows; None when it is the
        identity."""
        return self._data[(a, c)][3]

    def from_norm(self, a, c):
        """Normal -> raw change of basis as sparse rows; None when it is the
        identity."""
        return self._data[(a, c)][4]

    def normalize(self, a, c, raw, source):
        """``raw``, sparse rows from the raw generators of ``source`` at
        (a, c) to this layout's, rewritten between the two normal forms."""
        return change_basis(self.ring, self.to_norm(a, c), raw, source.from_norm(a, c))

    def basis_column(self, a, c, path, gens):
        """Normal-form coordinates of a raw basis generator (as a column)."""
        i = self.raw_index(a, c, path, gens)
        if i is None:
            raise ShapeError(f"no raw generator {path},{gens} in hom ({a},{c})")
        to_n = self.to_norm(a, c)
        ring = self.ring
        if to_n is None:
            return tuple((ring.one() if r == i else ring.zero(),)
                         for r in range(self.hom(a, c).ngens))
        return tuple((row.get(i, ring.zero()),) for row in to_n)


@lru_cache(maxsize=None)
def tensor_layout(ring, vertices, factors):
    """Cached n-ary tensor layout of a tuple of quivers; no factors gives
    the unit layout, whose quiver is I_S."""
    for q in factors:
        if q.ring != ring:
            raise RingMismatchError("tensor over mixed rings")
        if q.vertices != vertices:
            raise ShapeError("tensor over mixed vertex sets")
    return TensorLayout(ring, vertices, factors)


def tensor_s(p, q):
    """Binary quiver tensor P (x)_S Q."""
    return tensor_layout(p.ring, p.vertices, (p, q)).quiver


def _atoms(item):
    """The factors a bracketing item adds to the flat layout: a layout its
    own (none for the unit layout), a quiver itself."""
    return item.factors if isinstance(item, TensorLayout) else (item,)


def _quiver_of(item):
    return item.quiver if isinstance(item, TensorLayout) else item


def _pieces(item, u, v, lead):
    """The (interior vertices, generators) piece that each raw generator of
    ``item`` at (u, v) adds to a flat raw generator; ``lead`` puts the
    boundary vertex u in front of it."""
    head = (u,) if lead else ()
    if isinstance(item, TensorLayout):
        return [(head + mid, gens) for mid, gens in item.raw_gens(u, v)]
    return [(head, (g,)) for g in range(item.hom(u, v).ngens)]


def _leads(items):
    """Per item, whether a boundary vertex precedes its atoms: an item with
    atoms gets one unless it is the first such; a unit item adds none."""
    has = [bool(_atoms(item)) for item in items]
    return [h and any(has[:i]) for i, h in enumerate(has)]


def tensor_quiver_morphisms(ring, vertices, fs, sources=None, targets=None):
    """Tensor of quiver morphisms, between flat layouts.

    ``sources[i]`` (``targets[i]``) brackets the domain (codomain) of
    ``fs[i]``: it is that quiver itself, the default, or a TensorLayout
    whose quiver it is, whose factors then enter the flat layout in its
    place; the layout with no factors stands for I_S and enters none.  The
    result maps the layout of the source atoms to that of the target atoms,
    so the tensor of identities with a bracketing on one side is the
    coherence isomorphism that rebrackets or inserts units.

    Each factor is read on its items' raw generators (through their
    ``from_norm``/``to_norm``).  The raw rows at (a, c) hold the products of
    the nonzero entries of these along each vertex path from a to c, each
    keyed by its flat raw generator; a product of nonzeros whose raw
    generator is absent (its fold order vanishes) is skipped."""
    sources = tuple(f.domain for f in fs) if sources is None else tuple(sources)
    targets = tuple(f.codomain for f in fs) if targets is None else tuple(targets)
    if len(sources) != len(fs) or len(targets) != len(fs):
        raise ShapeError("one source and one target item per factor")
    for f, s, t in zip(fs, sources, targets):
        if _quiver_of(s) != f.domain or _quiver_of(t) != f.codomain:
            raise ShapeError("bracketing item is not the factor's domain or codomain")
    dom = tensor_layout(ring, vertices, tuple(a for s in sources for a in _atoms(s)))
    cod = tensor_layout(ring, vertices, tuple(a for t in targets for a in _atoms(t)))
    dleads, cleads = _leads(sources), _leads(targets)
    zero, one, mul = ring.zero(), ring.one(), ring.mul
    nonzeros = {}

    def entries(i, u, v):
        """(target piece, source piece, value) of each nonzero entry of
        fs[i] at (u, v), read on the raw generators of its items."""
        key = (i, u, v)
        if key not in nonzeros:
            f = fs[i]._comp.get((u, v))
            if f is None:
                nonzeros[key] = []
            else:
                s, t = sources[i], targets[i]
                rows = change_basis(
                    ring, t.from_norm(u, v) if isinstance(t, TensorLayout) else None,
                    f.rows, s.to_norm(u, v) if isinstance(s, TensorLayout) else None)
                cp = _pieces(t, u, v, cleads[i])
                dp = _pieces(s, u, v, dleads[i])
                nonzeros[key] = [(cp[ci], dp[di], x)
                                 for ci, row in enumerate(rows) for di, x in row.items()]
        return nonzeros[key]

    comps = {}
    for a in vertices:
        # partial products keyed by their flat raw generators so far, by the
        # last vertex of their paths from a, extended one factor at a time
        # through the nonzero components only
        walks = {a: [((), (), (), (), one)]}
        for i in range(len(fs)):
            longer = {}
            for u, partial in walks.items():
                for v in vertices:
                    step = []
                    for (cpm, cpg), (dpm, dpg), y in entries(i, u, v):
                        for cm, cg, dm, dg, x in partial:
                            z = mul(x, y)
                            if z != zero:
                                step.append((cm + cpm, cg + cpg, dm + dpm, dg + dpg, z))
                    if step:
                        longer.setdefault(v, []).extend(step)
            walks = longer
        for c, products in walks.items():
            dmod, cmod = dom.hom(a, c), cod.hom(a, c)
            if dmod.is_zero or cmod.is_zero:
                continue
            rows = [{} for _ in cod.raw_gens(a, c)]
            for cm, cg, dm, dg, x in products:
                ri = cod.raw_index(a, c, cm, cg)
                di = dom.raw_index(a, c, dm, dg)
                if ri is not None and di is not None:
                    rows[ri][di] = x
            comps[(a, c)] = Morphism._trusted(dmod, cmod, cod.normalize(a, c, rows, dom))
    return QuiverMorphism.build(dom.quiver, cod.quiver, comps)


# ---------------------------------------------------------------------------
# hom-wise limits and colimits
# ---------------------------------------------------------------------------


class QuiverDiagram(Frozen):
    """Finite diagram of quivers: nodes and arrows (src_index, tgt_index,
    QuiverMorphism)."""

    _fields = ("ring", "vertices", "nodes", "arrows")


class QuiverLimitResult(Frozen):
    """A vertex-pairwise limit: ``hom_limits`` holds ((a, b), LimitResult)."""

    _fields = ("quiver", "cone", "hom_limits")


class QuiverColimitResult(Frozen):
    """A vertex-pairwise colimit: ``hom_colimits`` holds ((a, b),
    ColimitResult)."""

    _fields = ("quiver", "cocone", "hom_colimits")


def _solve_homwise(diagram, solve):
    """Apply ``solve`` (finite_limit or finite_colimit) to the module diagram
    at every vertex pair: (quiver of the solved modules, ((a, b), result))."""
    ring, vertices = diagram.ring, diagram.vertices
    homs = {}
    results = []
    for a in vertices:
        for b in vertices:
            nodes = tuple(q.hom(a, b) for q in diagram.nodes)
            arrows = tuple((s, t, f.comp(a, b)) for s, t, f in diagram.arrows)
            result = solve(ModuleDiagram(ring, nodes, arrows))
            results.append(((a, b), result))
            if not result.module.is_zero:
                homs[(a, b)] = result.module
    return Quiver.build(ring, vertices, homs), tuple(results)


def quiver_limit(diagram):
    """Hom-wise finite limit; the empty diagram yields the zero quiver."""
    quiver, hom_limits = _solve_homwise(diagram, finite_limit)
    cone = tuple(
        QuiverMorphism.build(quiver, node, {ab: lim.cone[i] for ab, lim in hom_limits})
        for i, node in enumerate(diagram.nodes)
    )
    return QuiverLimitResult(quiver, cone, hom_limits)


def quiver_colimit(diagram):
    quiver, hom_colimits = _solve_homwise(diagram, finite_colimit)
    cocone = tuple(
        QuiverMorphism.build(node, quiver, {ab: colim.cocone[i] for ab, colim in hom_colimits})
        for i, node in enumerate(diagram.nodes)
    )
    return QuiverColimitResult(quiver, cocone, hom_colimits)
