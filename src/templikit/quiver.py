"""Quivers of modules over a fixed vertex set and their tensor calculus.

The tensor over the vertex set S is implemented in n-ary form: the hom
(a,c) of Q_1 (x)_S ... (x)_S Q_r is the direct sum over vertex paths
a = b_0, b_1, ..., b_r = c of the module tensors Q_1(b_0,b_1) (x) ... (x)
Q_r(b_{r-1},b_r), with raw generators ordered lexicographically by
(path, generator indices) and then normalized to invariant-factor form.
The layout objects returned here retain the raw/normal change of basis so
that structure matrices can be moved exactly between different bracketings
and across inserted units I_S (``flatten_iso``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .coeff import (
    FREE,
    Module,
    ModuleDiagram,
    Morphism,
    RingMismatchError,
    ShapeError,
    _tensor_factor,
    change_basis,
    finite_colimit,
    finite_limit,
    normalize_orders,
)


@dataclass(frozen=True)
class Quiver:
    """Modules indexed by ordered vertex pairs; absent entries are zero."""

    ring: object
    vertices: tuple
    homs: tuple  # sorted tuple of ((a, b), Module), nonzero modules only

    def __post_init__(self):
        index = {v: i for i, v in enumerate(self.vertices)}
        if len(index) != len(self.vertices):
            raise ShapeError("duplicate vertices")
        seen = []
        for (a, b), mod in self.homs:
            if a not in index or b not in index:
                raise ShapeError(f"hom ({a},{b}) uses unknown vertex")
            if mod.ring != self.ring:
                raise RingMismatchError("hom module over wrong ring")
            seen.append((index[a], index[b]))
        if seen != sorted(seen) or len(set(seen)) != len(seen):
            raise ShapeError("homs not in canonical order")

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
        for (x, y), mod in self.homs:
            if x == a and y == b:
                return mod
        return Module.zero(self.ring)

    @property
    def is_zero(self):
        return not self.homs


@lru_cache(maxsize=None)
def unit_quiver(ring, vertices):
    """I_S: the ring on the diagonal, zero elsewhere."""
    return Quiver.build(ring, vertices, {(v, v): Module.free(ring, 1) for v in vertices})


@dataclass(frozen=True)
class QuiverMorphism:
    """Vertex-pairwise module morphisms between quivers on the same vertices."""

    domain: Quiver
    codomain: Quiver
    components: tuple  # sorted tuple of ((a,b), Morphism), nonzero maps only

    def __post_init__(self):
        if self.domain.ring != self.codomain.ring:
            raise RingMismatchError("quiver morphism over mixed rings")
        if self.domain.vertices != self.codomain.vertices:
            raise ShapeError("quiver morphism must fix the vertex set")
        index = {v: i for i, v in enumerate(self.domain.vertices)}
        cleaned = []
        for (a, b), f in self.components:
            if f.domain != self.domain.hom(a, b) or f.codomain != self.codomain.hom(a, b):
                raise ShapeError(f"component ({a},{b}) inconsistent with quiver homs")
            if not f.is_zero_map:
                cleaned.append(((a, b), f))
        cleaned.sort(key=lambda kv: (index[kv[0][0]], index[kv[0][1]]))
        object.__setattr__(self, "components", tuple(cleaned))

    @staticmethod
    def build(domain, codomain, mapping):
        return QuiverMorphism(domain, codomain, tuple(mapping.items()))

    @staticmethod
    def identity(quiver):
        return QuiverMorphism.build(
            quiver, quiver, {key: Morphism.identity(mod) for key, mod in quiver.homs}
        )

    def comp(self, a, b):
        for (x, y), f in self.components:
            if x == a and y == b:
                return f
        return Morphism.zero(self.domain.hom(a, b), self.codomain.hom(a, b))

    def compose(self, other):
        """self o other."""
        if other.codomain != self.domain:
            raise ShapeError("quiver morphism composition mismatch")
        keys = {k for k, _ in self.components} | {k for k, _ in other.components}
        comps = {}
        for a, b in keys:
            comps[(a, b)] = self.comp(a, b).compose(other.comp(a, b))
        return QuiverMorphism.build(other.domain, self.codomain, comps)

    @property
    def is_zero_map(self):
        return not self.components


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
        """Raw -> normal change of basis; None when it is the identity."""
        return self._data[(a, c)][3]

    def from_norm(self, a, c):
        """Normal -> raw change of basis; None when it is the identity."""
        return self._data[(a, c)][4]

    def normalize(self, a, c, raw, source):
        """``raw``, a matrix from the raw generators of ``source`` at (a, c)
        to this layout's, rewritten between the two normal forms."""
        return change_basis(self.ring, self.to_norm(a, c), raw, source.from_norm(a, c))

    def basis_column(self, a, c, path, gens):
        """Normal-form coordinates of a raw basis generator (as a column)."""
        i = self.raw_index(a, c, path, gens)
        if i is None:
            raise ShapeError(f"no raw generator {path},{gens} in hom ({a},{c})")
        to_n = self.to_norm(a, c)
        if to_n is None:
            ring = self.ring
            return tuple((ring.one() if r == i else ring.zero(),)
                         for r in range(self.hom(a, c).ngens))
        return tuple((row[i],) for row in to_n)


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


def tensor_quiver_morphisms(ring, vertices, fs):
    """Tensor of quiver morphisms between the canonical n-ary layouts."""
    dom = tensor_layout(ring, vertices, tuple(f.domain for f in fs))
    cod = tensor_layout(ring, vertices, tuple(f.codomain for f in fs))
    r = len(fs)
    comps = {}
    for a in vertices:
        for c in vertices:
            draw = dom.raw_gens(a, c)
            craw = cod.raw_gens(a, c)
            dmod, cmod = dom.hom(a, c), cod.hom(a, c)
            if dmod.is_zero or cmod.is_zero:
                continue
            rows = []
            for cpath, cgens in craw:
                cfull = (a,) + cpath + (c,)
                row = []
                for dpath, dgens in draw:
                    if dpath != cpath:
                        row.append(ring.zero())
                        continue
                    x = ring.one()
                    for i in range(r):
                        entry = fs[i].comp(cfull[i], cfull[i + 1]).matrix[cgens[i]][dgens[i]]
                        x = ring.mul(x, entry)
                        if ring.is_zero(x):
                            break
                    row.append(x)
                rows.append(tuple(row))
            comps[(a, c)] = Morphism._trusted(dmod, cmod, cod.normalize(a, c, tuple(rows), dom))
    return QuiverMorphism.build(dom.quiver, cod.quiver, comps)


def _atoms_of(item):
    return tuple(item.factors) if isinstance(item, TensorLayout) else (item,)


@lru_cache(maxsize=None)
def flatten_iso(ring, vertices, items):
    """The coherence isomorphism between a nested tensor and its flat form.

    ``items`` is a tuple of quivers and/or TensorLayouts; the source is the
    layout of the items' quivers (a layout item contributing its normalized
    quiver) and the target the layout of the concatenated atomic factors.
    A layout with no factors stands for I_S and adds no atom, so the
    backward map of ``items`` with such unit layouts is the unit insertion
    TL(atoms) -> TL(items).  Returns (forward, backward) quiver morphisms,
    mutually inverse.
    """
    outer = tensor_layout(ring, vertices, tuple(
        it.quiver if isinstance(it, TensorLayout) else it for it in items
    ))
    flat = tensor_layout(ring, vertices, tuple(atom for it in items for atom in _atoms_of(it)))
    one = ring.one()
    fwd_comps = {}
    bwd_comps = {}
    for a in vertices:
        for c in vertices:
            omod, fmod = outer.hom(a, c), flat.hom(a, c)
            if omod.is_zero and fmod.is_zero:
                continue
            oraw = outer.raw_gens(a, c)
            fraw = flat.raw_gens(a, c)
            expand = [[ring.zero()] * len(oraw) for _ in range(len(fraw))]
            collapse = [[ring.zero()] * len(fraw) for _ in range(len(oraw))]
            for oi, (opath, ogens) in enumerate(oraw):
                ofull = (a,) + opath + (c,)
                choices = []
                for idx, it in enumerate(items):
                    va, vb = ofull[idx], ofull[idx + 1]
                    g = ogens[idx]
                    if isinstance(it, TensorLayout) and it.to_norm(va, vb) is None:
                        ipath, igens = it.raw_gens(va, vb)[g]
                        choices.append([(ipath, igens, one, one)])
                    elif isinstance(it, TensorLayout):
                        from_n = it.from_norm(va, vb)
                        to_n = it.to_norm(va, vb)
                        opts = []
                        for ri, (ipath, igens) in enumerate(it.raw_gens(va, vb)):
                            ce = from_n[ri][g]
                            cc = to_n[g][ri]
                            if ring.is_zero(ce) and ring.is_zero(cc):
                                continue
                            opts.append((ipath, igens, ce, cc))
                        choices.append(opts)
                    else:
                        choices.append([((), (g,), one, one)])
                for combo in product(*choices):
                    interior = []
                    fgens = []
                    ce_total = one
                    cc_total = one
                    for idx, (ipath, igens, ce, cc) in enumerate(combo):
                        if igens:
                            # a boundary vertex before each item with atoms
                            # but the first; a unit item adds none
                            if fgens:
                                interior.append(ofull[idx])
                            interior.extend(ipath)
                            fgens.extend(igens)
                        ce_total = ring.mul(ce_total, ce)
                        cc_total = ring.mul(cc_total, cc)
                    fi = flat.raw_index(a, c, tuple(interior), tuple(fgens))
                    if fi is None:
                        continue
                    if not ring.is_zero(ce_total):
                        expand[fi][oi] = ring.add(expand[fi][oi], ce_total)
                    if not ring.is_zero(cc_total):
                        collapse[oi][fi] = ring.add(collapse[oi][fi], cc_total)
            fwd_mat = flat.normalize(a, c, tuple(map(tuple, expand)), outer)
            bwd_mat = outer.normalize(a, c, tuple(map(tuple, collapse)), flat)
            fwd_comps[(a, c)] = Morphism(omod, fmod, fwd_mat)
            bwd_comps[(a, c)] = Morphism(fmod, omod, bwd_mat)
    fwd = QuiverMorphism.build(outer.quiver, flat.quiver, fwd_comps)
    bwd = QuiverMorphism.build(flat.quiver, outer.quiver, bwd_comps)
    return fwd, bwd


# ---------------------------------------------------------------------------
# hom-wise limits and colimits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuiverDiagram:
    ring: object
    vertices: tuple
    nodes: tuple
    arrows: tuple  # (src_index, tgt_index, QuiverMorphism)


@dataclass(frozen=True)
class QuiverLimitResult:
    quiver: Quiver
    cone: tuple
    hom_limits: tuple  # ((a,b), LimitResult)


@dataclass(frozen=True)
class QuiverColimitResult:
    quiver: Quiver
    cocone: tuple
    hom_colimits: tuple


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
