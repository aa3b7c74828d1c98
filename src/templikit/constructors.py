"""Producers of templicial modules.

Covers the templicial nerve of a linear category, the free templicial module
on a truncated simplicial set, the built-in examples used throughout the
test corpus, and seeded deterministic generators for property tests.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement

from .coeff import (
    Frozen,
    Module,
    Morphism,
    Ring,
    RingExtension,
    ShapeError,
    _set,
    mat_mul,
)
from .quiver import (
    Quiver,
    QuiverMorphism,
    tensor_layout,
    tensor_quiver_morphisms,
    unit_quiver,
)
from .templicial import NecklicialModule, TemplicialModule


# ---------------------------------------------------------------------------
# truncated simplicial sets
# ---------------------------------------------------------------------------


class SimplicialSetTrunc(Frozen):
    """Finite simplicial set up to a truncation level, with full face data.

    ``face_lookup`` and ``degen_lookup`` hold ``faces`` and ``degens`` as
    dicts keyed by (n, i); they are left out of ``==``, hash and repr."""

    _fields = ("max_level", "simplices", "faces", "degens")

    def __init__(self, max_level, simplices, faces, degens):
        _set(self, "max_level", max_level)
        _set(self, "simplices", simplices)  # per level, a tuple of hashable labels
        _set(self, "faces", faces)          # ((n, i), tuple of indices into level n-1)
        _set(self, "degens", degens)        # ((n, i), tuple of indices into level n+1)
        if len(self.simplices) != self.max_level + 1:
            raise ShapeError("level count must be max_level + 1")
        fkeys = {k for k, _ in self.faces}
        expect = {(n, i) for n in range(1, self.max_level + 1) for i in range(n + 1)}
        if fkeys != expect:
            raise ShapeError("face map keys incomplete")
        dkeys = {k for k, _ in self.degens}
        expect = {(n, i) for n in range(0, self.max_level) for i in range(n + 1)}
        if dkeys != expect:
            raise ShapeError("degeneracy map keys incomplete")
        _set(self, "face_lookup", dict(faces))
        _set(self, "degen_lookup", dict(degens))
        self._check_identities()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.max_level, self.simplices, self.faces, self.degens)
                == (other.max_level, other.simplices, other.faces, other.degens))

    def __hash__(self):
        return hash((self.max_level, self.simplices, self.faces, self.degens))

    def _check_identities(self):
        face, degen = self.face_lookup, self.degen_lookup
        n_max = self.max_level
        for n in range(2, n_max + 1):
            for j in range(n + 1):
                for i in range(j):
                    for idx in range(len(self.simplices[n])):
                        lhs = face[(n - 1, i)][face[(n, j)][idx]]
                        rhs = face[(n - 1, j - 1)][face[(n, i)][idx]]
                        if lhs != rhs:
                            raise ShapeError(f"simplicial identity d{i} d{j} fails at level {n}")
        for n in range(0, n_max - 1):
            for j in range(n + 1):
                for i in range(j + 1):
                    for idx in range(len(self.simplices[n])):
                        lhs = degen[(n + 1, i)][degen[(n, j)][idx]]
                        rhs = degen[(n + 1, j + 1)][degen[(n, i)][idx]]
                        if lhs != rhs:
                            raise ShapeError(f"simplicial identity s{i} s{j} fails at level {n}")
        for n in range(0, n_max):
            for j in range(n + 1):
                for i in range(n + 2):
                    for idx in range(len(self.simplices[n])):
                        got = face[(n + 1, i)][degen[(n, j)][idx]]
                        if i == j or i == j + 1:
                            if got != idx:
                                raise ShapeError(f"d{i} s{j} != id at level {n}")
                        elif i < j:
                            if got != degen[(n - 1, j - 1)][face[(n, i)][idx]]:
                                raise ShapeError(f"d{i} s{j} identity fails at level {n}")
                        else:
                            if got != degen[(n - 1, j)][face[(n, i - 1)][idx]]:
                                raise ShapeError(f"d{i} s{j} identity fails at level {n}")

    def vertex(self, n, idx, k):
        """Index (in level 0) of the k-th vertex of a simplex."""
        face = self.face_lookup
        level = n
        while level > k:
            idx = face[(level, level)][idx]
            level -= 1
        while level > 0:
            idx = face[(level, 0)][idx]
            level -= 1
        return idx

    def first_vertex(self, n, idx):
        return self.vertex(n, idx, 0)

    def last_vertex(self, n, idx):
        return self.vertex(n, idx, n)

    def degeneracy_split(self, n, idx):
        """(i, y) with s_i(y) = simplex, minimal i; None if nondegenerate."""
        degen = self.degen_lookup
        for i in range(n):
            col = degen[(n - 1, i)]
            for y, image in enumerate(col):
                if image == idx:
                    return i, y
        return None

    def relabel_vertices(self, names):
        if len(names) != len(self.simplices[0]):
            raise ShapeError("relabel needs one name per vertex")
        levels = (tuple(names),) + self.simplices[1:]
        return SimplicialSetTrunc(self.max_level, levels, self.faces, self.degens)


def _tuple_complex(max_level, level_sets):
    """Simplicial set whose m-simplices are tuples closed under face/degeneracy."""
    index = [
        {s: i for i, s in enumerate(level)} for level in level_sets
    ]
    faces = {}
    degens = {}
    for n in range(1, max_level + 1):
        for i in range(n + 1):
            col = []
            for s in level_sets[n]:
                t = s[:i] + s[i + 1:]
                col.append(index[n - 1][t])
            faces[(n, i)] = tuple(col)
    for n in range(0, max_level):
        for i in range(n + 1):
            col = []
            for s in level_sets[n]:
                t = s[: i + 1] + s[i:]
                col.append(index[n + 1][t])
            degens[(n, i)] = tuple(col)
    return SimplicialSetTrunc(
        max_level, tuple(tuple(level) for level in level_sets),
        tuple(sorted(faces.items())), tuple(sorted(degens.items())),
    )


def sset_simplex(n, max_level):
    levels = [
        tuple(combinations_with_replacement(range(n + 1), m + 1))
        for m in range(max_level + 1)
    ]
    return _tuple_complex(max_level, levels)


def sset_boundary(n, max_level):
    full = set(range(n + 1))
    levels = [
        tuple(s for s in combinations_with_replacement(range(n + 1), m + 1)
              if set(s) != full)
        for m in range(max_level + 1)
    ]
    return _tuple_complex(max_level, levels)


def sset_horn(n, j, max_level):
    if not 0 <= j <= n:
        raise ShapeError(f"horn index {j} out of range for Delta^{n}")
    need = set(range(n + 1)) - {j}
    levels = [
        tuple(s for s in combinations_with_replacement(range(n + 1), m + 1)
              if not need <= set(s))
        for m in range(max_level + 1)
    ]
    return _tuple_complex(max_level, levels)


def sset_nerve_of_poset(elements, relation, max_level):
    """Nerve of the poset given by generating pairs (reflexive-transitive closure)."""
    elements = tuple(elements)
    leq = {(a, a) for a in elements} | set(relation)
    changed = True
    while changed:
        changed = False
        for a, b in list(leq):
            for c, d in list(leq):
                if b == c and (a, d) not in leq:
                    leq.add((a, d))
                    changed = True
    levels = []
    for m in range(max_level + 1):
        level = []
        for chain in combinations_with_replacement(range(len(elements)), m + 1):
            labeled = tuple(elements[i] for i in chain)
            if all((x, y) in leq for x, y in zip(labeled, labeled[1:])):
                level.append(labeled)
        levels.append(tuple(level))
    return _tuple_complex(max_level, levels)


def sset_glue(a, b, a_anchor, b_anchor):
    """Pushout of A and B along the subcomplexes generated by two simplices.

    ``a_anchor`` and ``b_anchor`` are (level, index) pairs of matching
    simplices; their iterated faces and degeneracies are identified.
    """
    if a.max_level != b.max_level:
        raise ShapeError("glue requires equal truncations")
    n_max = a.max_level
    (la, ia), (lb, ib) = a_anchor, b_anchor
    if la != lb:
        raise ShapeError("glued simplices must have equal dimension")
    aface, adeg = a.face_lookup, a.degen_lookup
    bface, bdeg = b.face_lookup, b.degen_lookup
    ident = {}
    work = [(la, ia, ib)]
    seen = set()
    while work:
        n, xa, xb = work.pop()
        if (n, xb) in seen:
            if ident[(n, xb)] != xa:
                raise ShapeError("inconsistent gluing data")
            continue
        seen.add((n, xb))
        ident[(n, xb)] = xa
        if n >= 1:
            for i in range(n + 1):
                work.append((n - 1, aface[(n, i)][xa], bface[(n, i)][xb]))
        if n < n_max:
            for i in range(n + 1):
                work.append((n + 1, adeg[(n, i)][xa], bdeg[(n, i)][xb]))

    levels = []
    b_offset = []
    for n in range(n_max + 1):
        labels = [f"A:{s}" for s in a.simplices[n]]
        remap = {}
        for i, s in enumerate(b.simplices[n]):
            if (n, i) in ident:
                remap[i] = ident[(n, i)]
            else:
                remap[i] = len(labels)
                labels.append(f"B:{s}")
        b_offset.append(remap)
        levels.append(tuple(labels))

    faces = {}
    degens = {}
    for n in range(1, n_max + 1):
        for i in range(n + 1):
            col = list(aface[(n, i)])
            for bi in range(len(b.simplices[n])):
                if b_offset[n][bi] >= len(a.simplices[n]):
                    col.append(b_offset[n - 1][bface[(n, i)][bi]])
            faces[(n, i)] = tuple(col)
    for n in range(0, n_max):
        for i in range(n + 1):
            col = list(adeg[(n, i)])
            for bi in range(len(b.simplices[n])):
                if b_offset[n][bi] >= len(a.simplices[n]):
                    col.append(b_offset[n + 1][bdeg[(n, i)][bi]])
            degens[(n, i)] = tuple(col)
    return SimplicialSetTrunc(
        n_max, tuple(levels), tuple(sorted(faces.items())), tuple(sorted(degens.items())),
    )


def sset_build(kind, max_level, **params):
    """Uniform builder: simplex, boundary, horn, nerve_of_poset, glue."""
    if kind == "simplex":
        return sset_simplex(params["n"], max_level)
    if kind == "boundary":
        return sset_boundary(params["n"], max_level)
    if kind == "horn":
        return sset_horn(params["n"], params["j"], max_level)
    if kind == "nerve_of_poset":
        return sset_nerve_of_poset(params["elements"], params["relation"], max_level)
    if kind == "glue":
        return sset_glue(params["a"], params["b"], params["a_anchor"], params["b_anchor"])
    raise ShapeError(f"unknown simplicial set kind {kind!r}")


# ---------------------------------------------------------------------------
# free templicial modules
# ---------------------------------------------------------------------------


def _free_level_quiver(ring, vertices, table):
    """The free quiver with one generator per simplex of a level, given the
    level's :func:`_free_gen_table`."""
    return Quiver.build(ring, vertices, {
        (vertices[ai], vertices[bi]): Module.free(ring, len(gens))
        for (ai, bi), gens in table.items()})


def _free_gen_table(k, n):
    """Per (a_idx, b_idx): ordered list of level-n simplex indices."""
    table = {}
    for idx in range(len(k.simplices[n])):
        key = (k.first_vertex(n, idx), k.last_vertex(n, idx))
        table.setdefault(key, []).append(idx)
    return table


def _basis_morphism(ring, dom_quiver, cod_quiver, dom_table, cod_table, vertices, mapping):
    """QuiverMorphism sending each basis simplex to a basis simplex."""
    comps = {}
    for (ai, bi), dom_list in dom_table.items():
        a, b = vertices[ai], vertices[bi]
        dom = dom_quiver.hom(a, b)
        cod = cod_quiver.hom(a, b)
        cod_list = cod_table.get((ai, bi), [])
        pos = {idx: r for r, idx in enumerate(cod_list)}
        cols = []
        for idx in dom_list:
            target = mapping[idx]
            col = [ring.zero()] * len(cod_list)
            col[pos[target]] = ring.one()
            cols.append(col)
        mat = tuple(tuple(col[i] for col in cols) for i in range(len(cod_list)))
        comps[(a, b)] = Morphism(dom, cod, mat)
    return QuiverMorphism.build(dom_quiver, cod_quiver, comps)


def _front_face(k, n, idx, depth):
    """Apply the top outer face ``depth`` times."""
    face = k.face_lookup
    level = n
    for _ in range(depth):
        idx = face[(level, level)][idx]
        level -= 1
    return idx


def _back_face(k, n, idx, depth):
    face = k.face_lookup
    level = n
    for _ in range(depth):
        idx = face[(level, 0)][idx]
        level -= 1
    return idx


def free_templicial(k, ring, max_level):
    """The free templicial module on a truncated simplicial set."""
    if max_level > k.max_level:
        raise ShapeError("free_templicial: truncation exceeds the simplicial set's")
    vertices = k.simplices[0]
    tables = {n: _free_gen_table(k, n) for n in range(0, max_level + 1)}
    levels = tuple(_free_level_quiver(ring, vertices, tables[n]) for n in range(1, max_level + 1))
    quivers = {n: (unit_quiver(ring, vertices) if n == 0 else levels[n - 1])
               for n in range(0, max_level + 1)}

    faces = {}
    for n in range(2, max_level + 1):
        for j in range(1, n):
            faces[(n, j)] = _basis_morphism(
                ring, quivers[n], quivers[n - 1], tables[n], tables[n - 1], vertices,
                k.face_lookup[(n, j)],
            )
    degens = {}
    for n in range(0, max_level):
        src_table = tables[n] if n > 0 else {
            (i, i): [i] for i in range(len(vertices))
        }
        for i in range(0, n + 1):
            degens[(n, i)] = _basis_morphism(
                ring, quivers[n], quivers[n + 1], src_table, tables[n + 1], vertices,
                k.degen_lookup[(n, i)],
            )
    comults = {}
    for kk in range(1, max_level):
        for ll in range(1, max_level + 1 - kk):
            n = kk + ll
            layout = tensor_layout(ring, vertices, (quivers[kk], quivers[ll]))
            comps = {}
            for (ai, bi), dom_list in tables[n].items():
                a, b = vertices[ai], vertices[bi]
                dom = quivers[n].hom(a, b)
                cod = layout.hom(a, b)
                cols = []
                for idx in dom_list:
                    front = _front_face(k, n, idx, n - kk)
                    back = _back_face(k, n, idx, kk)
                    mid = vertices[k.last_vertex(kk, front)]
                    fpos = tables[kk][(ai, k.last_vertex(kk, front))].index(front)
                    bpos = tables[ll][(k.first_vertex(ll, back), bi)].index(back)
                    col = layout.basis_column(a, b, (mid,), (fpos, bpos))
                    cols.append(tuple(row[0] for row in col))
                mat = tuple(tuple(col[i] for col in cols) for i in range(cod.ngens))
                comps[(a, b)] = Morphism(dom, cod, mat)
            comults[(kk, ll)] = QuiverMorphism.build(quivers[n], layout.quiver, comps)

    return TemplicialModule.build(ring, vertices, max_level, levels, faces, degens, comults)


# ---------------------------------------------------------------------------
# linear categories and nerves
# ---------------------------------------------------------------------------


class LinearCategory(Frozen):
    """A category enriched in modules: hom quiver, composition, units."""

    _fields = ("quiver", "composition", "units")

    def __init__(self, quiver, composition, units):
        _set(self, "quiver", quiver)
        _set(self, "composition", composition)  # (C (x)_S C) -> C
        _set(self, "units", units)              # I_S -> C
        ring, vertices = quiver.ring, quiver.vertices
        pair = tensor_layout(ring, vertices, (quiver, quiver))
        if composition.domain != pair.quiver or composition.codomain != quiver:
            raise ShapeError("composition endpoints wrong")
        if units.domain != unit_quiver(ring, vertices) or units.codomain != quiver:
            raise ShapeError("unit endpoints wrong")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.quiver, self.composition, self.units)
                == (other.quiver, other.composition, other.units))

    def __hash__(self):
        return hash((self.quiver, self.composition, self.units))

    @property
    def ring(self):
        return self.quiver.ring

    @property
    def objects(self):
        return self.quiver.vertices

    def validate(self):
        """Associativity and unitality as exact matrix identities."""
        ring, vertices = self.ring, self.objects
        c = self.quiver
        m = self.composition
        pair = tensor_layout(ring, vertices, (c, c))
        unit = tensor_layout(ring, vertices, ())
        ident = QuiverMorphism.identity(c)

        def m_after(fs, sources):
            return m.compose(tensor_quiver_morphisms(ring, vertices, fs, sources=sources))

        if m_after((m, ident), (pair, c)) != m_after((ident, m), (c, pair)):
            raise ShapeError("composition is not associative")
        lu = m_after((self.units, ident), (unit, c))
        ru = m_after((ident, self.units), (c, unit))
        if lu != ident or ru != ident:
            raise ShapeError("units are not two-sided identities")
        return True


def algebra_category(ring, structure, vertex="*"):
    """One-object linear category from structure constants.

    ``structure[i][j]`` is the coefficient column (over the basis) of the
    product e_i * e_j; the unit must be the first basis vector.
    """
    rank = len(structure)
    mod = Module.free(ring, rank)
    c = Quiver.build(ring, (vertex,), {(vertex, vertex): mod})
    pair = tensor_layout(ring, (vertex,), (c, c))
    dom = pair.hom(vertex, vertex)
    cols = []
    for i in range(rank):
        for j in range(rank):
            cols.append(tuple(structure[i][j]))
    mat = tuple(tuple(col[r] for col in cols) for r in range(rank))
    comp = Morphism(dom, mod, mat)
    unit_col = tuple((ring.one() if r == 0 else ring.zero(),) for r in range(rank))
    units = Morphism(Module.free(ring, 1), mod, unit_col)
    cat = LinearCategory(
        c,
        QuiverMorphism.build(pair.quiver, c, {(vertex, vertex): comp}),
        QuiverMorphism.build(unit_quiver(ring, (vertex,)), c,
                             {(vertex, vertex): units}),
    )
    cat.validate()
    return cat


def truncated_polynomial_category(ring, relation_coeffs, vertex="*"):
    """R[x]/(x^r - c_{r-1} x^{r-1} - ... - c_0) as a one-object category."""
    rank = len(relation_coeffs) + 0
    r = len(relation_coeffs)
    # basis 1, x, ..., x^{r-1}; x^r = sum c_t x^t
    def reduce_power(e):
        # coefficients of x^e reduced below degree r
        vec = [ring.zero()] * r
        if e < r:
            vec[e] = ring.one()
            return vec
        high = reduce_power(e - 1)
        # multiply by x
        shifted = [ring.zero()] + high[: r - 1]
        top = high[r - 1]
        if not ring.is_zero(top):
            for t in range(r):
                shifted[t] = ring.add(shifted[t], ring.mul(top, relation_coeffs[t]))
        return shifted

    structure = []
    for i in range(r):
        row = []
        for j in range(r):
            row.append(tuple(reduce_power(i + j)))
        structure.append(row)
    return algebra_category(ring, structure, vertex)


def nerve(category, max_level):
    """The templicial nerve: levels C^{(x)_S n} with multiplication faces."""
    ring = category.ring
    vertices = category.objects
    c = category.quiver
    m = category.composition
    u = category.units
    layouts = {n: tensor_layout(ring, vertices, (c,) * n) for n in range(1, max_level + 1)}
    levels = tuple(layouts[n].quiver for n in range(1, max_level + 1))
    unit = tensor_layout(ring, vertices, ())
    pair = tensor_layout(ring, vertices, (c, c))
    faces = {}
    for n in range(2, max_level + 1):
        for j in range(1, n):
            parts = ([QuiverMorphism.identity(c)] * (j - 1) + [m]
                     + [QuiverMorphism.identity(c)] * (n - j - 1))
            faces[(n, j)] = tensor_quiver_morphisms(
                ring, vertices, tuple(parts),
                sources=(c,) * (j - 1) + (pair,) + (c,) * (n - j - 1))
    degens = {}
    for n in range(0, max_level):
        for i in range(0, n + 1):
            parts = ([QuiverMorphism.identity(c)] * i + [u]
                     + [QuiverMorphism.identity(c)] * (n - i))
            degens[(n, i)] = tensor_quiver_morphisms(
                ring, vertices, tuple(parts), sources=(c,) * i + (unit,) + (c,) * (n - i))
    comults = {}
    for k in range(1, max_level):
        for l in range(1, max_level + 1 - k):
            comults[(k, l)] = tensor_quiver_morphisms(
                ring, vertices,
                (QuiverMorphism.identity(levels[k - 1]), QuiverMorphism.identity(levels[l - 1])),
                sources=(layouts[k], layouts[l]))
    return TemplicialModule.build(ring, vertices, max_level, levels, faces, degens, comults)


# ---------------------------------------------------------------------------
# built-in examples
# ---------------------------------------------------------------------------


def _constant_templicial(ring, scale_s0, scale_mu, max_level):
    """One-vertex templicial module with X_n = R and scalar structure maps."""
    vertex = "*"
    vertices = (vertex,)
    mod = Module.free(ring, 1)
    q = Quiver.build(ring, vertices, {(vertex, vertex): mod})
    levels = (q,) * max_level
    one = ring.one()

    def scalar(dom_q, cod_q, value):
        return QuiverMorphism.build(dom_q, cod_q, {
            (vertex, vertex): Morphism(dom_q.hom(vertex, vertex),
                                       cod_q.hom(vertex, vertex), ((value,),)),
        })

    unit = unit_quiver(ring, vertices)
    faces = {}
    for n in range(2, max_level + 1):
        for j in range(1, n):
            faces[(n, j)] = scalar(q, q, one)
    degens = {}
    for n in range(0, max_level):
        for i in range(0, n + 1):
            dom = unit if n == 0 else q
            value = scale_s0 if (n, i) == (0, 0) else one
            degens[(n, i)] = scalar(dom, q, value)
    comults = {}
    for k in range(1, max_level):
        for l in range(1, max_level + 1 - k):
            layout = tensor_layout(ring, vertices, (q, q))
            comults[(k, l)] = QuiverMorphism.build(q, layout.quiver, {
                (vertex, vertex): Morphism(mod, layout.hom(vertex, vertex),
                                           ((scale_mu,),)),
            })
    return TemplicialModule.build(ring, vertices, max_level, levels, faces, degens, comults)


def s0_times_2(max_level=3):
    """One-vertex instance over Z whose bottom degeneracy is multiplication by 2.

    Colax naturality forces every comultiplication to be x2 as well (the
    square for the unique collapse [1] -> [0] pins them), so that is the
    minimal consistent extension; deg-projectivity still fails at level 1
    with cokernel Z/2.
    """
    return _constant_templicial(Ring.integers(), 2, 2, max_level)


def paper_p_sset(max_level=3):
    """Delta^2 glued to the boundary of a second triangle along the long edge."""
    a = sset_simplex(2, max_level)
    b = sset_boundary(2, max_level)
    edge_a = a.simplices[1].index((0, 2))
    edge_b = b.simplices[1].index((0, 2))
    glued = sset_glue(a, b, (1, edge_a), (1, edge_b))
    names = []
    for label in glued.simplices[0]:
        names.append({"A:(0,)": "a", "A:(1,)": "b1", "A:(2,)": "c", "B:(1,)": "b2"}[label])
    return glued.relabel_vertices(names)


def paper_p(max_level=3, p=2):
    return free_templicial(paper_p_sset(max_level), Ring.prime_field(p), max_level)


def _deform_mu11(k, x, idx, column):
    """The free templicial module ``x`` on ``k`` with ``column`` added to the
    (1, 1) comultiplication at the 2-simplex ``idx``.

    Colax naturality carries the correction to the degenerate simplices: at
    s_i y it adds (s_i (x) id) c_{k-1,l}(y) to c_{k,l} when i < k and
    (id (x) s_{i-k}) c_{k,l-1}(y) otherwise.  Where the peeled index k-1 or
    l-1 is 0, c is a unit insertion and adds nothing.  These rules are
    linear and the free comultiplication obeys them, so the result is x plus
    the carried correction.
    """
    ring, vertices = x.ring, x.vertices
    zero = ring.zero()
    carried = {(1, 1): {idx: column}}
    for n in range(3, x.max_level + 1):
        for s in range(len(k.simplices[n])):
            split = k.degeneracy_split(n, s)
            if split is None:
                continue
            i, y = split
            a, b = vertices[k.first_vertex(n, s)], vertices[k.last_vertex(n, s)]
            for kk in range(1, n):
                ll = n - kk
                prev = carried.get((kk - 1, ll) if i < kk else (kk, ll - 1), {}).get(y)
                if prev is None:
                    continue
                parts = ((x.degeneracy(kk - 1, i), QuiverMorphism.identity(x.level_quiver(ll)))
                         if i < kk else
                         (QuiverMorphism.identity(x.level_quiver(kk)), x.degeneracy(ll - 1, i - kk)))
                step = tensor_quiver_morphisms(ring, vertices, parts).comp(a, b).rows
                column = mat_mul(ring, step, [{0: v} if v != zero else {} for v in prev])
                carried.setdefault((kk, ll), {})[s] = tuple(row.get(0, zero) for row in column)

    comults = dict(x.comults)
    for (kk, ll), cols in carried.items():
        mu = comults[(kk, ll)]
        comps = dict(mu.components)
        for (ai, bi), gens in _free_gen_table(k, kk + ll).items():
            if not any(s in cols for s in gens):
                continue
            a, b = vertices[ai], vertices[bi]
            zero = (ring.zero(),) * mu.codomain.hom(a, b).ngens
            by_col = [cols.get(s, zero) for s in gens]
            extra = Morphism(mu.domain.hom(a, b), mu.codomain.hom(a, b),
                             tuple(zip(*by_col)))
            comps[(a, b)] = mu.comp(a, b) + extra
        comults[(kk, ll)] = QuiverMorphism.build(mu.domain, mu.codomain, comps)
    return TemplicialModule.build(ring, vertices, x.max_level, x.levels,
                                  dict(x.faces), dict(x.degeneracies), comults)


def paper_p_deformed(max_level=3, p=2):
    """First-order deformation of paper_p over F_p[e]/(e^2).

    The free templicial module on :func:`paper_p_sset` over F_p[e]/(e^2),
    with the comultiplication of the 2-simplex alpha changed to
    f1 (x) g1 + e * f2 (x) g2; colax naturality carries the correction
    e * f2 (x) g2 to the comultiplications of the degeneracies of alpha, and
    every other structure map is the scalar lift of the special fiber.
    Returns (extension, deformed, fiber).
    """
    ring_k = Ring.prime_field(p)
    ring_r = Ring.dual_chain(p, 2)
    sset = paper_p_sset(max_level)
    free = free_templicial(sset, ring_r, max_level)
    vertices = sset.simplices[0]
    table = _free_gen_table(sset, 1)

    alpha = sset.simplices[2].index("A:(0, 1, 2)")
    f2 = sset.simplices[1].index("B:(0, 1)")
    g2 = sset.simplices[1].index("B:(1, 2)")
    a_i, b2_i, c_i = (vertices.index(v) for v in ("a", "b2", "c"))
    layout = tensor_layout(ring_r, vertices, (free.level_quiver(1), free.level_quiver(1)))
    col = layout.basis_column("a", "c", ("b2",), (table[(a_i, b2_i)].index(f2),
                                                  table[(b2_i, c_i)].index(g2)))
    extra = tuple(ring_r.mul(ring_r.uniformizer, row[0]) for row in col)
    deformed = _deform_mu11(sset, free, alpha, extra)
    return RingExtension(ring_r, ring_k), deformed, free_templicial(sset, ring_k, max_level)


def builtin(name, max_level=None):
    """Built-in instances; paper_P_deformed returns a DeformationPair."""
    if name == "s0_times_2":
        return s0_times_2(max_level or 3)
    if name == "paper_P":
        return paper_p(max_level or 3)
    if name == "paper_P_deformed":
        from .deform import DeformationPair

        theta, deformed, fiber = paper_p_deformed(max_level or 3)
        return DeformationPair(theta, deformed, fiber)
    raise ShapeError(f"unknown builtin {name!r}")


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------


def _random_poset_sset(rng, size, max_level):
    elements = tuple(f"v{i}" for i in range(size))
    relation = []
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.6:
                relation.append((elements[i], elements[j]))
    return sset_nerve_of_poset(elements, relation, max_level)


def _random_invertible(ring, n, rng, steps=6):
    """A product of elementary matrices together with its inverse."""
    u = [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]
    uinv = [list(r) for r in u]
    for _ in range(steps if n > 1 else 0):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = ring.from_int(rng.randint(-2, 2))
        for t in range(n):
            u[i][t] = ring.add(u[i][t], ring.mul(c, u[j][t]))
        nc = ring.neg(c)
        for t in range(n):
            uinv[t][j] = ring.add(uinv[t][j], ring.mul(nc, uinv[t][i]))
    return tuple(tuple(r) for r in u), tuple(tuple(r) for r in uinv)


def generate(seed, profile, **params):
    """Deterministic test-corpus instances.

    Profiles: ``nerve-of-random-algebra`` (p, rank, max_level),
    ``free-on-random-quasicat`` (p, size, max_level) and
    ``random-necklicial-perturbation`` (instance: a NecklicialModule).
    """
    rng = random.Random(seed)
    if profile == "nerve-of-random-algebra":
        p = params.get("p", 5)
        rank = params.get("rank", 2)
        max_level = params.get("max_level", 3)
        ring = Ring.prime_field(p)
        coeffs = tuple(ring.from_int(rng.randrange(p)) for _ in range(rank))
        cat = truncated_polynomial_category(ring, coeffs)
        return nerve(cat, max_level)
    if profile == "free-on-random-quasicat":
        p = params.get("p", 2)
        size = params.get("size", 3)
        max_level = params.get("max_level", 3)
        sset = _random_poset_sset(rng, size, max_level)
        return free_templicial(sset, Ring.prime_field(p), max_level)
    if profile == "random-necklicial-perturbation":
        y = params["instance"]
        ring = y.ring
        basis = {}
        for t, mod in y.values:
            if not mod.is_flat():
                basis[t] = (Morphism.identity(mod), Morphism.identity(mod))
                continue
            u, uinv = _random_invertible(ring, mod.ngens, rng)
            basis[t] = (Morphism(mod, mod, u), Morphism(mod, mod, uinv))
        values = dict(y.values)
        actions = {}
        for f, mor in y.actions:
            ct, _ = basis[f.source]
            _, cu_inv = basis[f.target]
            actions[f] = ct.compose(mor).compose(cu_inv)
        perturbed = NecklicialModule.build(ring, y.max_level, values, actions)
        perturbed.origin = y  # a change of basis at each necklace: valid when y is
        return perturbed
    raise ShapeError(f"unknown generator profile {profile!r}")
