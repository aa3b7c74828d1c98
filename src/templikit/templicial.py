"""Truncated templicial modules and necklicial modules.

A templicial module stores level quivers X_1..X_N over a fixed vertex set
(X_0 is structurally the unit quiver), inner faces, degeneracies and
comultiplications.  Evaluation on necklaces sends (T,p) to the tensor of the
bead levels; a necklace map acts through its unique active/inert
factorization, the active part by face/degeneracy words and the inert part
by comultiplication words.  Strong unitality is built in: the counit and the
comultiplications with a zero index are not stored, they are the canonical
unit insertions.

A necklicial module stores its values and computes the action of each
necklace map the first time it is asked for: the action is checked once
then and kept on the module, so a check evaluates only the maps it reads.
"""

from __future__ import annotations

from functools import partial

from .coeff import (
    Frozen,
    Module,
    Morphism,
    RingMismatchError,
    ShapeError,
    _set,
    tensor,
    tensor_morphisms,
)
from .necklace import (
    FintMap,
    all_necklace_maps,
    classify_and_factor,
    fint_delta,
    fint_factorize,
    fint_identity,
    fint_sigma,
    necklaces,
    simplex_necklace,
)
from .quiver import QuiverMorphism, tensor_layout, tensor_quiver_morphisms, unit_quiver


class ValidationFailure(Frozen):
    _fields = ("check", "indices", "detail")

    def __str__(self):
        return f"{self.check}{self.indices}: {self.detail}"


class ValidationReport(Frozen):
    _fields = ("subject", "failures")

    @property
    def ok(self):
        return not self.failures

    def __str__(self):
        if self.ok:
            return f"{self.subject}: valid"
        lines = [f"{self.subject}: {len(self.failures)} violation(s)"]
        lines.extend(f"  {f}" for f in self.failures)
        return "\n".join(lines)


def _first_diff(lhs, rhs):
    """Human-readable location of the first differing matrix entry."""
    keys = sorted({k for k, _ in lhs.components} | {k for k, _ in rhs.components}, key=str)
    for a, b in keys:
        fl, fr = lhs.comp(a, b), rhs.comp(a, b)
        if fl.rows != fr.rows or fl.rows and fl.domain.ngens != fr.domain.ngens:
            diff = _first_morphism_diff(fl, fr)
            sep = ": " if diff == "shape difference" else " "
            return f"hom ({a},{b}){sep}{diff}"
    return "no difference"


class TemplicialModule(Frozen):
    """Truncated templicial module over a fixed vertex set.

    ``levels[n-1]`` is the quiver X_n for 1 <= n <= max_level; faces are
    keyed (n, j) for 0 < j < n, degeneracies (n, i) for 0 <= i <= n < N
    (including (0, 0): the unit map I_S -> X_1), comultiplications (k, l)
    for k, l >= 1 with k + l <= N, landing in the binary tensor layout.
    """

    _fields = ("ring", "vertices", "max_level", "levels", "faces", "degeneracies", "comults")

    def __init__(self, ring, vertices, max_level, levels, faces, degeneracies, comults):
        _set(self, "ring", ring)
        _set(self, "vertices", vertices)
        _set(self, "max_level", max_level)
        _set(self, "levels", levels)
        _set(self, "faces", faces)                # sorted ((n, j), QuiverMorphism)
        _set(self, "degeneracies", degeneracies)  # sorted ((n, i), QuiverMorphism)
        _set(self, "comults", comults)            # sorted ((k, l), QuiverMorphism)
        n_levels = max_level
        if n_levels < 1:
            raise ShapeError("max_level must be at least 1")
        if len(self.levels) != n_levels:
            raise ShapeError(f"expected {n_levels} level quivers")
        for q in self.levels:
            if q.ring != self.ring or q.vertices != self.vertices:
                raise RingMismatchError("level quiver over wrong ring or vertices")
        fkeys = {k for k, _ in self.faces}
        expect = {(n, j) for n in range(2, n_levels + 1) for j in range(1, n)}
        if fkeys != expect:
            raise ShapeError(f"face keys {sorted(fkeys)} != expected {sorted(expect)}")
        for (n, j), f in self.faces:
            if f.domain != self.level_quiver(n) or f.codomain != self.level_quiver(n - 1):
                raise ShapeError(f"face ({n},{j}) has wrong endpoints")
        dkeys = {k for k, _ in self.degeneracies}
        expect = {(n, i) for n in range(0, n_levels) for i in range(0, n + 1)}
        if dkeys != expect:
            raise ShapeError(f"degeneracy keys {sorted(dkeys)} != expected {sorted(expect)}")
        for (n, i), f in self.degeneracies:
            if f.domain != self.level_quiver(n) or f.codomain != self.level_quiver(n + 1):
                raise ShapeError(f"degeneracy ({n},{i}) has wrong endpoints")
        ckeys = {k for k, _ in self.comults}
        expect = {(k, l) for k in range(1, n_levels) for l in range(1, n_levels)
                  if k + l <= n_levels}
        if ckeys != expect:
            raise ShapeError(f"comultiplication keys {sorted(ckeys)} != expected {sorted(expect)}")
        for (k, l), f in self.comults:
            target = tensor_layout(self.ring, self.vertices,
                                   (self.level_quiver(k), self.level_quiver(l))).quiver
            if f.domain != self.level_quiver(k + l) or f.codomain != target:
                raise ShapeError(f"comultiplication ({k},{l}) has wrong endpoints")

    @staticmethod
    def build(ring, vertices, max_level, levels, faces, degeneracies, comults):
        return TemplicialModule(
            ring, tuple(vertices), max_level, tuple(levels),
            tuple(sorted(faces.items())), tuple(sorted(degeneracies.items())),
            tuple(sorted(comults.items())),
        )

    def level_quiver(self, n):
        if n == 0:
            return unit_quiver(self.ring, self.vertices)
        return self.levels[n - 1]

    def face(self, n, j):
        for key, f in self.faces:
            if key == (n, j):
                return f
        raise ShapeError(f"no face ({n},{j})")

    def degeneracy(self, n, i):
        for key, f in self.degeneracies:
            if key == (n, i):
                return f
        raise ShapeError(f"no degeneracy ({n},{i})")

    def comult(self, k, l):
        for key, f in self.comults:
            if key == (k, l):
                return f
        raise ShapeError(f"no comultiplication ({k},{l})")

    def with_comult(self, k, l, morphism):
        """Copy with one comultiplication replaced."""
        comults = tuple(((a, b), morphism if (a, b) == (k, l) else f)
                        for (a, b), f in self.comults)
        return TemplicialModule(self.ring, self.vertices, self.max_level,
                                self.levels, self.faces, self.degeneracies, comults)


def _tensor_item(x, n):
    """X_n as a bracketing item of ``tensor_quiver_morphisms``: level 0 is
    the unit layout, which adds no factor, so the slots it fills are unit
    insertions."""
    return tensor_layout(x.ring, x.vertices, ()) if n == 0 else x.level_quiver(n)


class TemplicialEvaluator:
    """Cached evaluation of a templicial module on necklaces and their maps."""

    def __init__(self, x):
        self.x = x
        self._fint = {}
        self._maps = {}
        self._words = {}

    def layout(self, necklace):
        beads = necklace.beads
        return tensor_layout(self.x.ring, self.x.vertices,
                             tuple(self.x.level_quiver(b) for b in beads))

    def eval_necklace(self, necklace):
        if necklace.dim > self.x.max_level:
            raise ShapeError(f"necklace dimension {necklace.dim} exceeds truncation")
        return self.layout(necklace).quiver

    def fint_morphism(self, f):
        """X(f): X_q -> X_p for f: [p] -> [q] in fint."""
        cached = self._fint.get(f)
        if cached is not None:
            return cached
        collapsed, missed = fint_factorize(f)
        q = f.target_dim
        morph = QuiverMorphism.identity(self.x.level_quiver(q))
        level = q
        for j in reversed(missed):
            morph = self.x.face(level, j).compose(morph)
            level -= 1
        for i in collapsed:
            morph = self.x.degeneracy(level, i).compose(morph)
            level += 1
        self._fint[f] = morph
        return morph

    def comult_word(self, n, parts):
        """X_n -> flat tensor of the part levels, peeling from the left."""
        parts = tuple(parts)
        key = (n, parts)
        cached = self._words.get(key)
        if cached is not None:
            return cached
        x = self.x
        if len(parts) == 1:
            morph = QuiverMorphism.identity(x.level_quiver(n))
        else:
            head = parts[0]
            mu = x.comult(head, n - head)
            rest = self.comult_word(n - head, parts[1:])
            rest_layout = tensor_layout(x.ring, x.vertices,
                                        tuple(x.level_quiver(b) for b in parts[1:]))
            paired = tensor_quiver_morphisms(
                x.ring, x.vertices,
                (QuiverMorphism.identity(x.level_quiver(head)), rest),
                targets=(x.level_quiver(head), rest_layout),
            )
            morph = paired.compose(mu)
        self._words[key] = morph
        return morph

    def eval_map(self, f):
        """X(f): X_U -> X_T for a necklace map f: (T,p) -> (U,q)."""
        cached = self._maps.get(f)
        if cached is not None:
            return cached
        x = self.x
        if f.source.dim > x.max_level or f.target.dim > x.max_level:
            raise ShapeError(f"necklace map {f} exceeds truncation {x.max_level}")
        _, active, inert = classify_and_factor(f)

        # inert part (V,q) -> (U,q): comultiplication words refine each U-bead
        v_points = active.target.points
        u = inert.target
        words = []
        layouts = []
        upts = u.points
        for a, b in zip(upts, upts[1:]):
            sub = [t for t in v_points if a <= t <= b]
            parts = tuple(t2 - t1 for t1, t2 in zip(sub, sub[1:]))
            words.append(self.comult_word(b - a, parts))
            layouts.append(tensor_layout(x.ring, x.vertices,
                                         tuple(x.level_quiver(c) for c in parts)))
        if words:
            inert_eval = tensor_quiver_morphisms(x.ring, x.vertices, tuple(words),
                                                 targets=tuple(layouts))
        else:
            q0 = self.layout(u).quiver
            inert_eval = QuiverMorphism.identity(q0)

        # active part (T,p) -> (V,q): face/degeneracy words bead by bead
        tpts = active.source.points
        bead_maps = []
        for t1, t2 in zip(tpts, tpts[1:]):
            values = tuple(active.fint(t) - active.fint(t1) for t in range(t1, t2 + 1))
            bead_maps.append(FintMap(values))
        if bead_maps:
            active_eval = tensor_quiver_morphisms(
                x.ring, x.vertices, tuple(self.fint_morphism(g) for g in bead_maps),
                sources=tuple(_tensor_item(x, g.target_dim) for g in bead_maps))
        else:
            active_eval = QuiverMorphism.identity(self.layout(active.source).quiver)

        result = active_eval.compose(inert_eval)
        self._maps[f] = result
        return result


def evaluator(x):
    """The evaluator of ``x``, kept on the instance, so its caches live and
    die with it."""
    ev = x.__dict__.get("_evaluator")
    if ev is None:
        ev = TemplicialEvaluator(x)
        object.__setattr__(x, "_evaluator", ev)
    return ev


def eval_necklace(x, necklace):
    return evaluator(x).eval_necklace(necklace)


def eval_map(x, f):
    return evaluator(x).eval_map(f)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate_templicial(x):
    """Exact check of the templicial axioms at truncation max_level.

    Simplicial identities among inner faces and degeneracies, coassociativity
    of the comultiplications, and colax naturality are verified by exact
    matrix equality.  Naturality is checked on the generating cofaces and
    codegeneracies in each tensor slot; squares for composite maps follow by
    pasting.  Counitality is structural (the zero-index comultiplications are
    not stored), so there is nothing to check for it.
    """
    n_max = x.max_level
    ev = evaluator(x)
    failures = []

    def record(check, indices, lhs, rhs):
        if lhs != rhs:
            failures.append(ValidationFailure(check, indices, _first_diff(lhs, rhs)))

    # d_i d_j = d_{j-1} d_i for i < j
    for n in range(3, n_max + 1):
        for j in range(2, n):
            for i in range(1, j):
                if i >= n - 1:
                    continue
                lhs = x.face(n - 1, i).compose(x.face(n, j))
                rhs = x.face(n - 1, j - 1).compose(x.face(n, i))
                record("d_i d_j = d_{j-1} d_i", (n, i, j), lhs, rhs)
    # s_i s_j = s_{j+1} s_i for i <= j
    for n in range(0, n_max - 1):
        for j in range(0, n + 1):
            for i in range(0, j + 1):
                lhs = x.degeneracy(n + 1, i).compose(x.degeneracy(n, j))
                rhs = x.degeneracy(n + 1, j + 1).compose(x.degeneracy(n, i))
                record("s_i s_j = s_{j+1} s_i", (n, i, j), lhs, rhs)
    # d_i s_j relations
    for n in range(0, n_max):
        for j in range(0, n + 1):
            for i in range(1, n + 1):
                sj = x.degeneracy(n, j)
                if i < j:
                    if 0 < i < n:
                        lhs = x.face(n + 1, i).compose(sj)
                        rhs = x.degeneracy(n - 1, j - 1).compose(x.face(n, i))
                        record("d_i s_j = s_{j-1} d_i", (n, i, j), lhs, rhs)
                elif i in (j, j + 1):
                    lhs = x.face(n + 1, i).compose(sj)
                    record("d_i s_j = id", (n, i, j), lhs,
                           QuiverMorphism.identity(x.level_quiver(n)))
                else:
                    if 0 < i - 1 < n and j <= n - 1:
                        lhs = x.face(n + 1, i).compose(sj)
                        rhs = x.degeneracy(n - 1, j).compose(x.face(n, i - 1))
                        record("d_i s_j = s_j d_{i-1}", (n, i, j), lhs, rhs)
    # coassociativity
    for k in range(1, n_max + 1):
        for l in range(1, n_max + 1):
            for m in range(1, n_max + 1):
                if k + l + m > n_max:
                    continue
                lhs = ev.comult_word(k + l + m, (k, l, m))
                # left-peeled composite (mu_{k,l} (x) id) o mu_{k+l,m}
                kl_layout = tensor_layout(x.ring, x.vertices,
                                          (x.level_quiver(k), x.level_quiver(l)))
                paired = tensor_quiver_morphisms(
                    x.ring, x.vertices,
                    (x.comult(k, l), QuiverMorphism.identity(x.level_quiver(m))),
                    targets=(kl_layout, x.level_quiver(m)),
                )
                left = paired.compose(x.comult(k + l, m))
                record("coassociativity", (k, l, m), left, lhs)

    # colax naturality on generating maps in each slot
    def generators_into(k):
        gens = []
        for j in range(1, k):
            gens.append(fint_delta(k, j))
        if k + 1 <= n_max:
            for i in range(0, k + 1):
                gens.append(fint_sigma(k, i))
        return gens

    for k in range(0, n_max + 1):
        for l in range(0, n_max + 1):
            if k + l > n_max:
                continue
            for slot in (0, 1):
                target = k if slot == 0 else l
                for gen in generators_into(target):
                    kp = gen.source_dim if slot == 0 else k
                    lp = gen.source_dim if slot == 1 else l
                    if kp < 1 or lp < 1 or kp + lp > n_max:
                        continue
                    f = gen if slot == 0 else fint_identity(k)
                    g = gen if slot == 1 else fint_identity(l)
                    lhs = x.comult(kp, lp).compose(ev.fint_morphism(f.plus(g)))
                    # mu_{k,l} with a zero index is the unit insertion
                    rhs = tensor_quiver_morphisms(
                        x.ring, x.vertices,
                        (ev.fint_morphism(f), ev.fint_morphism(g)),
                        sources=(_tensor_item(x, k), _tensor_item(x, l)),
                    )
                    if k >= 1 and l >= 1:
                        rhs = rhs.compose(x.comult(k, l))
                    record("colax naturality", (k, l, str(f), str(g)), lhs, rhs)

    return ValidationReport("templicial module", tuple(failures))


# ---------------------------------------------------------------------------
# necklicial modules
# ---------------------------------------------------------------------------


def _map_order(f):
    return (f.source.points, f.target.points, f.fint.values)


class NecklicialModule:
    """Contravariant assignment of modules to necklaces of dimension <= N.

    The values Y_T are stored for every necklace.  The action
    Y(f): Y_U -> Y_T of a necklace map f: T -> U is computed by ``source`` the
    first time it is asked for; its endpoints are checked then, once
    (``ShapeError``), and it is kept on this module.  So a check pays only
    for the maps of the index diagrams it reads.  ``maps`` holds the maps that
    have an action (None: every necklace map up to the truncation).
    ``actions``, ``==`` and ``hash`` read every action.

    ``origin``, set by the constructors that derive a module from another
    object, is that object: the module is valid when it is.  The library's
    sources, partials of module-level functions or dict lookups, pickle.
    """

    _hash = None

    def __init__(self, ring, max_level, values, source, maps=None):
        vals = dict(values)
        expect = {t for p in range(max_level + 1) for t in necklaces(p)}
        if set(vals) != expect:
            raise ShapeError("necklicial values must cover all necklaces up to truncation")
        for mod in vals.values():
            if mod.ring != ring:
                raise RingMismatchError("necklicial value over wrong ring")
        self.ring = ring
        self.max_level = max_level
        self.values = tuple(sorted(vals.items(), key=lambda kv: kv[0].points))
        self._values_dict = vals
        self._source = source
        self._maps = maps
        self._memo = {}
        self._actions = None
        self.origin = None

    @staticmethod
    def build(ring, max_level, values, actions):
        """A module with the given actions, each checked here."""
        actions = dict(actions)
        y = NecklicialModule(ring, max_level, values, actions.__getitem__, actions)
        for f in sorted(actions, key=_map_order):
            y.action(f)
        return y

    @property
    def actions(self):
        """((NecklaceMap, Morphism Y_U -> Y_T)) for every map, sorted."""
        if self._actions is None:
            maps = all_necklace_maps(self.max_level) if self._maps is None else self._maps
            self._actions = tuple((f, self.action(f)) for f in sorted(maps, key=_map_order))
        return self._actions

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, NecklicialModule):
            return NotImplemented
        return ((self.ring, self.max_level, self.values, self.actions)
                == (other.ring, other.max_level, other.values, other.actions))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.max_level, self.values, self.actions))
        return self._hash

    __getstate__ = Frozen.__getstate__

    def value(self, necklace):
        return self._values_dict[necklace]

    def _has_action(self, f):
        if self._maps is None:
            return f.source.dim <= self.max_level and f.target.dim <= self.max_level
        return f in self._maps

    def action(self, f):
        mor = self._memo.get(f)
        if mor is None:
            if not self._has_action(f):
                raise ShapeError(f"no action stored for {f}")
            mor = self._source(f)
            vals = self._values_dict
            if mor.domain != vals.get(f.target) or mor.codomain != vals.get(f.source):
                raise ShapeError(f"action of {f} has wrong endpoints")
            self._memo[f] = mor
        return mor

    def level(self, n):
        return self.value(simplex_necklace(n))


def _derived(y, origin):
    """``y``, recorded as computed from ``origin``."""
    y.origin = origin
    return y


def hom_necklicial(x, a, b):
    """The necklicial module X_.(a, b) of a templicial module; the action of
    f is the (a, b) component of X(f)."""
    if a not in x.vertices or b not in x.vertices:
        raise ShapeError(f"unknown vertices ({a},{b})")
    ev = evaluator(x)
    values = {t: ev.layout(t).hom(a, b)
              for p in range(x.max_level + 1) for t in necklaces(p)}
    source = partial(_composite, partial(QuiverMorphism.comp, a=a, b=b), ev.eval_map)
    return _derived(NecklicialModule(x.ring, x.max_level, values, source), x)


def _composite(g, h, f):
    """g(h(f)): a source of two picklable callables."""
    return g(h(f))


def validate_necklicial(y):
    """Exhaustive functoriality check: identities and all composable pairs."""
    failures = []
    maps = [f for f, _ in y.actions]
    by_source = {}
    for f in maps:
        by_source.setdefault(f.source, []).append(f)
    for f in maps:
        if f.is_identity:
            act = y.action(f)
            if act != Morphism.identity(y.value(f.source)):
                failures.append(ValidationFailure(
                    "identity action", (str(f),), "Y(id) is not the identity matrix"))
    for f in maps:
        if f.is_identity:
            continue
        for g in by_source.get(f.target, ()):
            if g.is_identity:
                continue
            composite = g.compose(f)
            expected = y.action(composite)
            got = y.action(f).compose(y.action(g))
            if expected != got:
                failures.append(ValidationFailure(
                    "composition", (str(f), str(g)),
                    f"Y(g o f) != Y(f) o Y(g); first diff "
                    f"{_first_morphism_diff(expected, got)}"))
    return ValidationReport("necklicial module", tuple(failures))


def _first_morphism_diff(lhs, rhs):
    """The first entry, row by row, in which the matrices of two maps
    differ, on the columns they share; else a shape difference."""
    zero = lhs.ring.zero()
    width = min(lhs.domain.ngens, rhs.domain.ngens)
    for i, (rl, rr) in enumerate(zip(lhs.rows, rhs.rows)):
        cols = [j for j in rl.keys() | rr.keys()
                if j < width and rl.get(j, zero) != rr.get(j, zero)]
        if cols:
            j = min(cols)
            return f"entry ({i},{j}): {rl.get(j, zero)!r} != {rr.get(j, zero)!r}"
    return "shape difference"


def tensor_external(y, module):
    """(Y (x) M)_T = Y_T (x) M with the actions tensored by the identity."""
    if module.ring != y.ring:
        raise RingMismatchError("tensor_external over mixed rings")
    ident = Morphism.identity(module)
    values = {t: tensor(mod, module) for t, mod in y.values}
    source = partial(_composite, partial(tensor_morphisms, g=ident), y.action)
    return _derived(NecklicialModule(y.ring, y.max_level, values, source, y._maps), y)


def base_change_necklicial(theta, y):
    values = {t: theta.base_change(mod) for t, mod in y.values}
    source = partial(_composite, theta.base_change_morphism, y.action)
    return _derived(NecklicialModule(theta.target, y.max_level, values, source, y._maps), y)
