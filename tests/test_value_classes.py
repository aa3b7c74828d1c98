"""The value classes are plain classes that take ``__eq__``, ``__hash__``
and a positional fields-only ``__init__`` from ``coeff.Frozen``; only the
classes listed here write their own.  These tests pin what callers rely on:
equality and hashing on the listed fields, ``NotImplemented`` against other
classes, immutability, the constructor defaults and arity, the computed and
excluded fields, a ``Class(field=value, ...)`` repr, and hashes that follow
a pickled value into a process with another hash seed.  Importing the CLI
must not import ``dataclasses`` or ``inspect``."""

import json
import os
import pickle
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

from templikit.coeff import (
    ColimitResult,
    DirectSum,
    Frozen,
    LimitResult,
    Module,
    ModuleDiagram,
    Morphism,
    Ring,
    RingExtension,
    SmithResult,
    _LimitEquations,
)
from templikit.constructors import (
    LinearCategory,
    SimplicialSetTrunc,
    free_templicial,
    paper_p,
    sset_simplex,
    truncated_polynomial_category,
)
from templikit.deform import (
    DeformationPair,
    NecklicialExtension,
    build_extension,
    check_extension_weak_kan,
    extension_sequence,
)
from templikit.kan import (
    CheckItem,
    CheckReport,
    TruncatedWing,
    check_deg_projective,
    check_quasicategory,
    check_weak_kan,
)
from templikit.necklace import FintMap, IndexDiagram, Necklace, NecklaceMap
from templikit.quiver import (
    Quiver,
    QuiverColimitResult,
    QuiverDiagram,
    QuiverLimitResult,
    QuiverMorphism,
)
from templikit.templicial import (
    TemplicialModule,
    ValidationFailure,
    ValidationReport,
    base_change_necklicial,
    hom_necklicial,
    tensor_external,
)

SRC = Path(__file__).resolve().parents[1] / "src"

Z = Ring.integers()
F3 = Ring.prime_field(3)
Z4 = Ring.chain(2, 2)
Z1 = Module.free(Z, 1)
M = Module(Z, (2, 0))


def _copy(x):
    """A new instance built from the fields of ``x``."""
    return type(x)(*(getattr(x, name) for name in x._fields))


def _quiver():
    return Quiver.build(Z, ("a", "b"), {("a", "b"): M, ("b", "b"): Z1})


@cache
def _templicial():
    return free_templicial(sset_simplex(1, 2), F3, 2)


@cache
def _extension():
    x = free_templicial(sset_simplex(1, 2), Z4, 2)
    return extension_sequence(RingExtension(Z4, Ring.prime_field(2)),
                              hom_necklicial(x, (0,), (0,)))


@cache
def _sset():
    return sset_simplex(1, 2)


@cache
def _category():
    return truncated_polynomial_category(F3, (1, 2))


# class, its fields in repr order, and a builder of a fresh instance whose
# fields are equal on every call
CLASSES = [
    (Ring, ("kind", "p", "m"), lambda: Ring("chain", 3, 2)),
    (SmithResult, ("d", "left", "row_transform", "col_transform"),
     lambda: SmithResult([1, 2], left=[{0: 1}, {1: 1}])),
    (Module, ("ring", "factors"), lambda: Module(Z, (2, 0))),
    (Morphism, ("domain", "codomain", "rows"), lambda: Morphism(Z1, M, [[0], [3]])),
    (DirectSum, ("module", "summands", "to_norm", "from_norm"),
     lambda: DirectSum(Module.free(Z, 2), (Z1, Z1), None, None)),
    (RingExtension, ("source", "target", "kernel_exponent", "small"),
     lambda: RingExtension(Ring.chain(3, 4), Ring.chain(3, 2))),
    (ModuleDiagram, ("ring", "nodes", "arrows"),
     lambda: ModuleDiagram(Z, (Z1, Z1), ((0, 1, Morphism(Z1, Z1, [[2]])),))),
    (LimitResult, ("module", "cone", "inclusion", "equations"),
     lambda: LimitResult(Z1, (Morphism.identity(Z1),), Morphism.identity(Z1), None)),
    (ColimitResult, ("module", "cocone", "projection", "nodes_sum", "free"),
     lambda: ColimitResult(Z1, (), Morphism.identity(Z1), None, (0,))),
    (_LimitEquations, ("ring", "nodes", "free", "root", "path", "at", "rows", "free_orders",
                       "target_orders"),
     lambda: _LimitEquations(Z, (Z1,), (0,), (0,), (None,), None, (), (0,), ())),
    (FintMap, ("values",), lambda: FintMap((0, 1, 1, 2))),
    (Necklace, ("points",), lambda: Necklace((0, 1, 3))),
    (NecklaceMap, ("source", "target", "fint"),
     lambda: NecklaceMap(Necklace((0, 1, 2)), Necklace((0, 2)), FintMap((0, 1, 2)))),
    (IndexDiagram, ("kind", "objects", "arrows"),
     lambda: IndexDiagram("horn", (FintMap((0, 1)),), ())),
    (Quiver, ("ring", "vertices", "homs"), _quiver),
    (QuiverMorphism, ("domain", "codomain", "components"),
     lambda: QuiverMorphism.identity(_quiver())),
    (QuiverDiagram, ("ring", "vertices", "nodes", "arrows"),
     lambda: QuiverDiagram(Z, ("a", "b"), (_quiver(),), ())),
    (QuiverLimitResult, ("quiver", "cone", "hom_limits"),
     lambda: QuiverLimitResult(_quiver(), (), ())),
    (QuiverColimitResult, ("quiver", "cocone", "hom_colimits"),
     lambda: QuiverColimitResult(_quiver(), (), ())),
    (ValidationFailure, ("check", "indices", "detail"),
     lambda: ValidationFailure("face", (2, 1), "bad")),
    (ValidationReport, ("subject", "failures"),
     lambda: ValidationReport("X", (ValidationFailure("face", (2, 1), "bad"),))),
    (TemplicialModule, ("ring", "vertices", "max_level", "levels", "faces", "degeneracies",
                        "comults"),
     lambda: _copy(_templicial())),
    (CheckItem, ("indices", "passed", "detail", "cokernel"),
     lambda: CheckItem((1, 2), False, "x", M)),
    (CheckReport, ("prop", "passed", "items", "status", "note", "children"),
     lambda: CheckReport("kan", False, (CheckItem((1, 2), False),), note="n")),
    (TruncatedWing, ("module", "canonical", "limit", "diagram"),
     lambda: TruncatedWing(M, Morphism.identity(M), None, None)),
    (DeformationPair, ("extension", "deformed", "special_fiber", "witness"),
     lambda: DeformationPair(RingExtension(Ring.dual_chain(3, 2), F3), _templicial(),
                             _templicial())),
    (NecklicialExtension, ("sub", "total", "quotient", "inclusions", "projections"),
     lambda: _copy(_extension())),
    (SimplicialSetTrunc, ("max_level", "simplices", "faces", "degens"),
     lambda: _copy(_sset())),
    (LinearCategory, ("quiver", "composition", "units"),
     lambda: _copy(_category())),
]


def _ids(entries):
    return [cls.__name__ for cls, _, _ in entries]


IDS = _ids(CLASSES)
# hashing reads a tuple of the fields, except for Morphism, whose rows are
# dicts; SmithResult is mutable and so unhashable
FIELD_HASHED = [entry for entry in CLASSES if entry[0] not in (Morphism, SmithResult)]

# the classes that write their own methods rather than take Frozen's: an
# __eq__ by hand on the five hot paths, Morphism's hash over its dict rows,
# and the constructors that validate, compute fields or take defaults
OWN_EQ = {Ring, Module, FintMap, Necklace, NecklaceMap}
OWN_HASH = {Morphism}
OWN_INIT = {Ring, Module, Morphism, RingExtension, ModuleDiagram, FintMap, Necklace,
            NecklaceMap, Quiver, QuiverMorphism, TemplicialModule, CheckItem, CheckReport,
            DeformationPair, NecklicialExtension, SimplicialSetTrunc, LinearCategory}
GENERIC_INIT = [entry for entry in CLASSES if entry[0] not in OWN_INIT | {SmithResult}]


def test_every_value_class_is_listed():
    listed = {cls for cls, _, _ in CLASSES}
    assert len(listed) == 29 and listed == set(Frozen.__subclasses__()) | {SmithResult}


@pytest.mark.parametrize("cls,fields,build", CLASSES, ids=IDS)
def test_equal_fields_give_equal_values(cls, fields, build):
    x, y = build(), build()
    assert type(x) is cls and x is not y
    assert all(getattr(x, name) == getattr(y, name) for name in fields)
    assert x == y and not x != y
    if cls is not SmithResult:
        assert hash(x) == hash(y)


@pytest.mark.parametrize("cls,fields,build", FIELD_HASHED,
                         ids=[cls.__name__ for cls, _, _ in FIELD_HASHED])
def test_hash_reads_the_fields(cls, fields, build):
    x = build()
    assert hash(x) == hash(tuple(getattr(x, name) for name in fields))


@pytest.mark.parametrize("index", range(len(CLASSES)), ids=IDS)
def test_other_classes_compare_not_implemented(index):
    x = CLASSES[index][2]()
    other = CLASSES[(index + 1) % len(CLASSES)][2]()
    assert x.__eq__(other) is NotImplemented
    assert x.__eq__(object()) is NotImplemented
    assert x != other and not x == other


@pytest.mark.parametrize("cls,fields,build",
                         [entry for entry in CLASSES if entry[0] is not SmithResult],
                         ids=[name for name in IDS if name != "SmithResult"])
def test_assignment_and_deletion_raise(cls, fields, build):
    x = build()
    for name in fields + ("_other",):
        before = getattr(x, name, None)
        with pytest.raises(AttributeError):
            setattr(x, name, before)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name, None) is before


@pytest.mark.parametrize("cls,fields,build", CLASSES, ids=IDS)
def test_repr_lists_the_fields(cls, fields, build):
    x = build()
    args = ", ".join(f"{name}={getattr(x, name)!r}" for name in fields)
    assert repr(x) == f"{cls.__name__}({args})"


def test_reprs_are_unchanged():
    # taken from the dataclass-generated reprs
    zr = "Ring(kind='integers', p=None, m=None)"
    assert repr(Ring("chain", 3, 2)) == "Ring(kind='chain', p=3, m=2)"
    assert repr(M) == f"Module(ring={zr}, factors=(2, 0))"
    assert repr(FintMap((0, 1, 1, 2))) == "FintMap(values=(0, 1, 1, 2))"
    assert repr(Necklace((0, 1, 3))) == "Necklace(points=(0, 1, 3))"
    assert repr(NecklaceMap(Necklace((0, 1, 2)), Necklace((0, 2)), FintMap((0, 1, 2)))) == (
        "NecklaceMap(source=Necklace(points=(0, 1, 2)), target=Necklace(points=(0, 2)), "
        "fint=FintMap(values=(0, 1, 2)))")
    assert repr(CheckItem((1, 2), False, "x", M)) == (
        f"CheckItem(indices=(1, 2), passed=False, detail='x', "
        f"cokernel=Module(ring={zr}, factors=(2, 0)))")


def test_constructor_defaults():
    ring = Ring("integers")
    assert (ring.p, ring.m) == (None, None) and ring == Z
    item = CheckItem((1,), True)
    assert (item.detail, item.cokernel) == ("", None)
    report = CheckReport("kan", True, ())
    assert (report.status, report.note, report.children) == ("checked", "", ())
    pair = DeformationPair(None, None, None)
    assert pair.witness is None
    res = SmithResult([1])
    assert (res.left, res.row_transform, res.col_transform) == (None,) * 3


def test_ring_extension_computes_its_derived_fields():
    small = RingExtension(Ring.chain(3, 4), Ring.chain(3, 2))
    assert (small.kernel_exponent, small.small) == (2, True)
    large = RingExtension(Ring.chain(3, 5), Ring.prime_field(3))
    assert (large.kernel_exponent, large.small) == (5, False)
    assert repr(large).endswith(", kernel_exponent=5, small=False)")
    with pytest.raises(TypeError):
        RingExtension(Ring.chain(3, 4), Ring.chain(3, 2), 2)


def test_simplicial_set_lookups_are_excluded():
    x = _sset()
    y = _copy(x)
    assert x.face_lookup == dict(x.faces) and x.degen_lookup == dict(x.degens)
    object.__setattr__(y, "face_lookup", {})
    object.__setattr__(y, "degen_lookup", {})
    assert x == y and hash(x) == hash(y)
    assert "lookup" not in repr(x)


def test_smith_result_is_mutable_and_unhashable():
    res = SmithResult([1])
    res.d = [2]
    assert res == SmithResult([2])
    with pytest.raises(TypeError):
        hash(res)


@pytest.mark.parametrize("cls,fields,build", FIELD_HASHED, ids=_ids(FIELD_HASHED))
def test_hash_is_kept_after_the_first_call(cls, fields, build):
    x = build()
    assert "_hash" not in vars(x)
    h = hash(x)
    assert vars(x)["_hash"] == h == hash(x)
    assert x == build() and "_hash" not in repr(x)


def test_only_the_listed_classes_write_their_own_methods():
    # a new value class takes Frozen's methods unless it is added here
    for cls in Frozen.__subclasses__():
        own = vars(cls)
        assert ("__eq__" in own) == (cls in OWN_EQ), cls.__name__
        assert (own.get("__hash__", Frozen.__hash__) is not Frozen.__hash__) == (
            cls in OWN_HASH), cls.__name__
        assert ("__init__" in own) == (cls in OWN_INIT), cls.__name__


@pytest.mark.parametrize("cls,fields,build", GENERIC_INIT, ids=_ids(GENERIC_INIT))
def test_generic_init_takes_exactly_the_fields(cls, fields, build):
    x = build()
    values = [getattr(x, name) for name in fields]
    assert cls(*values) == x
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(**dict(zip(fields, values)))


@pytest.mark.parametrize("cls,fields,build", FIELD_HASHED, ids=_ids(FIELD_HASHED))
def test_pickles_leave_out_the_kept_hash(cls, fields, build):
    x = build()
    hash(x)
    y = pickle.loads(pickle.dumps(x))
    assert "_hash" not in vars(y) and "_hash" in vars(x)
    assert y == x and hash(y) == hash(x)


# builds the values of the cross-seed test; "dump" hashes and pickles them to
# stdout, "load" reads them from stdin and compares them with fresh copies
_ROUND_TRIP = """
import json, pickle, sys
from templikit.coeff import Module, Ring
from templikit.constructors import nerve, truncated_polynomial_category
from templikit.kan import check_quasicategory

def build():
    ring = Ring.chain(3, 2)
    category = truncated_polynomial_category(Ring.prime_field(3), (1, 2))
    return ring, Module(ring, (1, 0)), nerve(category, 3)

if sys.argv[1] == "dump":
    values = build()
    for x in values:
        hash(x)
    sys.stdout.buffer.write(pickle.dumps(values))
else:
    stored, fresh = pickle.loads(sys.stdin.buffer.read()), build()
    out = [[a == b, hash(a) == hash(b), {b: 1}.get(a) == 1] for a, b in zip(stored, fresh)]
    out.append(check_quasicategory(stored[2], 3) == check_quasicategory(fresh[2], 3))
    print(json.dumps(out))
"""


def _run(script, step, seed, data=None):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed))
    return subprocess.run([sys.executable, "-c", script, step], input=data, env=env,
                          capture_output=True, check=True).stdout


def test_hashes_survive_a_pickle_into_another_hash_seed():
    # Ring hashes read its str kind, so they differ between hash seeds; a
    # value pickled in one process must still hash like a fresh copy in
    # another, or the caches keyed on it miss
    out = json.loads(_run(_ROUND_TRIP, "load", 2, _run(_ROUND_TRIP, "dump", 1)))
    assert out == [[True, True, True]] * 3 + [True]


def _hom():
    return hom_necklicial(free_templicial(sset_simplex(1, 2), Z4, 2), (0,), (0,))


def _hom_extension():
    return extension_sequence(RingExtension(Z4, Ring.prime_field(2)), _hom())


# every kind of necklicial module source, built fresh, so that the copy
# computes its actions through the unpickled source
NECKLICIAL = {
    "hom": _hom,
    "tensor": lambda: tensor_external(_hom(), Module(Z4, (1, 0))),
    "base-change": lambda: base_change_necklicial(RingExtension(Z4, Ring.prime_field(2)),
                                                  _hom()),
    "sub": lambda: _hom_extension().sub,
    "quotient": lambda: _hom_extension().quotient,
    "built": lambda: build_extension(_extension().sub, _extension().quotient).total,
}


@pytest.mark.parametrize("name", NECKLICIAL)
def test_necklicial_modules_pickle(name):
    x = NECKLICIAL[name]()
    copy = pickle.loads(pickle.dumps(x))
    assert check_weak_kan(copy, 2) == check_weak_kan(x, 2)
    assert copy == x and hash(copy) == hash(x)
    assert "_hash" in vars(x) and "_hash" not in vars(pickle.loads(pickle.dumps(x)))


def test_necklicial_extensions_pickle():
    ext = _hom_extension()
    copy = pickle.loads(pickle.dumps(ext))
    assert check_extension_weak_kan(copy, 2) == check_extension_weak_kan(ext, 2)
    assert copy == ext and hash(copy) == hash(ext)


def test_pickles_leave_out_the_kept_caches():
    """A hom necklicial module pickles to the same size fresh, after a check
    and after its hash: its pickle holds neither its kept actions nor the
    evaluator, validation report or degenerate parts kept on its templicial
    module, and neither does a used templicial module's.  The copy equals
    the module, hashes like it and gives the same report, byte for byte."""
    y = hom_necklicial(paper_p(3), "a", "c")
    fresh = len(pickle.dumps(y))
    report = str(check_weak_kan(y, 3))
    checked = len(pickle.dumps(y))
    hashed = hash(y)
    assert fresh == checked == len(pickle.dumps(y))
    copy = pickle.loads(pickle.dumps(y))
    assert copy == y and hash(copy) == hashed
    assert str(check_weak_kan(copy, 3)) == report
    x = paper_p(3)
    check_quasicategory(x, 3)
    check_deg_projective(x, 3)
    hash(x)
    assert set(vars(x)) >= {"_evaluator", "_validation", "_degenerate_parts", "_hash"}
    assert len(pickle.dumps(x)) == len(pickle.dumps(paper_p(3)))


# the necklicial values of the cross-seed test, as _ROUND_TRIP's
_NECKLICIAL_ROUND_TRIP = """
import json, pickle, sys
from templikit.coeff import Ring, RingExtension
from templikit.constructors import free_templicial, sset_simplex
from templikit.deform import check_extension_weak_kan, extension_sequence
from templikit.kan import check_weak_kan
from templikit.templicial import hom_necklicial

def build():
    ring = Ring.chain(2, 2)
    y = hom_necklicial(free_templicial(sset_simplex(1, 2), ring, 2), (0,), (0,))
    return y, extension_sequence(RingExtension(ring, Ring.prime_field(2)), y)

if sys.argv[1] == "dump":
    values = build()
    for x in values:
        hash(x)
    sys.stdout.buffer.write(pickle.dumps(values))
else:
    stored, fresh = pickle.loads(sys.stdin.buffer.read()), build()
    out = [[a == b, hash(a) == hash(b), {b: 1}.get(a) == 1] for a, b in zip(stored, fresh)]
    out.append(check_weak_kan(stored[0], 2) == check_weak_kan(fresh[0], 2))
    out.append(check_extension_weak_kan(stored[1], 2) == check_extension_weak_kan(fresh[1], 2))
    print(json.dumps(out))
"""


def test_necklicial_hashes_survive_a_pickle_into_another_hash_seed():
    out = json.loads(_run(_NECKLICIAL_ROUND_TRIP, "load", 2,
                          _run(_NECKLICIAL_ROUND_TRIP, "dump", 1)))
    assert out == [[True, True, True]] * 2 + [True, True]


def test_cli_import_leaves_out_dataclasses_and_inspect():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, templikit.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_no_code_is_generated_at_import():
    for path in sorted((SRC / "templikit").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for word in ("dataclass", "exec(", "eval(", "namedtuple", "NamedTuple"):
            assert word not in text, f"{path.name} uses {word}"
