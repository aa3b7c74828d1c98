"""The names other code depends on: the package's public imports, the
parameters of the checkers and harnesses the benchmark and the CLI call, and
every function and method that the benchmark's per-layer trace patches."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import templikit

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

# every name templikit/__init__.py imports
PUBLIC = (
    "FREE", "Module", "Morphism", "Ring", "RingExtension", "analyze", "base_change",
    "finite_colimit", "finite_limit", "invariant_factors", "normal_form", "tensor",
    "tensor_morphisms",
    "LinearCategory", "SimplicialSetTrunc", "builtin", "free_templicial", "generate",
    "nerve", "sset_build",
    "DeformationPair", "NecklicialExtension", "base_change_templicial", "build_extension",
    "check_extension_weak_kan", "extension_sequence", "ideal_tensor",
    "validate_deformation", "verify_degproj_lift", "verify_thm_main", "verify_wings_tensor",
    "CheckItem", "CheckReport", "check_deg_projective", "check_levelwise",
    "check_lifts_wings", "check_quasicategory", "check_templicial_wings", "check_weak_kan",
    "degenerate_subobject", "ez_check", "horn_object", "truncated_wing_object",
    "wing_object",
    "FintMap", "Necklace", "NecklaceMap", "build_diagram", "classify_and_factor",
    "fint_factorize", "wedge",
    "Quiver", "QuiverMorphism", "quiver_colimit", "quiver_limit", "tensor_s", "unit_quiver",
    "NecklicialModule", "TemplicialModule", "ValidationReport", "eval_map", "eval_necklace",
    "hom_necklicial", "tensor_external", "validate_necklicial", "validate_templicial",
)

# the parameter names of the calls perfbench/workloads.py and the CLI make
SIGNATURES = {
    "check_weak_kan": ("y", "max_level", "label"),
    "check_lifts_wings": ("y", "max_level", "label"),
    "check_quasicategory": ("x", "max_level"),
    "check_templicial_wings": ("x", "max_level"),
    "check_deg_projective": ("x", "max_level"),
    "ez_check": ("x", "max_level"),
    "check_levelwise": ("x", "which", "max_level"),
    "verify_thm_main": ("pair", "max_level"),
    "verify_wings_tensor": ("x", "module", "max_level"),
    "verify_degproj_lift": ("pair", "max_level"),
    "validate_deformation": ("pair", "max_level"),
}


def _layers_constant(name):
    """The literal value of a module-level constant of perfbench/layers.py,
    read from its source."""
    for node in ast.parse(LAYERS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {LAYERS}")


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_resolves(name):
    assert hasattr(templikit, name)


@pytest.mark.parametrize("name,params", sorted(SIGNATURES.items()))
def test_call_shape(name, params):
    assert tuple(inspect.signature(getattr(templikit, name)).parameters) == params


@pytest.mark.parametrize("module,attr", _layers_constant("FUNCTIONS"))
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"templikit.{module}"), attr))


@pytest.mark.parametrize("module,cls,method,span", _layers_constant("METHODS"))
def test_traced_method_resolves(module, cls, method, span):
    owner = getattr(importlib.import_module(f"templikit.{module}"), cls)
    assert callable(getattr(owner, method))


def test_smith_reads_a_dense_matrix_second():
    # perfbench/layers.py reads smith's second argument as a tuple of row
    # tuples for coeff.smith.entries, max_dim and max_entry_bits
    coeff = importlib.import_module("templikit.coeff")
    assert tuple(inspect.signature(coeff.smith).parameters)[:2] == ("ring", "matrix")
    assert coeff.smith(coeff.Ring.integers(), ((2, 4), (6, 8))).d == [2, 4]


def test_smith_takes_three_transform_flags():
    coeff = importlib.import_module("templikit.coeff")
    assert str(inspect.signature(coeff.smith)) == \
        "(ring, matrix, *, left=False, row_t=False, col_t=False)"
