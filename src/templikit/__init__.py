"""templikit: exact-arithmetic toolkit for truncated templicial modules.

Representations of truncated templicial/necklicial modules over exact
coefficient rings, checkers for the quasi-category, wing-lifting,
deg-projectivity and levelwise flatness properties, and harnesses verifying
their preservation under nilpotent deformation.
"""

from .coeff import (
    FREE,
    Module,
    Morphism,
    Ring,
    RingExtension,
    analyze,
    base_change,
    finite_colimit,
    finite_limit,
    invariant_factors,
    normal_form,
    tensor,
    tensor_morphisms,
)
from .constructors import (
    LinearCategory,
    SimplicialSetTrunc,
    builtin,
    free_templicial,
    generate,
    nerve,
    sset_build,
)
from .deform import (
    DeformationPair,
    NecklicialExtension,
    base_change_templicial,
    build_extension,
    check_extension_weak_kan,
    extension_sequence,
    ideal_tensor,
    validate_deformation,
    verify_degproj_lift,
    verify_thm_main,
    verify_wings_tensor,
)
from .kan import (
    CheckItem,
    CheckReport,
    check_deg_projective,
    check_levelwise,
    check_lifts_wings,
    check_quasicategory,
    check_templicial_wings,
    check_weak_kan,
    degenerate_subobject,
    ez_check,
    horn_object,
    truncated_wing_object,
    wing_object,
)
from .necklace import (
    FintMap,
    Necklace,
    NecklaceMap,
    build_diagram,
    classify_and_factor,
    fint_factorize,
    wedge,
)
from .quiver import Quiver, QuiverMorphism, quiver_colimit, quiver_limit, tensor_s, unit_quiver
from .templicial import (
    NecklicialModule,
    TemplicialModule,
    ValidationReport,
    eval_map,
    eval_necklace,
    hom_necklicial,
    tensor_external,
    validate_necklicial,
    validate_templicial,
)

__version__ = "0.1.0"
