"""coxlift: exact Cox-ring data, root constructions, and Cox lifts."""

from .abgroup import (
    FgAbelianGroup,
    GroupElement,
    GroupHomomorphism,
    IntMatrix,
    Subgroup,
    element_order,
    pushout_root,
    quotient_group,
    solve_affine_mod_p,
    solve_linear_over_group,
)
from .cyclo import CycOrder, CycScalar, cyclotomic_polynomial
from .gring import (
    Factorization,
    GradedRing,
    HomogeneousElement,
    Monomial,
    RewriteRule,
)
from .lift import (
    BaseMorphism,
    CoxLiftResult,
    LiftOptions,
    NoFactor,
    TargetData,
    Theta,
    check_factors_through,
    choose_extension_class,
    coset_generators,
    decompose_as_roots,
    pic_level_generators,
    run_cox_lift,
    verify_lift,
)
from .mdstack import (
    MdStackData,
    RootStep,
    canonical_stack,
    effective_generators,
    graded_factorial_spotcheck,
    replay_tower,
    root_divisor,
    root_line_bundle,
)

__version__ = "0.1.0"
