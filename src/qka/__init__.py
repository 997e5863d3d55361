"""Real subspaces of quaternionic Euclidean space: quaternionic Kahler
angles, protohomogeneity, equivalence, and moduli enumeration."""

from .quaternion import (
    STANDARD_BASIS,
    CanonicalBasis,
    GroupElement,
    induced_rotation,
    random_group_element,
    random_unitary,
    right_mult,
)
from .moduli import (
    AngleTriple,
    ModuliStratum,
    moduli_describe,
    moduli_membership,
    strata_for,
)
from .subspace import (
    ConstancyReport,
    NumericalFailure,
    Subspace,
    constancy_check,
    distribution_rank,
    from_spanning,
    is_h_orthogonal,
    joint_canonical_basis,
    omega,
    p_operator,
    pbar_operator,
    vector_qka,
)
from .families import (
    FamilySpec,
    admissible,
    construct,
    construct_classical,
    construct_sum,
    construct_v3,
    construct_v4,
    gram_matrix,
    min_quaternionic_dim,
)
from .classify import (
    TypeSignature,
    Verdict,
    are_equivalent,
    branch_of_v3,
    classify_subspace,
    factorize,
    is_protohomogeneous,
    representative,
    type_of,
)
from .serialize import load_subspace, save_subspace

__version__ = "0.1.0"

# The oracles are test-only validators: resolve them on first use, so that
# importing the package (and every CLI process) does not load them.
_ORACLES = ("det_formula_check", "invariance_oracle", "psd_oracle", "steenrod_oracle")


def __getattr__(name):
    if name in _ORACLES:
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
