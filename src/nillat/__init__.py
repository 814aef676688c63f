"""nillat: exact computations with nilpotent Lie groups, their lattices,
symplectic cocycles and Anosov automorphisms.

Everything is exact rational/integer arithmetic; no floating point enters
any decision path.
"""

from .anosov import (
    char_poly_pair,
    filiform_aut_constraints,
    gamma111_automorphism,
    has_unit_circle_root,
    is_anosov,
    phi_automorphism,
)
from .classify import (
    FiliformLatticeSpec,
    SixDimClassification,
    central_quotients,
    classify_six_dim,
    commensurable,
    filiform_isomorphic,
    filiform_normalize,
    squarefree_part,
    theta_invariant,
    trid_invariants,
    trid_invariants_from_model,
    unique_abelian_codim1,
)
from .cocycles import (
    AlternatingForm,
    cocycle_space,
    left_symmetric_product,
)
from .commalg import CommAlgebra, radical_and_socle
from .errors import InputError, NillatError, PreconditionError, StructuralError
from .groups import (
    Example5G,
    Filiform,
    GroupElement,
    GroupModel,
    HeisQuad,
    HeisenbergDual,
    Presentation,
    TStarH1,
    TriD,
    check_relations,
    example5_exp,
    example5_log,
    filiform_action_power,
    inverse,
    multiply,
)
from .heisenberg import (
    h1_cocycle_construct,
    h1_symplectic_decision,
    heisenberg_over,
    hk_degeneracy_check,
)
from .intlattice import SnfResult, hermite_row_basis, smith_normal_form
from .liealg import (
    LieAlgebra,
    abelian_algebra,
    central_series,
    filiform_algebra,
    heisenberg_algebra,
    validate_lie,
)
from .matrix import Matrix, nilpotent_exp
from .quadratic import (
    QuadraticRing,
    UnitGroupDesc,
    fundamental_unit,
    ring_of_integers,
    unit_torsion,
)
from .symplectic import (
    MomentMapPoly,
    cybe_check,
    double_theta_check,
    example5_gamma_prime,
    filiform_cocycle,
    flat_symplectic_structure,
    moment_cocycle_identity_holds,
    moment_map,
    orthogonal_subalgebra,
    rational_structure_for_double,
)

__version__ = "0.1.0"
