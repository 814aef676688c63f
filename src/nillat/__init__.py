"""nillat: exact computations with nilpotent Lie groups, their lattices,
symplectic cocycles and Anosov automorphisms.

Everything is exact rational/integer arithmetic; no floating point enters
any decision path.

The package namespace is lazy (PEP 562): `import nillat` loads no
submodule, and `nillat.X` or `from nillat import X` imports the module
defining X on first access.  Names are looked up on every access, never
stored in this module's globals, so `nillat.X` is always the defining
module's current attribute.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    **dict.fromkeys((
        "char_poly_pair",
        "filiform_aut_constraints",
        "gamma111_automorphism",
        "has_unit_circle_root",
        "is_anosov",
        "phi_automorphism",
    ), "anosov"),
    **dict.fromkeys((
        "FiliformLatticeSpec",
        "SixDimClassification",
        "central_quotients",
        "classify_six_dim",
        "commensurable",
        "filiform_isomorphic",
        "filiform_normalize",
        "theta_invariant",
        "trid_invariants",
        "trid_invariants_from_model",
        "unique_abelian_codim1",
    ), "classify"),
    **dict.fromkeys(("AlternatingForm", "cocycle_space", "left_symmetric_product"), "cocycles"),
    **dict.fromkeys(("CommAlgebra", "radical_and_socle"), "commalg"),
    **dict.fromkeys(("InputError", "NillatError", "PreconditionError", "StructuralError"), "errors"),
    **dict.fromkeys((
        "Example5G",
        "Filiform",
        "GroupElement",
        "GroupModel",
        "HeisQuad",
        "HeisenbergDual",
        "Presentation",
        "TStarH1",
        "TriD",
        "check_relations",
        "example5_exp",
        "example5_log",
        "filiform_action_power",
        "inverse",
        "multiply",
    ), "groups"),
    **dict.fromkeys((
        "h1_cocycle_construct",
        "h1_symplectic_decision",
        "heisenberg_over",
        "hk_degeneracy_check",
    ), "heisenberg"),
    **dict.fromkeys(("SnfResult", "hermite_row_basis", "smith_normal_form"), "intlattice"),
    **dict.fromkeys((
        "LieAlgebra",
        "abelian_algebra",
        "central_series",
        "filiform_algebra",
        "heisenberg_algebra",
        "validate_lie",
    ), "liealg"),
    **dict.fromkeys(("Matrix", "nilpotent_exp"), "matrix"),
    **dict.fromkeys((
        "QuadraticRing",
        "UnitGroupDesc",
        "fundamental_unit",
        "ring_of_integers",
        "squarefree_part",
        "unit_torsion",
    ), "quadratic"),
    **dict.fromkeys((
        "MomentMapPoly",
        "cybe_check",
        "double_theta_check",
        "example5_gamma_prime",
        "filiform_cocycle",
        "flat_symplectic_structure",
        "moment_cocycle_identity_holds",
        "moment_map",
        "orthogonal_subalgebra",
        "rational_structure_for_double",
    ), "symplectic"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
