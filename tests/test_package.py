import sys

import pytest

import nillat
from nillat import classify, quadratic

EXPORTED = [
    "AlternatingForm", "CommAlgebra", "Example5G", "Filiform", "FiliformLatticeSpec", "GroupElement",
    "GroupModel", "HeisQuad", "HeisenbergDual", "InputError", "LieAlgebra", "Matrix", "MomentMapPoly",
    "NillatError", "PreconditionError", "Presentation", "QuadraticRing", "SixDimClassification", "SnfResult",
    "StructuralError", "TStarH1", "TriD", "UnitGroupDesc", "abelian_algebra", "central_quotients",
    "central_series", "char_poly_pair", "check_relations", "classify_six_dim", "cocycle_space",
    "commensurable", "cybe_check", "double_theta_check", "example5_exp", "example5_gamma_prime",
    "example5_log", "filiform_action_power", "filiform_algebra", "filiform_aut_constraints",
    "filiform_cocycle", "filiform_isomorphic", "filiform_normalize", "flat_symplectic_structure",
    "fundamental_unit", "gamma111_automorphism", "h1_cocycle_construct", "h1_symplectic_decision",
    "has_unit_circle_root", "heisenberg_algebra", "heisenberg_over", "hermite_row_basis",
    "hk_degeneracy_check", "inverse", "is_anosov", "left_symmetric_product", "moment_cocycle_identity_holds",
    "moment_map", "multiply", "nilpotent_exp", "orthogonal_subalgebra", "phi_automorphism",
    "radical_and_socle", "rational_structure_for_double", "ring_of_integers", "smith_normal_form",
    "squarefree_part", "theta_invariant", "trid_invariants", "trid_invariants_from_model",
    "unique_abelian_codim1", "unit_torsion", "validate_lie",
]


def test_all_lists_the_exported_names():
    assert len(EXPORTED) == 72
    assert sorted(nillat.__all__) == EXPORTED


def test_each_name_is_the_defining_modules_object():
    for name in EXPORTED:
        obj = getattr(nillat, name)
        assert obj.__name__ == name
        assert getattr(sys.modules[obj.__module__], name) is obj
        assert name not in vars(nillat), name  # resolved on each access, never cached in the package


def test_dir_lists_the_exports():
    assert set(EXPORTED) <= set(dir(nillat))
    assert "__version__" in dir(nillat)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from nillat import *", namespace)
    for name in EXPORTED:
        assert namespace[name] is getattr(nillat, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nillat.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from nillat import no_such_name", {})


def test_squarefree_part_has_one_home():
    assert nillat.squarefree_part is classify.squarefree_part is quadratic.squarefree_part
    assert quadratic.squarefree_part.__module__ == "nillat.quadratic"
