"""Exact deformations of bound quiver algebras.

Finite-dimensional algebras are presented by a quiver with relations
over an exact field (rationals or a prime field).  The package computes
monomial bases by rewriting, Hochschild 2-cocycles and their
coboundaries, the doubled algebra twisted by a cocycle together with a
quiver presentation of it, and transfers of cocycles across a Morita
context, verifying every identity it claims by direct computation.

Importing the package loads none of its layers: each name below is
imported from its layer when it is first used (PEP 562), so a command
line process loads only the layers its command runs.
"""

from importlib import import_module

__all__ = [
    "AlgebraBasis", "AlgebraFile", "CharTwoUnsupported",
    "ComputationError", "DeformedAlgebra", "EpsilonUnresolvable", "Field", "FinDimAlgebra", "FreeElement", "FullCochain",
    "InputError", "LeftModule", "MoritaContext", "MorphismTriple",
    "NormalizationFailed", "NotACocycle", "NotFiniteDimensional", "NotFullIdempotent",
    "Presentation", "Quiver", "TensorProduct", "UpleModule",
    "build_presentation", "check_image_condition",
    "cochain_from_pairs", "cochain_from_paths", "compute_basis", "decompose_unit",
    "deformation_equivalence", "deformation_witness", "differential",
    "emit_algebra_text", "emit_dot", "emit_module_text", "full_differential",
    "functor_F", "hat_f", "hh_dimension", "hh_summary", "homotopy_h",
    "idempotent_context", "interreduce_presentation",
    "is_cocycle", "matrix_context", "module_from_file",
    "normalize_cocycle",
    "parse_algebra_file", "parse_algebra_text", "parse_expression",
    "parse_module_file", "reconstruct", "regular_module", "regular_uple",
    "roundtrip_triple", "transfer_identities_hold", "transfer_phi", "transfer_psi",
    "validate_admissible_relations", "verify_morita_deformed",
    "verify_presentation",
]

_LAYERS = {
    "deform": ("DeformedAlgebra", "Presentation", "build_presentation",
               "check_image_condition", "deformation_equivalence", "hat_f",
               "interreduce_presentation", "normalize_cocycle", "verify_presentation"),
    "errors": ("CharTwoUnsupported", "ComputationError", "EpsilonUnresolvable",
               "InputError", "NormalizationFailed", "NotACocycle",
               "NotFiniteDimensional", "NotFullIdempotent"),
    "fields": ("Field",),
    "fileio": ("AlgebraFile", "emit_algebra_text", "emit_dot", "emit_module_text",
               "parse_algebra_file", "parse_algebra_text", "parse_expression",
               "parse_module_file"),
    "hochschild": ("FullCochain", "cochain_from_pairs", "cochain_from_paths",
                   "differential", "full_differential", "hh_dimension",
                   "hh_summary", "is_cocycle"),
    "linalg": ("FinDimAlgebra", "deformation_witness"),
    "modcat": ("LeftModule", "MorphismTriple", "UpleModule", "functor_F",
               "module_from_file", "reconstruct", "regular_module",
               "regular_uple", "roundtrip_triple"),
    "morita": ("MoritaContext", "TensorProduct", "homotopy_h", "idempotent_context",
               "matrix_context", "transfer_identities_hold", "transfer_phi",
               "transfer_psi", "verify_morita_deformed"),
    "quiver": ("AlgebraBasis", "FreeElement", "Quiver", "compute_basis",
               "decompose_unit", "validate_admissible_relations"),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + layer, __name__), name)
    globals()[name] = value
    return value
