"""Exact deformations of bound quiver algebras.

Finite-dimensional algebras are presented by a quiver with relations
over an exact field (rationals or a prime field).  The package computes
monomial bases by rewriting, Hochschild 2-cocycles and their
coboundaries, the doubled algebra twisted by a cocycle together with a
quiver presentation of it, and transfers of cocycles across a Morita
context, verifying every identity it claims by direct computation.
"""

from .deform import (DeformedAlgebra, Equivalence, Presentation,
                     build_presentation,
                     check_image_condition, deformation_equivalence,
                     deformed_multiply, hat_f, interreduce_presentation,
                     normalize_cocycle, verify_presentation)
from .errors import (CharTwoUnsupported, ComputationError, EpsilonUnresolvable,
                     InputError, NormalizationFailed, NotACocycle,
                     NotFiniteDimensional, NotFullIdempotent)
from .fields import Field
from .fileio import (AlgebraFile, emit_algebra_text, emit_dot, emit_module_text,
                     parse_algebra_file, parse_algebra_text, parse_expression,
                     parse_module_file)
from .hochschild import (FullCochain, cochain_from_pairs, cochain_from_paths,
                         differential, full_differential, hh_dimension,
                         hh_summary, is_cocycle, is_full_cocycle)
from .modcat import (LeftModule, MorphismTriple, UpleModule, functor_F,
                     module_from_file, reconstruct, regular_module,
                     regular_uple, roundtrip_triple)
from .linalg import FinDimAlgebra
from .morita import (MoritaContext, TensorProduct, homotopy_h, idempotent_context,
                     matrix_context, transfer_phi, transfer_psi,
                     verify_morita_deformed)
from .quiver import (AlgebraBasis, AlgebraElement, FreeElement, Quiver,
                     compute_basis, decompose_unit,
                     validate_admissible_relations)

__all__ = [
    "AlgebraBasis", "AlgebraElement", "AlgebraFile", "CharTwoUnsupported",
    "ComputationError", "DeformedAlgebra", "EpsilonUnresolvable",
    "Equivalence", "Field", "FinDimAlgebra", "FreeElement", "FullCochain",
    "InputError", "LeftModule", "MoritaContext", "MorphismTriple",
    "NormalizationFailed", "NotACocycle", "NotFiniteDimensional", "NotFullIdempotent",
    "Presentation", "Quiver", "TensorProduct", "UpleModule",
    "build_presentation", "check_image_condition",
    "cochain_from_pairs", "cochain_from_paths", "compute_basis", "decompose_unit",
    "deformation_equivalence", "deformed_multiply", "differential",
    "emit_algebra_text", "emit_dot", "emit_module_text", "full_differential",
    "functor_F", "hat_f", "hh_dimension", "hh_summary", "homotopy_h",
    "idempotent_context", "interreduce_presentation",
    "is_cocycle", "is_full_cocycle", "matrix_context", "module_from_file",
    "normalize_cocycle",
    "parse_algebra_file", "parse_algebra_text", "parse_expression",
    "parse_module_file", "reconstruct", "regular_module", "regular_uple",
    "roundtrip_triple", "transfer_phi", "transfer_psi",
    "validate_admissible_relations", "verify_morita_deformed",
    "verify_presentation",
]
