"""Flag codes from cyclic orbits over finite fields.

The package builds finite fields and their extension towers, subspaces and
flags of projective spaces with their Grassmann and flag distances, Singer
cyclic groups, and the two orbital constructions (spread-type and full-type)
together with verification helpers and a small file format.
"""

from .errors import (AdditivityViolatedError, AmbientMismatchError,
                     BadDimensionsError, CodeFileError, FieldConstructionError,
                     GcdConditionFailedError, MixedFieldsError,
                     NotADivisorError, NotExtendingError, NotNestedError,
                     RankDeficientError, ShapeError, SingularMatrixError,
                     TypeMismatchError)
from .fields import FiniteField, extend_field, make_field
from .matrices import Matrix, block_diag, hstack, matrix_order, vstack
from .subspaces import (Subspace, SubspaceCode, dual_code, is_partial_spread,
                        is_spread, max_distance_bound, partial_spread_size_bound,
                        subspace_distance)
from .flags import (Flag, FlagCode, critical_indices, flag_distance,
                    flag_distance_bound, is_disjoint, level_distances,
                    is_odfc_by_definition, is_odfc_by_characterization,
                    orbit_flag, projected_code, union_flag_codes)
from .singer import (CyclicMatrixGroup, companion_matrix, field_reduction,
                     orbit_subspace, phi, psi, singer_group)
from .constructions import (FullTypeContext, SpreadContext, TableRow,
                            admissible_flag_dims, admissible_subgroup_orders,
                            build_full_type_context, build_spread_context,
                            canonical_admissible_flag, conjugate_spread,
                            full_type_generator_flag, full_type_max_odfc,
                            full_type_orbit_odfc, spread_type_max_odfc,
                            spread_type_orbit_odfc, table_row)
from .codefiles import (CodeFileData, format_flag_code, format_subspace_code,
                        parse_code_file, read_code_file, write_flag_code,
                        write_subspace_code)

__version__ = "0.1.0"

__all__ = [
    # errors
    "AdditivityViolatedError", "AmbientMismatchError", "BadDimensionsError",
    "CodeFileError", "FieldConstructionError",
    "GcdConditionFailedError", "MixedFieldsError", "NotADivisorError",
    "NotExtendingError", "NotNestedError", "RankDeficientError", "ShapeError",
    "SingularMatrixError", "TypeMismatchError",
    # fields and matrices
    "FiniteField", "extend_field", "make_field",
    "Matrix", "block_diag", "hstack", "matrix_order", "vstack",
    # subspaces
    "Subspace", "SubspaceCode", "dual_code", "is_partial_spread", "is_spread",
    "max_distance_bound", "partial_spread_size_bound", "subspace_distance",
    # flags
    "Flag", "FlagCode", "critical_indices", "flag_distance",
    "flag_distance_bound", "is_disjoint", "level_distances",
    "is_odfc_by_definition", "is_odfc_by_characterization", "orbit_flag",
    "projected_code", "union_flag_codes",
    # singer
    "CyclicMatrixGroup", "companion_matrix", "field_reduction",
    "orbit_subspace", "phi", "psi", "singer_group",
    # constructions
    "FullTypeContext", "SpreadContext", "TableRow", "admissible_flag_dims",
    "admissible_subgroup_orders", "build_full_type_context",
    "build_spread_context", "canonical_admissible_flag", "conjugate_spread",
    "full_type_generator_flag", "full_type_max_odfc", "full_type_orbit_odfc",
    "spread_type_max_odfc", "spread_type_orbit_odfc", "table_row",
    # codefiles
    "CodeFileData", "format_flag_code", "format_subspace_code",
    "parse_code_file", "read_code_file", "write_flag_code",
    "write_subspace_code",
]
