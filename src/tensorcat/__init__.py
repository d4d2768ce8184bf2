"""tensorcat: exact decision procedures for algebras in skeletal
multi-fusion categories.

The package decides semisimplicity, simplicity, the division property,
separability and dimensions of algebras presented inside a skeletal
multi-fusion category, entirely in exact arithmetic over Q, finite
fields, or simple algebraic extensions.
"""

from .algebra import (AlgebraPres, direct_sum_algebra, internal_end,
                      trivial_algebra, validate_algebra)
from .fields import (DivisionByZero, Embedding, Field, FieldError,
                     FieldMismatch, NotAnEmbedding, Scalar, embed)
from .fincat import (CategoryPres, Mor, Obj, SnakeUnsolvable,
                     ValidationFailure, ValidationReport, hom_dim,
                     validate_category)
from .linalg import LinAlgError, Matrix, SingularMatrix
from .modcat import (BimodulePres, ModulePres, algebra_as_module,
                     bimodule_end_algebra, end_algebra, free_bimodule,
                     free_module, free_module_end, hom_basis, internal_hom,
                     module_dual, module_internal_end, rel_tensor,
                     simple_modules, validate_bimodule, validate_module)
from .ordalg import (OrdAlgebra, OrdModule, UNDETERMINED, central_idempotents,
                     center, decompose_module, is_division, is_semisimple,
                     is_separable_field_ext, is_separable_over_k,
                     module_is_simple, radical)
from .poly import (DegreeTooLarge, Poly, PolynomialError, Reducible, factor,
                   gcd, is_irreducible, is_separable_irreducible,
                   squarefree_decomposition)
from .structure import (NotFusion, OracleDisagreement, PreconditionViolated,
                        analyze, base_extend_algebra, center_semisimple_verdict,
                        dim_division_algebra, global_dimension,
                        is_division_algebra, is_semisimple_algebra,
                        is_separable, is_simple_algebra, matrix_decomposition,
                        separability_alpha_division, separability_beta)
from . import catalog

__version__ = "0.1.0"
