"""Exact integral forms in tensor powers of the c = 1/2 Virasoro minimal model."""

from .codes import (
    BinaryCode,
    RequestError,
    Word,
    c16,
    even_code,
    goodform_conditions,
    hamming8,
    resolve_code,
    trivial_code,
)
from .intertwining import (
    TripleSpec,
    build_correlation,
    check_well_defined,
    framed_criterion,
    integrality_verdict,
)
from .lattices import (
    admissible_weights,
    compare,
    contains,
    eigenvalue_table,
    graded_dual,
    gram_matrix,
    lattice_at_level,
    saturate_generated_form,
)
from .tensor import (
    HVector,
    TensorVector,
    lt_action,
    omega_component,
    omega_total,
    verify_commutator,
    verify_commutator_sweep,
    weight1_count_e8,
)
from .virasoro import (
    CentralParams,
    graded_dimensions,
    ising_params,
    scaling_admissible,
    shapovalov_gram,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryCode",
    "CentralParams",
    "HVector",
    "RequestError",
    "TensorVector",
    "TripleSpec",
    "Word",
    "admissible_weights",
    "build_correlation",
    "c16",
    "check_well_defined",
    "compare",
    "contains",
    "eigenvalue_table",
    "even_code",
    "framed_criterion",
    "goodform_conditions",
    "graded_dimensions",
    "graded_dual",
    "gram_matrix",
    "hamming8",
    "integrality_verdict",
    "ising_params",
    "lattice_at_level",
    "lt_action",
    "omega_component",
    "omega_total",
    "resolve_code",
    "saturate_generated_form",
    "scaling_admissible",
    "shapovalov_gram",
    "trivial_code",
    "verify_commutator",
    "verify_commutator_sweep",
    "weight1_count_e8",
]
