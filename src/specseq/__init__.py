"""Exact spectral sequences of filtered cochain complexes over Q.

Everything is computed with Fraction arithmetic; no floats, no tolerances.
The public surface re-exports the engine (linalg, filtered, spectral), the
multiplicative layer (algebra), the polarized layer (lefschetz), and the
model builders (models).
"""

from .algebra import (
    BigradedAlgebra,
    Derivation,
    derivation_extend,
    verify_leibniz,
)
from .errors import (
    ContainmentError,
    EngineError,
    InvariantError,
    ParseError,
    SpecSeqError,
)
from .filtered import CochainComplex, FilteredComplex, Filtration
from .lefschetz import (
    Certificate,
    CertStep,
    PolarizedAlgebra,
    degeneration_certify,
    deligne_vanishing,
    serre_sign_check,
    split_differential,
    verify_hard_lefschetz,
)
from .linalg import Matrix, Subquotient, Subspace, pairing_rank
from .models import (
    HodgeDiamond,
    ObstructionDatum,
    VarietyModel,
    build_model,
    canonical_power_datum,
    d2_from_alpha,
    ext_dimensions,
    lagrangian_e2_table,
    tensor_model,
)
from .spectral import (
    Barcode,
    Page,
    SpectralSequence,
    barcode,
    decalage,
    decalage_renumbering_report,
    e_infinity_compare,
    first_page,
    oracle_report,
    page_direct,
    turn_page,
)

__version__ = "0.1.0"

__all__ = [
    "Barcode",
    "BigradedAlgebra",
    "CertStep",
    "Certificate",
    "CochainComplex",
    "ContainmentError",
    "Derivation",
    "EngineError",
    "FilteredComplex",
    "Filtration",
    "HodgeDiamond",
    "InvariantError",
    "Matrix",
    "ObstructionDatum",
    "Page",
    "ParseError",
    "PolarizedAlgebra",
    "SpecSeqError",
    "SpectralSequence",
    "Subquotient",
    "Subspace",
    "VarietyModel",
    "barcode",
    "build_model",
    "canonical_power_datum",
    "d2_from_alpha",
    "decalage",
    "decalage_renumbering_report",
    "degeneration_certify",
    "deligne_vanishing",
    "derivation_extend",
    "e_infinity_compare",
    "ext_dimensions",
    "first_page",
    "lagrangian_e2_table",
    "oracle_report",
    "page_direct",
    "pairing_rank",
    "serre_sign_check",
    "split_differential",
    "tensor_model",
    "turn_page",
    "verify_hard_lefschetz",
    "verify_leibniz",
]
