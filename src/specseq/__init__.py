"""Exact spectral sequences of filtered cochain complexes over Q.

Everything is exact over Q, with no floats and no tolerances: elimination
runs fraction-free on integer rows over one denominator, and a Fraction is
made only where a public accessor returns a rational. The public surface
re-exports the engine (linalg, filtered, spectral), the multiplicative
layer (algebra), the polarized layer (lefschetz), and the model builders
(models). Each name is imported from its module on first use (PEP 562),
so `import specseq` loads no submodule and a program that uses only the
engine never loads the model half.
"""

import importlib

# each exported name and the module that defines it
_MODULE_OF = {
    **dict.fromkeys(
        ("BigradedAlgebra", "Derivation", "derivation_extend", "verify_leibniz"), "algebra"
    ),
    **dict.fromkeys(
        ("ContainmentError", "EngineError", "InvariantError", "ParseError", "SpecSeqError"),
        "errors",
    ),
    **dict.fromkeys(("CochainComplex", "FilteredComplex"), "filtered"),
    **dict.fromkeys(
        (
            "CertStep",
            "Certificate",
            "PolarizedAlgebra",
            "degeneration_certify",
            "deligne_vanishing",
            "serre_sign_check",
            "split_differential",
            "verify_hard_lefschetz",
        ),
        "lefschetz",
    ),
    **dict.fromkeys(("Matrix", "Subquotient", "Subspace", "pairing_rank"), "linalg"),
    **dict.fromkeys(
        (
            "HodgeDiamond",
            "ObstructionDatum",
            "VarietyModel",
            "build_model",
            "canonical_power_datum",
            "d2_from_alpha",
            "ext_dimensions",
            "lagrangian_e2_table",
            "tensor_model",
        ),
        "models",
    ),
    **dict.fromkeys(
        (
            "Barcode",
            "Page",
            "SpectralSequence",
            "barcode",
            "decalage",
            "decalage_renumbering_report",
            "e_infinity_compare",
            "first_page",
            "oracle_report",
            "page_direct",
            "turn_page",
        ),
        "spectral",
    ),
}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """An exported name, imported from its module and kept here on first use."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
