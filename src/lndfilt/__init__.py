"""Exact symbolic machinery for locally nilpotent derivations on
Danielewski-type surfaces: canonical quotient-ring forms, degree filtrations,
associated graded algebras, automorphism families, and explicit cylinder
isomorphisms between non-isomorphic base rings."""

from __future__ import annotations

from .automorphisms import (
    AutParams,
    RingAutomorphism,
    build_auto,
    check_params,
    compose_params,
    inverse_params,
    verify_auto,
)
from .checks import (
    CheckReport,
    al_chain_check,
    degree_consistency,
    graded_property_check,
    graded_relations_check,
    kernel_check,
    random_element,
)
from .cylinders import (
    DanielewskiStep,
    FullStep,
    IsoCertificate,
    PolyEndo,
    cancellation_report,
    compose_chain,
    compose_danielewski_chain,
    solve_step,
    verify_step,
)
from .derivations import BudgetExceededError, Derivation, canonical_derivation
from .graded import GradedElem, gr_leading, graded_generators, hat_ideal_tops
from .polynomials import MultiPoly, ParseError, VarSet, parse_poly
from .rings import QuotElem, RingPresentation, basis_monomials, evaluate_in_ring, toy_ring

__all__ = [
    "AutParams",
    "BudgetExceededError",
    "CheckReport",
    "DanielewskiStep",
    "Derivation",
    "FullStep",
    "GradedElem",
    "IsoCertificate",
    "MultiPoly",
    "ParseError",
    "PolyEndo",
    "QuotElem",
    "RingAutomorphism",
    "RingPresentation",
    "VarSet",
    "al_chain_check",
    "basis_monomials",
    "build_auto",
    "cancellation_report",
    "canonical_derivation",
    "check_params",
    "compose_chain",
    "compose_danielewski_chain",
    "compose_params",
    "degree_consistency",
    "evaluate_in_ring",
    "gr_leading",
    "graded_generators",
    "graded_property_check",
    "graded_relations_check",
    "hat_ideal_tops",
    "inverse_params",
    "kernel_check",
    "parse_poly",
    "random_element",
    "solve_step",
    "toy_ring",
    "verify_auto",
    "verify_step",
]

__version__ = "0.1.0"
