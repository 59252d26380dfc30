"""Exact rational-homotopy computations over the rationals.

Free graded-commutative models with differential, their cohomology,
elliptic rank-vector enumeration, exact-sequence rank solving, and an
obstruction pipeline for fibration questions, all in exact arithmetic.
"""

from .algebra import (
    Element,
    GeneratorSpec,
    Monomial,
    SullivanModel,
    ValidationReport,
    validate_model,
)
from .cohomology import BettiTable, betti, betti_table, coboundary_matrix
from .dsl import ModelDocument, ParseError, format_model, parse_document, parse_model
from .ellipticity import (
    RankVector,
    RealizabilityVerdict,
    canonical_sorted,
    elliptic_verdicts,
    enumerate_candidates,
    feasibility_failures,
    fh_feasible,
    formal_dimension,
    pure_witness,
    rank_vector_of_model,
    realizable,
    sac_violation,
)
from .exactseq import (
    ExactSequenceProblem,
    RankSolution,
    UnboundedProblemError,
    fiber_rank_vectors,
    solve_exact_ranks,
    wang_fiber_betti,
)
from .pipeline import (
    BaseAnalysis,
    FiberVerdict,
    KillCertificate,
    ObstructionReport,
    RelativeWitness,
    SpaceCatalogEntry,
    analyze,
    audit_table,
    catalog,
    find_entry,
    realized_rank_vectors,
    reproduce,
)

__all__ = [
    "BaseAnalysis",
    "BettiTable",
    "Element",
    "ExactSequenceProblem",
    "FiberVerdict",
    "GeneratorSpec",
    "KillCertificate",
    "ModelDocument",
    "Monomial",
    "ObstructionReport",
    "ParseError",
    "RankSolution",
    "RankVector",
    "RealizabilityVerdict",
    "RelativeWitness",
    "SpaceCatalogEntry",
    "SullivanModel",
    "UnboundedProblemError",
    "ValidationReport",
    "analyze",
    "audit_table",
    "betti",
    "betti_table",
    "canonical_sorted",
    "catalog",
    "coboundary_matrix",
    "elliptic_verdicts",
    "enumerate_candidates",
    "feasibility_failures",
    "fh_feasible",
    "fiber_rank_vectors",
    "find_entry",
    "format_model",
    "formal_dimension",
    "parse_document",
    "parse_model",
    "pure_witness",
    "rank_vector_of_model",
    "realizable",
    "realized_rank_vectors",
    "reproduce",
    "sac_violation",
    "solve_exact_ranks",
    "validate_model",
    "wang_fiber_betti",
]

__version__ = "0.1.0"
