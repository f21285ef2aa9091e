"""From-scratch SMT substrate for linear integer/real arithmetic.

Replaces the Z3 dependency of the original Sia system (see DESIGN.md,
substitution table).  Public surface:

* terms: :class:`Var`, :class:`LinExpr`
* formulas: :class:`Atom`, :class:`BVar`, ``conj``/``disj``/``negate``,
  comparison builders, NNF/DNF
* solving: :class:`Solver`, :class:`Model`, ``is_satisfiable``,
  ``get_model``, ``implies``, ``all_models``
* proofs: :class:`ProofLog` and the certificate types
  (``Solver(proof=True)``; audited by :mod:`repro.analysis.certify`)
* quantifier elimination: ``eliminate_exists``, ``unsat_region``
* warm sessions: :class:`SmtSession`, :class:`Scope` (activation-literal
  incrementality), :data:`GLOBAL_COUNTERS` instrumentation

Every linear-arithmetic check runs on the exact Fraction simplex
(:class:`Simplex`).
"""

from .formula import (
    EQ,
    FALSE,
    LE,
    LT,
    NE,
    TRUE,
    And,
    Atom,
    BVar,
    DnfBlowupError,
    Formula,
    Not,
    Or,
    compare,
    conj,
    disj,
    eq,
    fold_atom,
    le,
    lt,
    negate,
    to_dnf,
    to_nnf,
)
from .optimize import bounds, maximize, minimize
from .proof import (
    ClauseStep,
    FarkasCert,
    FarkasEntry,
    IntDivCert,
    ProofLog,
    SplitCert,
    TrichotomyCert,
)
from .qe import EliminationResult, eliminate_exists, unsat_region
from .session import Scope, SmtSession
from .simplex import DeltaRational, Simplex, TheoryConflict
from .solver import (
    SAT,
    UNSAT,
    Model,
    Solver,
    SolverError,
    all_models,
    get_model,
    implies,
    is_satisfiable,
)
from .stats import GLOBAL_COUNTERS, SolverCounters
from .terms import INT, REAL, LinExpr, Var, linear_combination
from .theory import SolverBudgetError, check_conjunction, tighten

__all__ = [
    "And",
    "Atom",
    "BVar",
    "ClauseStep",
    "DeltaRational",
    "DnfBlowupError",
    "EliminationResult",
    "EQ",
    "FALSE",
    "FarkasCert",
    "FarkasEntry",
    "Formula",
    "GLOBAL_COUNTERS",
    "INT",
    "IntDivCert",
    "LE",
    "LT",
    "LinExpr",
    "Model",
    "NE",
    "Not",
    "Or",
    "ProofLog",
    "REAL",
    "SAT",
    "Scope",
    "Simplex",
    "SmtSession",
    "SplitCert",
    "TrichotomyCert",
    "Solver",
    "SolverBudgetError",
    "SolverCounters",
    "SolverError",
    "TheoryConflict",
    "TRUE",
    "UNSAT",
    "Var",
    "all_models",
    "bounds",
    "check_conjunction",
    "compare",
    "maximize",
    "minimize",
    "conj",
    "disj",
    "eliminate_exists",
    "eq",
    "fold_atom",
    "get_model",
    "implies",
    "is_satisfiable",
    "le",
    "linear_combination",
    "lt",
    "negate",
    "tighten",
    "to_dnf",
    "to_nnf",
    "unsat_region",
]
