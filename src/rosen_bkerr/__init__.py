"""Structured eigenvalue backward errors of Rosenbrock system matrices.

Given a system matrix built from a state-space block A, coupling blocks B
and C, and a matrix polynomial P, this package computes how far the system
is from having a prescribed number as an eigenvalue when only a chosen
subset of the blocks may be perturbed.  Each of the fifteen block patterns
reduces either to a Hermitian pencil eigenvalue problem or to minimizing a
sum of two generalized Rayleigh quotients, solved through its eigenvector
characterization with a level-shifted self-consistent iteration.  Optimal
perturbations are reconstructed explicitly and every finite result can be
certified a posteriori.
"""

from .backward_error import (
    BackwardErrorResult,
    Certificate,
    CertificateCheck,
    PerturbationPattern,
    ReconstructionError,
    all_patterns,
    backward_error,
    certify,
    reconstruct_perturbation,
    srq2_problem_for,
)
from .jnr import (
    JnrPoint,
    OptimalityCertificate,
    boundary_sample,
    direction_grid,
    optimality_certificate,
    rho,
)
from .linalg import (
    EigenConvergenceError,
    IndefiniteMatrixError,
    NotPositiveDefiniteError,
    ZeroPencilError,
)
from .rosenbrock import ErrorMatrices, RosenbrockSystem, assemble_error_matrices
from .srq2 import (
    CommonNullViolationError,
    NondifferentiablePointError,
    Srq2Problem,
    Srq2Solution,
    brute_force_oracle,
    nepv_residuals,
    nondiff_candidates,
    scf_solve,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BackwardErrorResult",
    "Certificate",
    "CertificateCheck",
    "CommonNullViolationError",
    "EigenConvergenceError",
    "ErrorMatrices",
    "IndefiniteMatrixError",
    "JnrPoint",
    "NondifferentiablePointError",
    "NotPositiveDefiniteError",
    "OptimalityCertificate",
    "PerturbationPattern",
    "ReconstructionError",
    "RosenbrockSystem",
    "Srq2Problem",
    "Srq2Solution",
    "ZeroPencilError",
    "all_patterns",
    "assemble_error_matrices",
    "backward_error",
    "boundary_sample",
    "brute_force_oracle",
    "certify",
    "direction_grid",
    "nepv_residuals",
    "nondiff_candidates",
    "optimality_certificate",
    "reconstruct_perturbation",
    "rho",
    "scf_solve",
    "solve",
    "srq2_problem_for",
    "__version__",
]
