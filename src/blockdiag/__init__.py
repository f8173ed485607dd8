"""Finite-dimensional toolkit for 2x2 block operator matrices.

Core objects: dense complex matrices (numpy arrays), the immutable
:class:`~blockdiag.core.BlockMatrix`, orthonormal
:class:`~blockdiag.spectral.Subspace` bases, graph subspaces with their
angular operators, and the similarity transforms they induce.
"""

from .core import (
    BlockMatrix,
    operator_norm,
    triangular_form,
)
from .angular import (
    AngularPair,
    ComplementarityReport,
    GraphBase,
    GraphSubspace,
    check_complementary,
    form_pair,
    from_graph,
    spectral_graph,
    spectral_pair,
    to_graph,
)
from .spectral import (
    Subspace,
    invariant_subspace,
)
from .riccati import (
    NewtonTrace,
    RiccatiResidual,
    residual_block,
    residual_X0,
    residual_X1,
    solve_newton_X0,
    solve_sylvester,
)
from .transform import (
    DiagonalizationResult,
    TriangularizationResult,
    diagonalize,
    triangularize,
    verify_extended_identity,
    verify_resolvent_invariance,
    verify_spectral_identity,
)
from .criteria import (
    NeumannCertificate,
    RelativeBoundEstimate,
    estimate_relative_bound,
    neumann_certificate,
    resolvent_norm,
)
from .subordinated import (
    SubordinationCheck,
    TheoremResult,
    check_subordination,
    choose_mu,
    run_theorem,
)
from .dirac import (
    DiracProblem,
    GridSpec,
    ImpurityPotential,
    check_subordination_split,
    fw_transform,
    run_dirac_pipeline,
)
from .fixtures import random_case
from .io import ProblemFile, Report, load_problem, save_problem

__version__ = "0.1.0"

