"""Discrete 2-d massless Dirac operator with an impurity potential.

The free operator is the Fourier multiplier ``sigma . k`` on a periodic
N x N grid (units where the velocity prefactor is 1). A half-integer
("antiperiodic") momentum offset keeps k = 0 off the grid, so the
unimodular spinor phase ``theta(k) = |k| / (k_x - i k_y)`` is defined
everywhere and the Foldy-Wouthuysen rotation

    T = (1/sqrt(2)) [[Theta, I], [Theta, -I]]

is unitary. Conjugating the impurity Hamiltonian ``H = sigma . k + U`` by
T produces a 2x2 block matrix whose diagonal blocks are
``+-sqrt(-Lap) + (U + Theta U Theta*) / 2`` and whose symmetric coupling
is ``(Theta U Theta* - U) / 2``; for a weak potential the block spectra
sit on opposite sides of zero and the subordinated pipeline applies,
recovering the electronic/positronic splitting of the position-space
operator.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .core import BlockMatrix, frobenius_norm, relative
from .errors import HypothesisError, NumericError, StructuralError
from .spectral import _ORTHO_TOL
from .subordinated import KERNEL_PROOF_ROUNDING, TheoremResult, check_subordination, run_theorem
from .transform import frame_angle_bound

#: Guaranteed bound on the unitarity defect of the spinor rotation.
FW_UNITARITY_TOL = 1e-10

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class GridSpec:
    """Square periodic grid: ``n`` points per axis on a box of side ``length``.

    Momenta carry the half-integer offset, so k = 0 is never on the grid.
    """

    n: int
    length: float = 2.0 * np.pi

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise StructuralError(f"grid size must be even and >= 4, got {self.n}")
        # an infinite box would put k = 0 on the grid
        if not 0.0 < self.length < math.inf:
            raise StructuralError(
                f"box length must be positive and finite, got {self.length}"
            )

    def momenta(self) -> np.ndarray:
        """1-d momentum values, ascending."""
        j = np.arange(-self.n // 2, self.n // 2)
        return (2.0 * np.pi / self.length) * (j + 0.5)

    def positions(self) -> np.ndarray:
        """1-d grid positions, ascending from 0."""
        return np.arange(self.n) * (self.length / self.n)

    def momentum_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened (kx, ky) arrays over the 2-d grid (row-major)."""
        k = self.momenta()
        kx, ky = np.meshgrid(k, k, indexing="ij")
        return kx.ravel(), ky.ravel()

    @property
    def k_min(self) -> float:
        """Smallest momentum magnitude on the 2-d grid."""
        kx, ky = self.momentum_mesh()
        return float(np.min(np.hypot(kx, ky)))


@dataclass(frozen=True)
class ImpurityPotential:
    """Bounded real scalar potential acting equally on both spinor components."""

    amplitude: float
    profile: str = "disk"
    radius: float = 1.0
    center: tuple[float, float] | None = None

    def __post_init__(self):
        # written so that NaN, for which every comparison is false, fails
        if not 0.0 <= self.amplitude < math.inf:
            raise StructuralError(
                f"potential amplitude must be finite and non-negative, "
                f"got {self.amplitude}"
            )
        if self.profile not in ("disk", "gaussian"):
            raise StructuralError(f"unknown potential profile {self.profile!r}")
        if not 0.0 < self.radius < math.inf:
            raise StructuralError(
                f"potential radius must be finite and positive, got {self.radius}"
            )
        if self.center is not None and not all(map(math.isfinite, self.center)):
            raise StructuralError(f"potential center must be finite, got {self.center}")

    def sample(self, grid: GridSpec) -> np.ndarray:
        """Potential values on the flattened 2-d position grid."""
        x = grid.positions()
        cx, cy = self.center if self.center is not None else (
            grid.length / 2.0,
            grid.length / 2.0,
        )
        gx, gy = np.meshgrid(x, x, indexing="ij")
        dist2 = (gx - cx) ** 2 + (gy - cy) ** 2
        if self.profile == "disk":
            values = np.where(dist2 <= self.radius**2, self.amplitude, 0.0)
        else:
            values = self.amplitude * np.exp(-dist2 / (2.0 * self.radius**2))
        return values.ravel()


@dataclass(frozen=True)
class DiracProblem:
    """Grid plus impurity; exposes the per-momentum data of the free operator."""

    grid: GridSpec
    potential: ImpurityPotential

    def theta(self) -> np.ndarray:
        """Unimodular spinor phase ``|k| / (k_x - i k_y)`` per momentum."""
        kx, ky = self.grid.momentum_mesh()
        return np.hypot(kx, ky) / (kx - 1j * ky)


@dataclass(frozen=True)
class DiracOperators:
    """Dense position-space ingredients of ``H = [[U, M], [M*, U]]`` on one
    grid, none larger than ``n^2 x n^2``: the spinor phase ``Theta``, the
    momentum magnitude ``S = sqrt(-Lap)``, the potential values (the
    diagonal of U) and the coupling block ``M = F* diag(k_x - i k_y) F``,
    F the 2-d transform to momenta. H itself is never assembled."""

    theta_op: np.ndarray
    sqrt_lap: np.ndarray
    potential_values: np.ndarray
    coupling: np.ndarray


@dataclass(frozen=True)
class DiracSplitReport:
    """Split-identity residuals and subordination margins of the FW blocks.

    ``block_identity_residual`` measures the actual diagonal blocks against
    the averaged form ``((+-S + U) + Theta (+-S + U) Theta*) / 2``. The
    blocks sum to ``U + Theta U Theta*`` as they are formed, so both forms
    read ``A0 - A1 = S + Theta S Theta*``, which is what it measures.
    ``margin`` is the sufficient condition ``k_min - 2 u_inf`` for
    subordination at zero, conservative for the actual blocks; the flag
    and the extreme eigenvalues are those of
    :func:`~blockdiag.subordinated.check_subordination` on the swapped
    blocks at 0.
    """

    block_identity_residual: float
    sup_spec_A1: float
    inf_spec_A0: float
    subordinated: bool
    margin: float
    u_inf: float
    k_min: float
    norm_bound: float


@dataclass(frozen=True)
class DiracPipelineResult:
    """Outcome of the full electronic/positronic decomposition run."""

    theorem: TheoremResult
    split: DiracSplitReport
    fw_unitarity_residual: float
    angle_minus: float
    angle_plus: float
    h_eigenvalues: np.ndarray
    block_eigenvalues: tuple[np.ndarray, np.ndarray]
    norm_X: float


@contextmanager
def _overflow_is_input_error(quantity: str):
    """Raise an overflow or invalid value inside the block as an input error.

    Usable as a decorator. A potential, box or centre too large for the
    grid makes the named quantity overflow; that is a property of the input
    (exit code 3), not a failed subordination check.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise StructuralError(
            f"{quantity} not representable ({exc}); the potential amplitude, "
            f"the box or the centre is too large"
        ) from exc


def _dft_matrix(grid: GridSpec) -> np.ndarray:
    """Unitary 1-d transform from positions to (possibly shifted) momenta."""
    k = grid.momenta()
    x = grid.positions()
    return np.exp(-1j * np.outer(k, x)) / np.sqrt(grid.n)


def _multiplier(fourier: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Position-space matrix of a momentum multiplier."""
    return fourier.conj().T @ (symbol[:, None] * fourier)


def _hermitize(m: np.ndarray) -> np.ndarray:
    """Exact Hermitian part; bitwise-Hermitian output."""
    return 0.5 * (m + m.conj().T)


@_overflow_is_input_error("Dirac operators")
def build_operators(problem: DiracProblem) -> DiracOperators:
    """Assemble all dense operators for a problem instance."""
    grid = problem.grid
    theta_values = problem.theta()
    f1 = _dft_matrix(grid)
    fourier = np.kron(f1, f1)
    kx, ky = grid.momentum_mesh()
    theta_op = _multiplier(fourier, theta_values)
    sqrt_lap = _hermitize(_multiplier(fourier, np.hypot(kx, ky).astype(np.complex128)))
    return DiracOperators(
        theta_op=theta_op,
        sqrt_lap=sqrt_lap,
        potential_values=problem.potential.sample(grid),
        coupling=_multiplier(fourier, (kx - 1j * ky).astype(np.complex128)),
    )


def fw_unitarity_residual(ops: DiracOperators) -> float:
    """``norm_F(T T* - I)`` of the spinor rotation (bounds the 2-norm defect).

    Every block of ``T T* - I`` is ``(Theta Theta* - I) / 2``, so this is
    ``norm_F(Theta Theta* - I)``.
    """
    theta = ops.theta_op
    return frobenius_norm(theta @ theta.conj().T - np.eye(theta.shape[0]))


def _unitary_operators(problem: DiracProblem) -> tuple[DiracOperators, float]:
    """:func:`build_operators` with the rotation's unitarity verified.

    Returns the operators and their unitarity residual, which must stay
    within :data:`FW_UNITARITY_TOL`.
    """
    ops = build_operators(problem)
    resid = fw_unitarity_residual(ops)
    if resid > FW_UNITARITY_TOL:
        raise NumericError(
            "spinor rotation lost unitarity",
            diagnostics={"unitarity_residual": resid},
        )
    return ops, resid


@_overflow_is_input_error("spinor-rotated Hamiltonian T H T*")
def _fw_block_matrix(ops: DiracOperators) -> BlockMatrix:
    """``T H T*`` block by block, from ``P = Theta U Theta*`` and ``K = Theta M``.

    With ``H = [[U, M], [M*, U]]`` the blocks are
    ``A0, A1 = (P + U +- (K + K*)) / 2`` and ``W0 = W1* = (P - U + K - K*) / 2``;
    each diagonal block is exactly Hermitian and ``W1`` is exactly ``W0*``.
    """
    theta = ops.theta_op
    u = np.diag(ops.potential_values)
    p = _hermitize((theta * ops.potential_values) @ theta.conj().T)
    k = theta @ ops.coupling
    k_sym = k + k.conj().T
    w0 = 0.5 * (p - u + (k - k.conj().T))
    return BlockMatrix(
        A0=0.5 * (p + u + k_sym), A1=0.5 * (p + u - k_sym), W0=w0, W1=w0.conj().T
    )


def fw_transform(problem: DiracProblem) -> BlockMatrix:
    """Conjugate the impurity Hamiltonian into its spinor-rotated blocks.

    The output is exactly Hermitian with ``W0 = W1*``; the rotation's
    unitarity is verified to :data:`FW_UNITARITY_TOL`.
    """
    return _fw_block_matrix(_unitary_operators(problem)[0])


@_overflow_is_input_error("split-identity residuals")
def check_subordination_split(
    problem: DiracProblem, bm: BlockMatrix, ops: DiracOperators
) -> DiracSplitReport:
    """Measure the averaged split identities and subordination at zero.

    Reports the residual of the transformed diagonal blocks against the
    average of ``+-S + U`` and its phase conjugate (S the momentum
    magnitude multiplier), and the extreme block eigenvalues and the
    subordination flag of :func:`~blockdiag.subordinated.check_subordination`
    on the swapped blocks at 0: the rule, band included, that
    :func:`~blockdiag.subordinated.run_theorem` applies to those blocks in
    :func:`run_dirac_pipeline`. The reported margin ``k_min - 2 u_inf`` is
    a sufficient but conservative bound, and a margin that overflows is an
    input error. Residuals are Frobenius norms over ``norm(S) + u_inf``,
    where ``norm(S)`` is the largest momentum magnitude on the grid;
    ``norm_bound = norm(S) + u_inf`` bounds ``norm(H)`` from above.
    ``ops`` are the problem's operators and ``bm`` their rotated blocks.
    Never raises on a failing flag; residuals and margins tell the story.
    """
    theta = ops.theta_op
    u_inf = float(np.max(np.abs(ops.potential_values), initial=0.0))
    k_min = problem.grid.k_min
    margin = k_min - 2.0 * u_inf
    if not math.isfinite(margin):
        # Python float arithmetic, which no numpy error state sees
        raise StructuralError(
            f"subordination margin k_min - 2 u_inf not representable "
            f"(u_inf = {u_inf:.3e}); the potential is too large"
        )
    norm_bound = float(np.max(np.hypot(*problem.grid.momentum_mesh()))) + u_inf
    # A0 + A1 = U + P, P = Theta U Theta* as _fw_block_matrix forms it, so
    # both averaged identities read A0 - A1 = S + Theta S Theta*
    free = ops.sqrt_lap + theta @ ops.sqrt_lap @ theta.conj().T
    block_res = relative(0.5 * frobenius_norm(bm.A0 - bm.A1 - free), norm_bound)
    # the block spectra, read before swapping, carry over to every swapped copy
    bm.eigvalsh_A
    check = check_subordination(bm.swapped(), 0.0)
    return DiracSplitReport(
        block_identity_residual=block_res,
        sup_spec_A1=check.sup_spec_A0,
        inf_spec_A0=check.inf_spec_A1,
        subordinated=check.subordinated,
        margin=margin,
        u_inf=u_inf,
        k_min=k_min,
        norm_bound=norm_bound,
    )


def run_dirac_pipeline(problem: DiracProblem, tol: float = 1e-8) -> DiracPipelineResult:
    """Full decomposition of the impurity Hamiltonian at threshold zero.

    Confirms subordination of the rotated blocks, runs the subordinated
    pipeline on the block matrix with the negative block first, and
    certifies upper bounds on the largest angles between the pair of graph
    subspaces, mapped back through the spinor rotation, and the
    negative/positive spectral subspaces of the position-space operator.
    The bounds come from the theorem's skew-pair frame in the rotated
    coordinates (:func:`~blockdiag.transform.frame_angle_bound`), with no
    product of the full dimension: its slack covers the unitarity defect of
    the rotation and the rounding of the rotated blocks, and the sine of
    each angle grows by a rounding term and by the rotation's tilt (README
    "Numerics notes"). ``angle_minus`` is that of the basis L, whose sine
    grows also by its distance from graph(X), the theorem's
    ``graph_distance``; ``angle_plus`` is that of graph(-X*) itself, the
    complement of graph(X), of which no basis is formed. The spectrum of H
    is the eigenvalues of the one staged ``eigh`` of the rotated matrix
    that the subordinated pipeline takes, which forms only the eigenvectors
    below 0.
    """
    ops, unitarity = _unitary_operators(problem)
    bm = _fw_block_matrix(ops)
    report = check_subordination_split(problem, bm, ops)
    if not report.subordinated:
        raise HypothesisError(
            f"rotated blocks are not subordinated at 0: sup spec(A1) = "
            f"{report.sup_spec_A1:.6g}, inf spec(A0) = {report.inf_spec_A0:.6g}",
            report=report,
        )
    swapped = bm.swapped()
    theorem = run_theorem(swapped, mu=0.0, tol=tol)
    # T = P V with V unitary and norm(P - I) <= eps: the rotated blocks are
    # within r h of T H T*, which is within eps (2 + eps) h of V H V*, and
    # T* tilts a span by at most eps / (1 - eps) from the one V* gives
    r = KERNEL_PROOF_ROUNDING * swapped.dim * _EPS
    eps = unitarity + r
    x, xh, right, n0 = theorem.X, theorem.X.conj().T, theorem.diag_results[1], swapped.n0
    (m00, m11), w, mu = right.diag_blocks, swapped.staged_eigh.w, theorem.mu
    t0, t1 = (w[n0 - 1] + mu) / 2.0, (w[n0] + mu) / 2.0
    # t0 S0 - C00 and C11 - t1 S1 from the right form's closed-form blocks:
    # C00 = m00 + X* (W0 + A1 X) and C11 = m11 - X (W1 - A0 X*)
    definite = (
        t0 * np.eye(n0) - m00 - xh @ (swapped.W0 + swapped.A1 @ x - t0 * x),
        m11 - t1 * np.eye(swapped.n1) - x @ (swapped.W1 - swapped.A0 @ xh + t1 * xh),
    )
    sine = frame_angle_bound(
        definite, theorem.norm_X, (t0, t1), mu, right.frame_defects[0], swapped.norm,
        (r + eps * (2.0 + eps)) * report.norm_bound,
    )
    # the distance of L from graph(X) over its least singular value; the
    # complement graph(-X*) is certified itself, with no basis to be apart
    rho, sigma = r * (1.0 + theorem.norm_X) ** 2, math.sqrt(1.0 - _ORTHO_TOL - 2.0 * r)
    sines = (sine + (d + rho) / sigma for d in (theorem.graph_distance, 0.0))
    angle_minus, angle_plus = (math.asin(min(1.0, s + eps / (1.0 - eps))) for s in sines)
    return DiracPipelineResult(
        theorem=theorem,
        split=report,
        fw_unitarity_residual=unitarity,
        angle_minus=angle_minus,
        angle_plus=angle_plus,
        h_eigenvalues=w,
        block_eigenvalues=bm.eigvalsh_A,
        norm_X=theorem.norm_X,
    )
