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

from dataclasses import dataclass

import numpy as np

from .core import BlockMatrix, frobenius_norm, split
from .errors import HypothesisError, NumericError, SingularSymbolError, StructuralError
from .spectral import Subspace, principal_angles
from .subordinated import TheoremResult, run_theorem
from .angular import GraphBase, GraphSubspace, from_graph

#: Guaranteed bound on the unitarity defect of the spinor rotation.
FW_UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class GridSpec:
    """Square periodic grid: ``n`` points per axis on a box of side ``length``.

    ``shifted`` selects the half-integer momentum offset; the plain integer
    grid contains k = 0 and is rejected by every spinor-phase construction.
    """

    n: int
    length: float = 2.0 * np.pi
    shifted: bool = True

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise StructuralError(f"grid size must be even and >= 4, got {self.n}")
        if self.length <= 0:
            raise StructuralError(f"box length must be positive, got {self.length}")

    def momenta(self) -> np.ndarray:
        """1-d momentum values, ascending."""
        offset = 0.5 if self.shifted else 0.0
        j = np.arange(-self.n // 2, self.n // 2)
        return (2.0 * np.pi / self.length) * (j + offset)

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

    @property
    def points(self) -> int:
        return self.n * self.n


@dataclass(frozen=True)
class ImpurityPotential:
    """Bounded real scalar potential acting equally on both spinor components."""

    amplitude: float
    profile: str = "disk"
    radius: float = 1.0
    center: tuple[float, float] | None = None

    def __post_init__(self):
        if self.amplitude < 0:
            raise StructuralError("potential amplitude must be non-negative")
        if self.profile not in ("disk", "gaussian"):
            raise StructuralError(f"unknown potential profile {self.profile!r}")
        if self.radius <= 0:
            raise StructuralError("potential radius must be positive")

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
        denom = kx - 1j * ky
        if np.any(denom == 0):
            raise SingularSymbolError(
                "momentum grid contains k = 0; use a shifted grid"
            )
        return np.hypot(kx, ky) / denom

    def h0_multiplier(self) -> np.ndarray:
        """Per-momentum 2x2 blocks ``sigma . k`` (shape points x 2 x 2)."""
        kx, ky = self.grid.momentum_mesh()
        blocks = np.zeros((kx.size, 2, 2), dtype=np.complex128)
        blocks[:, 0, 1] = kx - 1j * ky
        blocks[:, 1, 0] = kx + 1j * ky
        return blocks


@dataclass(frozen=True)
class DiracOperators:
    """Dense realizations of all operator ingredients on one grid."""

    fourier: np.ndarray
    theta_values: np.ndarray
    theta_op: np.ndarray
    sqrt_lap: np.ndarray
    potential_values: np.ndarray
    h_free: np.ndarray
    h_full: np.ndarray
    t_fw: np.ndarray


@dataclass(frozen=True)
class DiracSplitReport:
    """Split-identity residuals and subordination margins of the FW blocks.

    ``block_identity_residual`` measures the actual diagonal blocks against
    the averaged form ``((+-S + U) + Theta (+-S + U) Theta*) / 2``;
    ``display_identity_residual`` checks the same averaging identity for
    the unhalved combination ``+-S + U + Theta U Theta*`` (pure multiplier
    algebra, independent of the conjugation). ``margin`` is the sufficient
    condition ``k_min - 2 u_inf`` for subordination at zero, conservative
    for the actual blocks; the flag itself comes from the eigensolve.
    """

    block_identity_residual: float
    display_identity_residual: float
    sup_spec_A1: float
    inf_spec_A0: float
    subordinated: bool
    margin: float
    u_inf: float
    k_min: float

    def __bool__(self) -> bool:
        return self.subordinated


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


def build_operators(problem: DiracProblem) -> DiracOperators:
    """Assemble all dense operators for a problem instance."""
    grid = problem.grid
    theta_values = problem.theta()
    f1 = _dft_matrix(grid)
    fourier = np.kron(f1, f1)
    kx, ky = grid.momentum_mesh()
    theta_op = _multiplier(fourier, theta_values)
    sqrt_lap = _hermitize(_multiplier(fourier, np.hypot(kx, ky).astype(np.complex128)))
    minus = _multiplier(fourier, (kx - 1j * ky).astype(np.complex128))
    points = grid.points
    h_free = np.zeros((2 * points, 2 * points), dtype=np.complex128)
    h_free[:points, points:] = minus
    h_free[points:, :points] = minus.conj().T
    u = problem.potential.sample(grid)
    h_full = h_free.copy()
    idx = np.arange(2 * points)
    h_full[idx, idx] += np.concatenate([u, u])
    t_fw = np.zeros((2 * points, 2 * points), dtype=np.complex128)
    eye = np.eye(points, dtype=np.complex128)
    t_fw[:points, :points] = theta_op
    t_fw[:points, points:] = eye
    t_fw[points:, :points] = theta_op
    t_fw[points:, points:] = -eye
    t_fw /= np.sqrt(2.0)
    return DiracOperators(
        fourier=fourier,
        theta_values=theta_values,
        theta_op=theta_op,
        sqrt_lap=sqrt_lap,
        potential_values=u,
        h_free=h_free,
        h_full=h_full,
        t_fw=t_fw,
    )


def build_free_dirac(grid: GridSpec) -> np.ndarray:
    """Position-space matrix of the free operator ``sigma . k``."""
    problem = DiracProblem(grid=grid, potential=ImpurityPotential(amplitude=0.0))
    if not grid.shifted:
        # the free operator itself needs no spinor phase; build it directly
        f1 = _dft_matrix(grid)
        fourier = np.kron(f1, f1)
        kx, ky = grid.momentum_mesh()
        minus = _multiplier(fourier, (kx - 1j * ky).astype(np.complex128))
        points = grid.points
        h = np.zeros((2 * points, 2 * points), dtype=np.complex128)
        h[:points, points:] = minus
        h[points:, :points] = minus.conj().T
        return h
    return build_operators(problem).h_free


def fw_unitarity_residual(ops: DiracOperators) -> float:
    """``norm_F(T T* - I)`` of the spinor rotation (bounds the 2-norm defect)."""
    t = ops.t_fw
    return frobenius_norm(t @ t.conj().T - np.eye(t.shape[0]))


def _fw_block_matrix(ops: DiracOperators) -> BlockMatrix:
    transformed = _hermitize(ops.t_fw @ ops.h_full @ ops.t_fw.conj().T)
    points = ops.sqrt_lap.shape[0]
    return split(transformed, points)


def fw_transform(problem: DiracProblem) -> BlockMatrix:
    """Conjugate the impurity Hamiltonian into its spinor-rotated blocks.

    The output is exactly Hermitian with ``W0 = W1*``; the rotation's
    unitarity is verified to :data:`FW_UNITARITY_TOL`.
    """
    if not problem.grid.shifted:
        raise SingularSymbolError(
            "spinor phase undefined at k = 0; use a shifted grid"
        )
    ops = build_operators(problem)
    resid = fw_unitarity_residual(ops)
    if resid > FW_UNITARITY_TOL:
        raise NumericError(
            "spinor rotation lost unitarity",
            diagnostics={"unitarity_residual": resid},
        )
    return _fw_block_matrix(ops)


def check_subordination_split(
    problem: DiracProblem,
    bm: BlockMatrix | None = None,
    tol: float = 1e-10,
    ops: DiracOperators | None = None,
) -> DiracSplitReport:
    """Measure the averaged split identities and subordination at zero.

    Reports the residual of the transformed diagonal blocks against the
    average of ``+-S + U`` and its phase conjugate (S the momentum
    magnitude multiplier), the residual of the same averaging applied to
    the unhalved combination, and the extreme block eigenvalues; the
    subordination flag comes from the eigensolve, while the reported
    margin ``k_min - 2 u_inf`` is a sufficient but conservative bound.
    Residuals are Frobenius norms over ``norm(S) + u_inf``, where
    ``norm(S)`` is the largest momentum magnitude on the grid. Pass the
    ``ops`` of the problem when they are already built.
    Never raises on a failing flag; residuals and margins tell the story.
    """
    if ops is None:
        ops = build_operators(problem)
    if bm is None:
        bm = _fw_block_matrix(ops)
    s = ops.sqrt_lap
    theta = ops.theta_op
    u = np.diag(ops.potential_values).astype(np.complex128)
    u_inf = float(np.max(np.abs(ops.potential_values), initial=0.0))
    scale = max(float(np.max(np.hypot(*problem.grid.momentum_mesh()))) + u_inf, 1.0)

    def averaged(mat):
        return 0.5 * (mat + theta @ mat @ theta.conj().T)

    block_res = max(
        frobenius_norm(bm.A0 - averaged(s + u)),
        frobenius_norm(bm.A1 - averaged(-s + u)),
    ) / scale
    theta_u_theta = theta @ u @ theta.conj().T
    display_res = max(
        frobenius_norm((s + u + theta_u_theta) - averaged(s + 2.0 * u)),
        frobenius_norm((-s + u + theta_u_theta) - averaged(-s + 2.0 * u)),
    ) / scale
    sup_a1 = float(np.linalg.eigvalsh(bm.A1)[-1])
    inf_a0 = float(np.linalg.eigvalsh(bm.A0)[0])
    band = tol * scale
    subordinated = sup_a1 <= band and inf_a0 >= -band
    k_min = problem.grid.k_min
    return DiracSplitReport(
        block_identity_residual=block_res,
        display_identity_residual=display_res,
        sup_spec_A1=sup_a1,
        inf_spec_A0=inf_a0,
        subordinated=subordinated,
        margin=k_min - 2.0 * u_inf,
        u_inf=u_inf,
        k_min=k_min,
    )


def run_dirac_pipeline(problem: DiracProblem, tol: float = 1e-8) -> DiracPipelineResult:
    """Full decomposition of the impurity Hamiltonian at threshold zero.

    Confirms subordination of the rotated blocks, runs the subordinated
    pipeline on the block matrix with the negative block first, maps the
    resulting pair of graph subspaces back through the spinor rotation,
    and measures their principal angles against the negative/positive
    spectral subspaces of the position-space operator.
    """
    if not problem.grid.shifted:
        raise SingularSymbolError(
            "spinor phase undefined at k = 0; use a shifted grid"
        )
    ops = build_operators(problem)
    unitarity = fw_unitarity_residual(ops)
    if unitarity > FW_UNITARITY_TOL:
        raise NumericError(
            "spinor rotation lost unitarity",
            diagnostics={"unitarity_residual": unitarity},
        )
    bm = _fw_block_matrix(ops)
    report = check_subordination_split(problem, bm, ops=ops)
    if not report.subordinated:
        raise HypothesisError(
            f"rotated blocks are not subordinated at 0: sup spec(A1) = "
            f"{report.sup_spec_A1:.6g}, inf spec(A0) = {report.inf_spec_A0:.6g}"
        )
    theorem = run_theorem(bm.swapped(), mu=0.0, tol=tol)
    points = problem.grid.points
    # swapped coordinates list the negative block first; undo the swap
    perm = np.concatenate([np.arange(points, 2 * points), np.arange(points)])
    invperm = np.argsort(perm)
    minus_fw = theorem.L.basis[invperm, :]
    complement = from_graph(
        GraphSubspace(base=GraphBase.H1, X=-theorem.X.conj().T)
    )
    plus_fw = complement.basis[invperm, :]
    t = ops.t_fw
    minus_pos = Subspace(basis=_orthonormalize(t.conj().T @ minus_fw))
    plus_pos = Subspace(basis=_orthonormalize(t.conj().T @ plus_fw))
    w, v = np.linalg.eigh(ops.h_full)
    e_minus = Subspace(basis=v[:, w < 0.0])
    e_plus = Subspace(basis=v[:, w > 0.0])
    angle_minus = _max_angle(minus_pos, e_minus)
    angle_plus = _max_angle(plus_pos, e_plus)
    return DiracPipelineResult(
        theorem=theorem,
        split=report,
        fw_unitarity_residual=unitarity,
        angle_minus=angle_minus,
        angle_plus=angle_plus,
        h_eigenvalues=w,
        block_eigenvalues=(
            np.linalg.eigvalsh(bm.A0),
            np.linalg.eigvalsh(bm.A1),
        ),
        norm_X=theorem.norm_X,
    )


def _orthonormalize(basis: np.ndarray) -> np.ndarray:
    if basis.shape[1] == 0:
        return basis
    q, _ = np.linalg.qr(basis)
    return q


def _max_angle(u: Subspace, v: Subspace) -> float:
    # dimension mismatch cannot be an angle; report the worst possible one
    if u.dim != v.dim:
        return float(np.pi / 2.0)
    angles = principal_angles(u, v)
    return float(angles[0]) if angles.size else 0.0
