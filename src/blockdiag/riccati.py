"""Quadratic (Riccati) residuals and a Newton-Sylvester solver.

The graph of ``X0`` over H0 is invariant for the assembled block matrix
exactly when ``A1 X0 - X0 A0 - X0 W1 X0 + W0 = 0``; the mirrored equation
characterizes graphs over H1, and both combine into a single quadratic
equation for the off-diagonal operator Y. The Newton iteration solves the
H0 equation independently of any eigensolver and serves as a mutual
oracle for the spectral route.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .angular import AngularPair
from .core import BlockMatrix, as_matrix, frobenius_norm, norm_lower_bound
from .errors import NumericError, StructuralError, SylvesterSingularError

#: Relative spectra separation below which a Sylvester equation is
#: treated as singular.
SYLVESTER_SEPARATION_TOL = 1e-10


@dataclass(frozen=True)
class RiccatiResidual:
    """Residual matrix with a scale-aware relative norm.

    ``rel_norm = norm_F(residual) / ((norm(A) + norm(V)) (1 + n(X))^2)``
    so the same tolerance is meaningful for small and large solutions.
    ``norm(A)`` and ``norm(V)`` are exact 2-norms and ``n(X)`` a lower bound
    on ``norm(X)``: the gate is never looser than the all-2-norm quotient.
    """

    residual: np.ndarray
    rel_norm: float

    def __post_init__(self):
        object.__setattr__(self, "residual", as_matrix(self.residual, "residual"))


@dataclass(frozen=True)
class NewtonTrace:
    """Relative residual history of a Newton run."""

    iterates: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0


def _rel_norm(residual, b: BlockMatrix, x) -> float:
    denom = (b.norm_A + b.norm_V) * (1.0 + norm_lower_bound(x)) ** 2
    r = frobenius_norm(residual)
    if denom == 0.0:
        return 0.0 if r == 0.0 else float("inf")
    return r / denom


def residual_X0(b: BlockMatrix, X0) -> RiccatiResidual:
    """Residual ``A1 X0 - X0 A0 - X0 W1 X0 + W0`` of the H0 graph equation."""
    x = as_matrix(X0, "X0")
    if x.shape != (b.n1, b.n0):
        raise StructuralError(f"X0 must have shape {(b.n1, b.n0)}, got {x.shape}")
    res = b.A1 @ x - x @ b.A0 - x @ b.W1 @ x + b.W0
    return RiccatiResidual(residual=res, rel_norm=_rel_norm(res, b, x))


def residual_X1(b: BlockMatrix, X1) -> RiccatiResidual:
    """Residual ``A0 X1 - X1 A1 - X1 W0 X1 + W1`` of the H1 graph equation."""
    x = as_matrix(X1, "X1")
    if x.shape != (b.n0, b.n1):
        raise StructuralError(f"X1 must have shape {(b.n0, b.n1)}, got {x.shape}")
    res = b.A0 @ x - x @ b.A1 - x @ b.W0 @ x + b.W1
    return RiccatiResidual(residual=res, rel_norm=_rel_norm(res, b, x))


def residual_block(b: BlockMatrix, p: AngularPair) -> RiccatiResidual:
    """Residual ``A Y - Y A - Y V Y + V`` of the combined block equation.

    Every term of the expression is off-diagonal (odd number of
    off-diagonal factors), so the residual's diagonal blocks vanish
    identically and its (1,0)/(0,1) blocks are exactly the H0/H1 graph
    equation residuals; it is assembled from those blockwise.
    """
    if (p.n0, p.n1) != (b.n0, b.n1):
        raise StructuralError(
            f"pair dimensions {(p.n0, p.n1)} do not match blocks {(b.n0, b.n1)}"
        )
    n0, n1 = b.n0, b.n1
    res = np.zeros((n0 + n1, n0 + n1), dtype=np.complex128)
    res[n0:, :n0] = residual_X0(b, p.X0).residual
    res[:n0, n0:] = residual_X1(b, p.X1).residual
    return RiccatiResidual(residual=res, rel_norm=_rel_norm(res, b, p.Y))


def solve_sylvester(P, Q, C) -> np.ndarray:
    """Solve ``P Z - Z Q = C`` by Schur-based back-substitution.

    Raises :class:`SylvesterSingularError` when the spectra of P and Q are
    closer than ``SYLVESTER_SEPARATION_TOL`` relative to their norms, and
    verifies the residual of the computed solution. Both tests use
    Frobenius norms where that makes them stricter: the separation is
    measured against upper bounds of the coefficient norms, and the
    residual against a lower bound of the right-hand side's norm.
    """
    p = as_matrix(P, "P")
    q = as_matrix(Q, "Q")
    c = as_matrix(C, "C")
    if p.shape[0] != p.shape[1] or q.shape[0] != q.shape[1]:
        raise StructuralError("Sylvester coefficients must be square")
    if c.shape != (p.shape[0], q.shape[0]):
        raise StructuralError(
            f"right-hand side must have shape {(p.shape[0], q.shape[0])}, got {c.shape}"
        )
    eig_p = np.linalg.eigvals(p)
    eig_q = np.linalg.eigvals(q)
    sep = float(np.min(np.abs(eig_p[:, None] - eig_q[None, :])))
    scale = frobenius_norm(p) + frobenius_norm(q)
    if sep < SYLVESTER_SEPARATION_TOL * max(scale, 1.0):
        raise SylvesterSingularError(
            f"spectra of P and Q overlap numerically (separation {sep:.3e}, "
            f"scale {scale:.3e})"
        )
    try:
        z = scipy.linalg.solve_sylvester(p, -q, c)
    except np.linalg.LinAlgError as exc:
        raise SylvesterSingularError(f"Sylvester solve failed: {exc}") from exc
    resid = frobenius_norm(p @ z - z @ q - c)
    rhs_scale = norm_lower_bound(c)
    if resid > 1e-9 * max(rhs_scale, 1e-300):
        raise NumericError(
            "Sylvester solution residual beyond guarantee",
            diagnostics={"residual": resid, "rhs_norm_lower_bound": rhs_scale},
        )
    return z


def solve_newton_X0(
    b: BlockMatrix,
    X0_init=None,
    tol: float = 1e-12,
    max_iter: int = 25,
) -> tuple[np.ndarray, NewtonTrace]:
    """Newton iteration on the H0 graph equation.

    Each step solves ``(A1 - X W1) D - D (A0 + W1 X) = -F(X)`` and updates
    ``X <- X + D``. Non-convergence within ``max_iter`` steps is reported
    in the trace, not raised; singular Newton steps propagate
    :class:`SylvesterSingularError`.
    """
    x = (
        np.zeros((b.n1, b.n0), dtype=np.complex128)
        if X0_init is None
        else as_matrix(X0_init, "X0_init")
    )
    if x.shape != (b.n1, b.n0):
        raise StructuralError(f"X0_init must have shape {(b.n1, b.n0)}, got {x.shape}")
    history: list[float] = []
    for iteration in range(max_iter + 1):
        f = residual_X0(b, x)
        history.append(f.rel_norm)
        if f.rel_norm <= tol:
            return x, NewtonTrace(
                iterates=history, converged=True, iterations=iteration
            )
        if iteration == max_iter:
            break
        coeff_left = b.A1 - x @ b.W1
        coeff_right = b.A0 + b.W1 @ x
        dx = solve_sylvester(coeff_left, coeff_right, -f.residual)
        x = x + dx
    return x, NewtonTrace(iterates=history, converged=False, iterations=max_iter)
