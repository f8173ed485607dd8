"""Quadratic (Riccati) residuals and a Newton-Sylvester solver.

The graph of ``X0`` over H0 is invariant for the assembled block matrix
exactly when ``A1 X0 - X0 A0 - X0 W1 X0 + W0 = 0``; the mirrored equation
characterizes graphs over H1, and both combine into a single quadratic
equation for the off-diagonal operator Y. The Newton iteration solves the
H0 equation without an eigensolve of the assembled matrix and serves as a
mutual oracle for the spectral route. Each Newton step is a Sylvester
equation, solved by Bartels-Stewart on one triangular form per
coefficient: ``eigh`` for a bitwise-Hermitian coefficient, the complex
Schur form otherwise. The spectra separation gate reads the diagonals of
those forms, so no coefficient is factored twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .angular import AngularPair
from .core import (
    BlockMatrix,
    _bitwise_hermitian,
    as_matrix,
    frobenius_norm,
    from_blocks,
    norm_lower_bound,
)
from .errors import NumericError, StructuralError, SylvesterSingularError

#: Relative spectra separation below which a Sylvester equation is
#: treated as singular.
SYLVESTER_SEPARATION_TOL = 1e-10

#: Largest side of a triangular Sylvester block handed to ``ztrsyl``.
TRSYL_BLOCK = 64


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
    return assemble_residual_block(
        b, p, residual_X0(b, p.X0), residual_X1(b, p.X1)
    )


def assemble_residual_block(
    b: BlockMatrix, p: AngularPair, r0: RiccatiResidual, r1: RiccatiResidual
) -> RiccatiResidual:
    """:func:`residual_block` from ``r0 = residual_X0(b, p.X0)`` and
    ``r1 = residual_X1(b, p.X1)``, for callers that report those as well."""
    res = from_blocks(None, r1.residual, r0.residual, None)
    return RiccatiResidual(residual=res, rel_norm=_rel_norm(res, b, p.Y))


def _triangular_form(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form ``m = U T U*`` (T upper triangular, U unitary).

    A bitwise-Hermitian ``m`` takes ``eigh``, whose T is diagonal and real;
    any other ``m`` takes the complex Schur decomposition.
    """
    if _bitwise_hermitian(m):
        w, u = np.linalg.eigh(m)
        return np.diag(w.astype(np.complex128)), u
    return scipy.linalg.schur(m, output="complex")


def _solve_triangular_sylvester(tp, tq, c) -> np.ndarray:
    """Solve ``Tp Y - Y Tq = C`` for upper-triangular ``Tp``, ``Tq``.

    ``ztrsyl`` works one entry at a time, so larger problems are halved
    along their larger side first: the half solved first feeds the other
    through one matrix product, and ``ztrsyl`` only sees blocks of at most
    :data:`TRSYL_BLOCK` rows and columns.
    """
    m, n = c.shape
    if max(m, n) <= TRSYL_BLOCK:
        y, scale, info = scipy.linalg.lapack.ztrsyl(tp, tq, c, isgn=-1)
        if info != 0:
            raise SylvesterSingularError(
                f"triangular Sylvester solve failed (info {info})"
            )
        return y / scale
    if m >= n:
        h = m // 2
        y2 = _solve_triangular_sylvester(tp[h:, h:], tq, c[h:])
        y1 = _solve_triangular_sylvester(tp[:h, :h], tq, c[:h] - tp[:h, h:] @ y2)
        return np.vstack([y1, y2])
    h = n // 2
    y1 = _solve_triangular_sylvester(tp, tq[:h, :h], c[:, :h])
    y2 = _solve_triangular_sylvester(tp, tq[h:, h:], c[:, h:] + y1 @ tq[:h, h:])
    return np.hstack([y1, y2])


def solve_sylvester(P, Q, C) -> np.ndarray:
    """Solve ``P Z - Z Q = C`` by Bartels-Stewart on one Schur form each.

    With ``P = Up Tp Up*`` and ``Q = Uq Tq Uq*`` the equation becomes the
    triangular ``Tp Y - Y Tq = Up* C Uq``, solved by LAPACK ``ztrsyl``, and
    ``Z = Up Y Uq*``. Raises :class:`SylvesterSingularError` when the
    spectra of P and Q, read off the diagonals of Tp and Tq, are closer
    than ``SYLVESTER_SEPARATION_TOL`` relative to their norms, or when
    ``ztrsyl`` reports close eigenvalues; verifies the residual of the
    computed solution. Both tests use Frobenius norms where that makes
    them stricter: the separation is measured against upper bounds of the
    coefficient norms, and the residual against a lower bound of the
    right-hand side's norm.
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
    tp, up = _triangular_form(p)
    tq, uq = _triangular_form(q)
    sep = float(np.min(np.abs(np.diag(tp)[:, None] - np.diag(tq)[None, :])))
    scale = frobenius_norm(p) + frobenius_norm(q)
    if sep < SYLVESTER_SEPARATION_TOL * max(scale, 1.0):
        raise SylvesterSingularError(
            f"spectra of P and Q overlap numerically (separation {sep:.3e}, "
            f"scale {scale:.3e})"
        )
    y = _solve_triangular_sylvester(tp, tq, up.conj().T @ c @ uq)
    z = up @ y @ uq.conj().T
    resid = frobenius_norm(p @ z - z @ q - c)
    rhs_scale = norm_lower_bound(c)
    if resid > 1e-9 * max(rhs_scale, 1e-300):
        raise NumericError(
            "Sylvester solution residual beyond guarantee",
            diagnostics={"residual": resid, "rhs_norm_lower_bound": rhs_scale},
        )
    return z


def solve_newton_X0(
    b: BlockMatrix, tol: float = 1e-12, max_iter: int = 25
) -> tuple[np.ndarray, NewtonTrace]:
    """Newton iteration on the H0 graph equation, from ``X = 0``.

    Each step solves ``(A1 - X W1) D - D (A0 + W1 X) = -F(X)`` and updates
    ``X <- X + D``. Non-convergence within ``max_iter`` steps is reported
    in the trace, not raised; singular Newton steps propagate
    :class:`SylvesterSingularError`.
    """
    x = np.zeros((b.n1, b.n0), dtype=np.complex128)
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
