"""Quadratic (Riccati) residuals and a Newton-Sylvester solver.

The graph of ``X0`` over H0 is invariant for the assembled block matrix
exactly when ``A1 X0 - X0 A0 - X0 W1 X0 + W0 = 0``; the mirrored equation
characterizes graphs over H1, and both combine into a single quadratic
equation for the off-diagonal operator Y. The Newton iteration solves the
H0 equation without an eigensolve of the assembled matrix, and on
Hermitian input :func:`x0_forward_error_bound` certifies, in the graph
frame of the X it found, how far that X is from the spectral one.

Each Newton step is the Sylvester equation ``P D - D Q = -F`` with
``P = A1 - X W1`` and ``Q = A0 + W1 X``. On Hermitian input (bitwise
Hermitian A0, A1 and ``W0 = W1*`` bitwise) the iteration moves into graph
frames instead: the Hermitian compressions of B onto graph(X) and its
complement bring P and Q near diagonal, and in the frame's coordinates the
graph equation is a Riccati equation with small coefficients, solved by
contracting sweeps (Stewart's fixed-point iteration), 3 half-size products
each, with ``m Z`` formed only when a bound on its gates cannot decide. The
first step, from X = 0, is the Newton step in the frame of ``eigh_A``, one
division; the second, in a frame factorized at its X (two generalized
eigensolves, :func:`~blockdiag.core.hermitian_eigh`), usually lands on the
solution, and the true residual of each X decides convergence. A frame
solve that declines gives way to the Newton step in the same frame. Every
other input, and every step whose frame declines both, takes Bartels-Stewart
(:func:`solve_sylvester`) on one triangular form per coefficient
(:func:`~blockdiag.core.triangular_form`): ``eigh`` when bitwise Hermitian,
complex Schur otherwise. Both routes read the spectra separation gate off
the factorizations they made.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .angular import AngularPair
from .core import (
    KERNEL_PROOF_ROUNDING,
    BlockMatrix,
    _bitwise_hermitian,
    as_matrix,
    frobenius_norm,
    from_blocks,
    hermitian_eigh,
    norm_lower_bound,
    relative,
    schur_diagonal,
    triangular_form,
)
from .errors import HypothesisError, NumericError, StructuralError, SylvesterSingularError
from .transform import frame_angle_bound

#: Relative spectra separation at or below which a Sylvester equation is
#: treated as singular.
SYLVESTER_SEPARATION_TOL = 1e-10

#: Largest side of a triangular Sylvester block handed to ``ztrsyl``.
TRSYL_BLOCK = 64

#: Bound on a Sylvester solution's residual, relative to a lower bound on
#: the norm of the right-hand side.
SYLVESTER_RESIDUAL_TOL = 1e-9

#: Largest contraction factor of the graph-frame sweeps at which a step on
#: Hermitian input is solved by them.
GRAPH_FRAME_CONTRACTION_MAX = 0.5

#: Relative change of the graph-frame solution at which the sweeps stop.
GRAPH_FRAME_SWEEP_TOL = 1e-15

#: Sweeps after which a graph-frame solve that has not met
#: :data:`GRAPH_FRAME_SWEEP_TOL` is declined.
GRAPH_FRAME_MAX_SWEEPS = 64


@dataclass(frozen=True)
class RiccatiResidual:
    """Residual matrix with a scale-aware relative norm.

    ``rel_norm = norm_F(residual) / ((a + norm(V)) (1 + n(X))^2)`` so the
    same tolerance is meaningful for small and large solutions. ``norm(V)``
    is the exact 2-norm, ``n(X)`` a lower bound on ``norm(X)``, and
    ``a = norm_F(A - cI) / sqrt(n0 + n1)`` with ``A = diag(A0, A1)`` and
    ``c = tr(A) / (n0 + n1)``. A diagonal shift ``A0, A1 + sI`` leaves the
    graph equations, and ``a``, unchanged, and
    ``a <= min_s norm(A - s) <= norm(A)``: the gate is never looser than
    the all-2-norm quotient. The residual is formed from the centred blocks
    ``A0 - cI`` and ``A1 - cI``, the same equation, so its rounding does
    not grow with a shift either.
    """

    residual: np.ndarray
    rel_norm: float


@dataclass(frozen=True)
class NewtonTrace:
    """Relative residual history of a Newton run.

    ``iterates`` holds :func:`residual_X0` of each iterate X on the centred
    blocks; the last entry decides ``converged``. ``iterations`` counts the
    steps: on gapped Hermitian input usually 2, the Newton step from X = 0
    and one graph-frame solve. ``schur_steps`` counts the steps solved by
    :func:`solve_sylvester`: every step on non-Hermitian input, and the
    steps whose frame declined both its solves on Hermitian input.
    ``frames`` counts the graph frames factorized by two generalized
    ``eigh`` (not the one at X = 0), ``sweeps`` the frame sweeps of all
    steps, declined solves too.
    """

    iterates: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    schur_steps: int = 0
    frames: int = 0
    sweeps: int = 0


def _centred_A(b: BlockMatrix) -> tuple[np.ndarray, np.ndarray]:
    """``(A0 - cI, A1 - cI)`` with ``c = tr(A) / dim`` for ``A = diag(A0, A1)``.

    A shift ``A + sI`` moves c by s and leaves the centred blocks as they
    are; the subtraction is exact on diagonal entries within a factor 2 of
    c, so their rounding does not grow with s either.
    """
    # blockwise sums, so that exchanging the blocks gives the same c
    c = np.sum(np.diag(b.A0) / b.dim) + np.sum(np.diag(b.A1) / b.dim)
    return b.A0 - c * np.eye(b.n0), b.A1 - c * np.eye(b.n1)


def _riccati_scale(b: BlockMatrix, a0, a1) -> float:
    """``norm_F(A - cI) / sqrt(dim) + norm(V)`` from the centred blocks.

    c is the scalar nearest A in the Frobenius norm, so the first term is at
    most ``norm_F(A - sI) / sqrt(dim) <= norm(A - sI)`` for every s.
    """
    spread = np.hypot(frobenius_norm(a0), frobenius_norm(a1)) / np.sqrt(b.dim)
    return float(spread) + b.norm_V


def _rel_norm(residual, scale: float, x) -> float:
    growth = 1.0 + norm_lower_bound(x)
    with np.errstate(over="ignore"):
        product = scale * growth**2
    if product < np.inf:
        return relative(frobenius_norm(residual), product)
    # past the float range the quotient is formed one factor at a time
    return relative(frobenius_norm(residual), scale) / growth / growth


def _residual(a0, a1, w0, w1, x, scale: float) -> tuple[np.ndarray, float, list]:
    """``a1 X - X a0 - X w1 X + w0`` and its norm relative to ``scale``, for
    centred blocks ``a_i``: the H0 graph equation, or the H1 one with the
    blocks exchanged. The list of its products ``a1 X, X a0, X w1`` comes
    third. A residual past the float range is formed with no warning: its
    relative norm is then inf or NaN, which fails every gate."""
    with np.errstate(over="ignore", invalid="ignore"):
        products = [a1 @ x, x @ a0, x @ w1]
        res = products[0] - products[1] - products[2] @ x + w0
    return res, _rel_norm(res, scale, x), products


def residual_X0(b: BlockMatrix, X0) -> RiccatiResidual:
    """Residual ``A1 X0 - X0 A0 - X0 W1 X0 + W0`` of the H0 graph equation."""
    x = as_matrix(X0, "X0")
    if x.shape != (b.n1, b.n0):
        raise StructuralError(f"X0 must have shape {(b.n1, b.n0)}, got {x.shape}")
    a0, a1 = _centred_A(b)
    return RiccatiResidual(*_residual(a0, a1, b.W0, b.W1, x, _riccati_scale(b, a0, a1))[:2])


def residual_X1(b: BlockMatrix, X1) -> RiccatiResidual:
    """Residual ``A0 X1 - X1 A1 - X1 W0 X1 + W1`` of the H1 graph equation."""
    x = as_matrix(X1, "X1")
    if x.shape != (b.n0, b.n1):
        raise StructuralError(f"X1 must have shape {(b.n0, b.n1)}, got {x.shape}")
    a0, a1 = _centred_A(b)
    return RiccatiResidual(*_residual(a1, a0, b.W1, b.W0, x, _riccati_scale(b, a0, a1))[:2])


def residual_block(
    b: BlockMatrix, p: AngularPair, r0: RiccatiResidual, r1: RiccatiResidual
) -> RiccatiResidual:
    """Residual ``A Y - Y A - Y V Y + V`` of the combined block equation,
    from ``r0 = residual_X0(b, p.X0)`` and ``r1 = residual_X1(b, p.X1)``.

    Every term of the expression is off-diagonal (odd number of
    off-diagonal factors), so the residual's diagonal blocks vanish
    identically and its (1,0)/(0,1) blocks are exactly the H0/H1 graph
    equation residuals.
    """
    res = from_blocks(None, r1.residual, r0.residual, None)
    scale = _riccati_scale(b, *_centred_A(b))
    return RiccatiResidual(residual=res, rel_norm=_rel_norm(res, scale, p.Y))


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
    """Solve ``P Z - Z Q = C`` by Bartels-Stewart on one triangular form each.

    With ``P = Up Tp Up*`` and ``Q = Uq Tq Uq*``
    (:func:`~blockdiag.core.triangular_form`) the equation becomes the
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
    tp, up = triangular_form(p, _bitwise_hermitian(p))
    tq, uq = triangular_form(q, _bitwise_hermitian(q))
    sep = float(np.min(np.abs(schur_diagonal(tp)[:, None] - schur_diagonal(tq)[None, :])))
    scale = frobenius_norm(p) + frobenius_norm(q)
    if sep <= SYLVESTER_SEPARATION_TOL * scale:
        raise SylvesterSingularError(
            f"spectra of P and Q overlap numerically (separation {sep:.3e}, "
            f"scale {scale:.3e})"
        )
    # the diagonal T of a Hermitian coefficient is given as its diagonal
    tp, tq = (np.diag(t.astype(np.complex128)) if t.ndim == 1 else t for t in (tp, tq))
    y = _solve_triangular_sylvester(tp, tq, up.conj().T @ c @ uq)
    z = up @ y @ uq.conj().T
    # the residual gate: norm_F(P Z - Z Q - C) <= SYLVESTER_RESIDUAL_TOL n(C)
    resid, rhs_scale = frobenius_norm(p @ z - z @ q - c), norm_lower_bound(c)
    if resid > SYLVESTER_RESIDUAL_TOL * rhs_scale:
        raise NumericError(
            "Sylvester solution residual beyond guarantee",
            diagnostics={"residual": resid, "rhs_norm_lower_bound": rhs_scale},
        )
    return z


class _GraphFrame(NamedTuple):
    """The graph equation in the Ritz frame made at X' on Hermitian input.

    With ``G = [I; X']``, ``K = [-X'*; I]``, ``S0 = I + X'* X'`` and
    ``S1 = I + X' X'*``, the Hermitian compressions ``H0 = G* B G`` and
    ``H1 = K* B K`` have ``H0 V0 = S0 V0 L0`` and ``H1 V1 = S1 V1 L1``
    (``V* S V = I``); ``t1 = S1 V1`` has inverse ``V1*`` and
    ``t0inv = V0* S0`` has inverse ``V0``. In the coordinates
    ``X = X' + t1 Z t0inv`` the graph equation is again a Riccati equation,
    ``V1* F(X) V0 = Phi(Z) = c + delta Z + (e1 - Z m) Z + Z e0`` (``delta Z``
    entrywise) with ``c = V1* F(X') V0``, ``L1 + e1 = V1* P(X') t1``,
    ``L0 - e0 = t0inv Q(X') V0`` and ``m = t0inv W1 t1``, and the Newton
    equation at X has ``V1* P(X) t1 = L1 + E1`` and
    ``t0inv Q(X) V0 = L0 - E0`` with ``E1 = e1 - Z m`` and ``E0 = e0 - m Z``.
    ``delta = l1_i - l0_j``; ``kappa = 1 + norm_1(X') norm_inf(X')`` bounds
    ``norm(t1) norm(t0inv) = 1 + norm(X')^2``, and
    ``pq = norm_F(P(X')) + norm_F(Q(X'))``. The frame at X' = 0, read off
    ``eigh_A``, has e1, e0 and m None: it serves the Newton step at X = 0
    only, one division. A sweep of any other frame takes at most 3
    half-size products (:func:`_frame_solve`)."""

    delta: np.ndarray
    t1: np.ndarray
    t0inv: np.ndarray
    c: np.ndarray
    e1: np.ndarray | None
    e0: np.ndarray | None
    m: np.ndarray | None
    kappa: float
    pq: float


def _compressions(b: BlockMatrix, x, products=None) -> tuple:
    """``(P, Q, (H0, S0), (H1, S1))`` at X, with the compressions
    ``H0 = G* B G``, ``H1 = K* B K`` and Gram matrices S0, S1 of
    :class:`_GraphFrame`, from the list of the products ``A1 X, X A0, X W1``
    of :func:`_residual` at X (formed when None), which it empties."""
    products = products or [b.A1 @ x, x @ b.A0, x @ b.W1]
    # popped off the caller's list (X W1, then A1 X, then X A0), so that
    # each is freed once used
    xh, p, q = x.conj().T, b.A1 - products.pop(), b.A0 + b.W1 @ x
    # G* B G = Q + X* (W0 + A1 X) and K* B K = P - (W0 - X A0) X*
    h0, h1 = q + xh @ (b.W0 + products.pop(0)), p - (b.W0 - products.pop()) @ xh
    return p, q, (h0, xh @ x + np.eye(b.n0)), (h1, x @ xh + np.eye(b.n1))


def _graph_frame(b: BlockMatrix, x, f, products=None) -> _GraphFrame | None:
    """The graph frame at X, with ``f = F(X)`` and the list of the products
    ``A1 X, X A0, X W1`` of :func:`_residual` at X (formed when None), which
    it empties, or None when a generalized ``eigh`` fails. At X = 0 it is
    read off ``b.eigh_A``, 5% of a ``newton`` pass (dim 400) faster than
    two generalized ``eigh`` with S = I, and forms neither e1 nor e0: they
    are the rounding of ``eigh_A``, which :func:`_frame_solve` bounds."""
    if not x.any():
        (lam0, v0), (lam1, v1) = b.eigh_A
        p, q, t1, t0inv, e1, e0, m = b.A1, b.A0, v1, v0.conj().T, None, None, None
    else:
        p, q, *pencils = _compressions(b, x, products)
        try:
            (lam0, v0), (lam1, v1) = (hermitian_eigh(*pencil) for pencil in pencils)
        except (np.linalg.LinAlgError, ValueError):
            # S not numerically positive definite, or a compression that
            # overflowed (refused as non-finite)
            return None
        del pencils
        xh = x.conj().T
        t0inv = v0.conj().T + (x @ v0).conj().T @ x
        t1 = v1 + x @ (xh @ v1)
        e1 = v1.conj().T @ p @ t1 - np.diag(lam1)
        e0 = np.diag(lam0) - t0inv @ q @ v0
        m = t0inv @ b.W1 @ t1
    c = v1.conj().T @ f @ v0
    kappa = 1.0 + np.linalg.norm(x, 1) * np.linalg.norm(x, np.inf)
    pq = frobenius_norm(p) + frobenius_norm(q)
    delta = lam1[:, None] - lam0[None, :]
    return _GraphFrame(delta, t1, t0inv, c, e1, e0, m, kappa, pq)


def _frame_solve(b, frame: _GraphFrame) -> tuple[np.ndarray | None, int]:
    """``(Z, sweeps)`` with ``Phi(Z) = 0`` in ``frame``, or ``(None, sweeps)``.

    From Z = 0 the sweeps ``Z <- Z - Phi(Z) / delta`` run Stewart's
    fixed-point iteration for the graph equation (SIAM Review 15, 1973,
    Thm 4.1), 3 half-size products each: ``Z m``, ``E1 Z`` and ``Z e0``.
    Without m Phi drops its quadratic term and Z is the Newton step at X'.
    The sweep map has the derivative ``H -> -(E1 H + H E0) / delta`` at Z,
    so near Z it contracts by at most
    ``r = (norm_F(E1) + norm_F(E0)) / min|delta|``; E is affine in Z, so r
    at both ends of a sweep bounds it along the sweep. By Bauer-Fike
    ``(1 - r) min|delta|`` bounds the separation of the spectra of P and Q
    at ``X' + t1 Z t0inv`` from below: no iterate, the last one included,
    has a singular Newton equation. E is of the size of F at X' plus that
    of Z (``B G = G Q + [0; F]``, ``K* B = P K* + [F, 0]``).

    Each sweep is gated at its Z. The solve is declined when the separation
    bound fails the test of :func:`solve_sylvester`, scaled by the upper
    bound ``pq + 2 kappa norm_F(Z) norm(V)`` on ``norm_F(P) + norm_F(Q)``;
    when ``r > GRAPH_FRAME_CONTRACTION_MAX``; or when the sweeps have not
    converged after :data:`GRAPH_FRAME_MAX_SWEEPS`. Both tests first take
    ``norm_F(e0) + norm_F(m) norm_F(Z)`` for ``norm_F(E0)``, an upper bound:
    only when that declines is ``m Z`` formed, and the exact norm decides,
    so the verdicts are those of the exact tests. The sweeps have converged
    at a change of :data:`GRAPH_FRAME_SWEEP_TOL` relative to Z, or once it
    no longer shrinks, which exact sweeps with ``r <= 1/2`` cannot do: what
    is left is rounding. Z is the last iterate whose change was formed.
    ``sweeps`` counts the changes applied to Z.

    The frame at X = 0 has no e1 and e0 (:func:`_graph_frame`): its tests
    take the rounding bound ``KERNEL_PROOF_ROUNDING dim eps pq`` of
    ``eigh_A`` for ``norm_F(e1) + norm_F(e0)``, and Z is the Newton step
    ``-c / delta`` after one sweep.
    """
    gap = float(np.min(np.abs(frame.delta)))

    def declines(perturbation, scale):
        return (
            gap - perturbation <= SYLVESTER_SEPARATION_TOL * scale
            or perturbation > GRAPH_FRAME_CONTRACTION_MAX * gap
        )

    z, e1, previous = np.zeros_like(frame.c), frame.e1, np.inf
    if e1 is None:
        perturbation = KERNEL_PROOF_ROUNDING * b.dim * np.finfo(float).eps * frame.pq
    else:
        norm_e0 = frobenius_norm(frame.e0)
        perturbation = frobenius_norm(e1) + norm_e0
        norm_m = 0.0 if frame.m is None else frobenius_norm(frame.m)
    for sweep in range(GRAPH_FRAME_MAX_SWEEPS + 1):
        scale = frame.pq
        if frame.m is not None and sweep:
            e1, norm_z = frame.e1 - z @ frame.m, frobenius_norm(z)
            scale += 2.0 * frame.kappa * norm_z * b.norm_V
            norm_e1 = frobenius_norm(e1)
            perturbation = norm_e1 + norm_e0 + norm_m * norm_z
            if declines(perturbation, scale):
                perturbation = norm_e1 + frobenius_norm(frame.e0 - frame.m @ z)
        if declines(perturbation, scale) or sweep == GRAPH_FRAME_MAX_SWEEPS:
            break
        # Phi(Z) / delta = (c + E1 Z + Z e0) / delta + Z, in place
        if sweep:
            step = e1 @ z
            step += z @ frame.e0
            step += frame.c
        else:
            step = frame.c.copy()
        step /= frame.delta
        step += z
        change = frobenius_norm(step)
        # exact sweeps at least halve the change: one that does not shrink
        # is rounding
        if change <= GRAPH_FRAME_SWEEP_TOL * frobenius_norm(z) or change >= previous:
            return z, sweep
        z -= step
        if frame.e1 is None:
            return z, 1
        previous = change
    return None, sweep


def solve_newton_X0(
    b: BlockMatrix, tol: float = 1e-12, max_iter: int = 25
) -> tuple[np.ndarray, NewtonTrace]:
    """Newton iteration on the H0 graph equation, from ``X = 0``.

    Each step solves ``(A1 - X W1) D - D (A0 + W1 X) = -F(X)`` and updates
    ``X <- X + D``. On Hermitian input (A0 and A1 bitwise Hermitian,
    ``W0 = W1*`` bitwise) a step is a graph-frame solve
    (:func:`_frame_solve`) instead: the first one, in the frame at X = 0,
    is that Newton step, and every later one, in a frame factorized at its
    X (counted in ``frames``), solves the graph equation itself and moves
    X to ``X + t1 Z t0inv``. A frame solve that declines is discarded for
    the Newton step in the same frame (the solve without m). Every other
    input, and every step whose frame declines both, takes
    :func:`solve_sylvester`, counted in ``schur_steps``; the next X is
    offered a fresh frame again. :func:`residual_X0` of each X decides
    convergence. The iteration runs on the centred blocks
    (:func:`_centred_A`), all scaled by one power of two: a common shift
    changes neither the graph equation nor a Newton equation, nor, on the
    centred blocks, their rounding, and the scaling changes no rounding
    while the entries stay normal floats, so blocks near the float range
    do not overflow.
    Non-convergence within ``max_iter`` steps is reported in the trace, not
    raised, and so is an X whose residual overflows, which ends the
    iteration; singular Newton steps propagate :class:`SylvesterSingularError`.
    """
    # scaled by the power of two that brings the largest entry into [1/2, 1);
    # the centred blocks are released once scaled
    parts = [m.view(np.float64) for m in (*_centred_A(b), b.W0, b.W1)]
    e = np.frexp(max(float(np.max(np.abs(m), initial=0.0)) for m in parts))[1]
    b, parts = BlockMatrix(*(np.ldexp(m, -e).view(np.complex128) for m in parts)), None
    hermitian = b.bitwise_hermitian_A and np.array_equal(b.W0, b.W1.conj().T)
    scale = _riccati_scale(b, b.A0, b.A1)
    x = np.zeros((b.n1, b.n0), dtype=np.complex128)
    f, value, products = b.W0, _rel_norm(b.W0, scale, x), None  # F(0) = W0
    history: list[float] = []
    schur_steps = frames = sweeps = 0
    for iteration in range(max_iter + 1):
        history.append(value)
        # an X whose residual overflowed has diverged
        if value <= tol or iteration == max_iter or not np.isfinite(value):
            break
        z, frame = None, _graph_frame(b, x, f, products) if hermitian else None
        if frame is not None:
            frames += frame.m is not None
            z, taken = _frame_solve(b, frame)
            sweeps += taken
            if z is None and frame.m is not None:
                # declined: the Newton step at X, the frame solve without m
                z, taken = _frame_solve(b, frame._replace(m=None))
                sweeps += taken
        if z is None:
            x += solve_sylvester(b.A1 - x @ b.W1, b.A0 + b.W1 @ x, -f)
            schur_steps += 1
        else:
            x += frame.t1 @ z @ frame.t0inv
        frame = z = f = products = None  # released before the next residual is formed
        f, value, products = _residual(b.A0, b.A1, b.W0, b.W1, x, scale)
    return x, NewtonTrace(
        iterates=history,
        converged=bool(history[-1] <= tol),
        iterations=iteration,
        schur_steps=schur_steps,
        frames=frames,
        sweeps=sweeps,
    )


def x0_forward_error_bound(b: BlockMatrix, x, mu: float | None = None) -> float:
    """Certified bound on ``norm_F(X - X0) / (1 + norm(X0))`` on Hermitian b.

    X0 is the spectral angular operator: graph(X0) is the invariant
    subspace of the n0 lowest eigenvalues of every Hermitian B' within
    ``slack = norm_F(B - B*) / 2`` of the Hermitian part ``H = (B + B*) / 2``
    (slack 0 and H = B on bitwise-Hermitian B). The bound is
    :func:`~blockdiag.transform.frame_angle_bound` in the frame of X itself,
    on H centred by ``c = tr(H) / dim`` and scaled by a power of two, as
    Newton centres and scales its blocks:

    - the ends are the extreme Ritz values of graph(X) and graph(-X*), the
      largest and the least generalized eigenvalue of the compressions that
      :func:`_graph_frame` factors (:func:`_compressions`), values only; the
      trial ends lie halfway between them and mu, by default their midpoint;
    - the coupling is ``norm_F(F(X))``: the frame's off-diagonal block is
      ``L1^{-1} F(X) L0^{-*}`` with ``S_i = L_i L_i*`` and ``S_i >= I``;
    - the norm, which scales only the rounding terms, is the largest Ritz
      value magnitude plus the coupling, at least ``norm(H - cI)``.

    For the certified angle theta and ``n = norm(X)`` (one half-size SVD),
    ``norm(X - X0) <= e = (1 + n^2) tan(theta) / (1 - n tan(theta))`` while
    ``n tan(theta) < 1``, so ``norm_F(X - X0) <= sqrt(min(n0, n1)) e``. That
    is divided by ``1 + n(X) - e``, which is at most ``1 + norm(X0)`` when
    it is at least 1 and only raises the bound below 1 (README "Numerics
    notes"). inf when the frame does not certify X: a converged X whose
    Ritz values interlace solves the graph equation but is not spectral. A
    given mu that is not between ordered ends raises
    :class:`HypothesisError`.
    """
    if not x.size:
        return 0.0
    full, n0, exact = b.full, b.n0, b.bitwise_hermitian
    h = full.copy() if exact else 0.5 * full + 0.5 * full.conj().T
    c = np.sum(h.diagonal().real / b.dim)
    h.flat[:: b.dim + 1] -= c
    # scaled by the power of two 2^k that brings the largest entry into
    # [1/2, 1), as Newton scales its blocks: near the float range nothing
    # overflows, and the bound does not change
    k = np.frexp(np.max(np.abs(h.view(np.float64)), initial=0.0))[1]
    h = np.ldexp(h.view(np.float64), -k).view(np.complex128)
    h = BlockMatrix(h[:n0, :n0], h[n0:, n0:], h[n0:, :n0], h[:n0, n0:])
    slack = 0.0 if exact else np.ldexp(frobenius_norm(0.5 * full - 0.5 * full.conj().T), -k)
    f, _, products = _residual(h.A0, h.A1, h.W0, h.W1, x, 1.0)
    (h0, s0), (h1, s1) = _compressions(h, x, products)[2:]
    try:
        w0 = scipy.linalg.eigh(h0, s0, eigvals_only=True)
        w1 = scipy.linalg.eigh(h1, s1, eigvals_only=True)
    except (np.linalg.LinAlgError, ValueError):
        # S not numerically positive definite, or a compression that
        # overflowed (refused as non-finite)
        return np.inf
    (r0, r1), coupling = (w0[-1], w1[0]), frobenius_norm(f)
    # the frame's diagonal blocks have the Ritz values, its off-diagonal one
    # a norm of at most the coupling: together a bound on norm(H - cI)
    norm = np.max(np.abs([w0[0], r0, r1, w1[-1]])) + coupling
    given, mu = mu, (r0 + r1) / 2.0 if mu is None else np.ldexp(mu - c, -k)
    if r0 < r1 and not r0 < mu < r1:
        ends = (np.ldexp(r, k) + c for r in (r0, r1))
        raise HypothesisError(
            "threshold {:.6g} is not between the Ritz values {:.6g} of graph(X) and "
            "{:.6g} of graph(-X*)".format(given, *ends)
        )
    n = np.linalg.norm(x, 2)
    t0, t1 = (r0 + mu) / 2.0, (r1 + mu) / 2.0
    sine = frame_angle_bound((t0 * s0 - h0, h1 - t1 * s1), n, (t0, t1), mu, coupling, norm, slack)
    cos = np.sqrt(1.0 - sine * sine)
    e = (1.0 + n * n) * sine / (cos - n * sine) if n * sine < cos else np.inf
    # at most 1 + norm(X0) when at least 1; below 1 it only raises the bound
    d = 1.0 + norm_lower_bound(x) - e
    return float(np.sqrt(min(x.shape)) * e / d) if d > 0.0 else np.inf
