"""Similarity transforms attached to an angular pair.

Given a complementary pair of graphs with combined off-diagonal operator
Y, conjugating the assembled matrix by ``I - Y`` (from the left form) or
``I + Y`` (right form) block diagonalizes it whenever the quadratic graph
equations hold; a single angular operator already yields an upper block
triangular form. This module performs those conjugations numerically,
reports off-diagonal defects and conditioning, and provides the resolvent
and spectral cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .angular import AngularPair, GraphSubspace
from .core import BlockMatrix, as_matrix, frobenius_norm, split
from .errors import (
    NotComplementaryError,
    ResolventError,
    StructuralError,
)
from .spectral import eigenvalues

#: Condition number of I +/- Y beyond which a transform result is flagged
#: unreliable (but still returned; near-non-complementary pairs are
#: legitimate edge cases worth inspecting).
RELIABLE_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class DiagonalizationResult:
    """Conjugated matrix with off-diagonal defect and conditioning data.

    ``diag_blocks`` holds the closed-form diagonal blocks computed directly
    from the inputs (not read off the conjugation), so the off-diagonal
    defect and the block mismatch can be judged independently.
    ``offdiag_rel_norm`` is a Frobenius residual over the exact ``norm(B)``;
    ``conditioning`` is the exact 2-norm condition number of ``I -/+ Y``.
    """

    transformed: np.ndarray
    offdiag_rel_norm: float
    diag_blocks: tuple[np.ndarray, np.ndarray]
    conditioning: float

    @property
    def reliable(self) -> bool:
        return self.conditioning <= RELIABLE_CONDITION_LIMIT


@dataclass(frozen=True)
class TriangularizationResult:
    """Upper block-triangular conjugation by the unipotent factor of X0."""

    transformed: np.ndarray
    lower_left_rel_norm: float
    diag_blocks: tuple[np.ndarray, np.ndarray]


class ExtendedIdentityResiduals(NamedTuple):
    """Relative defects of the extended diagonalization identity.

    ``identity``: distance between the right conjugation and the
    ``(I - Y^2)``-conjugated left form. ``right_form``: distance of the
    latter from the direct right-form block diagonal.
    """

    identity: float
    right_form: float


def _solve_right(t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Solve ``z t = m`` for z (i.e. ``m @ inv(t)``)."""
    return np.linalg.solve(t.T, m.T).T


def _pair_condition(p: AngularPair) -> float:
    """Condition number of ``I - Y`` and of ``I + Y``, which share it.

    For a skew pair ``X1 = -X0*`` the operator Y is skew-Hermitian, so
    ``I -/+ Y`` is normal with singular values ``sqrt(1 + s^2)`` over the
    singular values s of X0, plus 1 for each of the ``|n0 - n1|`` null
    directions of Y. Any other pair reads the cached singular values of
    ``I + Y`` (those of ``I - Y = J (I + Y) J`` too).
    """
    if not np.array_equal(p.X1, -p.X0.conj().T):
        s = p.singular_values_I_plus_Y
        return float("inf") if s[-1] == 0.0 else float(s[0] / s[-1])
    s = p.singular_values_X0
    if s.size == 0:
        return 1.0
    s_min = s[-1] if p.n0 == p.n1 else 0.0
    return float(np.sqrt((1.0 + s[0] ** 2) / (1.0 + s_min**2)))


def diagonalize_left(b: BlockMatrix, p: AngularPair) -> DiagonalizationResult:
    """Conjugate by ``I - Y`` from the left: ``(I - Y) B (I - Y)^{-1}``.

    With a vanishing graph-equation residual the result is the block
    diagonal ``diag(A0 - X1 W0, A1 - X0 W1)``.
    """
    blocks = (b.A0 - p.X1 @ b.W0, b.A1 - p.X0 @ b.W1)
    return _diagonalize(b, p, left=True, blocks=blocks)


def diagonalize_right(b: BlockMatrix, p: AngularPair) -> DiagonalizationResult:
    """Conjugate by ``I + Y`` from the right: ``(I + Y)^{-1} B (I + Y)``.

    With a vanishing graph-equation residual the result is the block
    diagonal ``diag(A0 + W1 X0, A1 + W0 X1)``.
    """
    blocks = (b.A0 + b.W1 @ p.X0, b.A1 + b.W0 @ p.X1)
    return _diagonalize(b, p, left=False, blocks=blocks)


def _diagonalize(b, p, left: bool, blocks) -> DiagonalizationResult:
    if (p.n0, p.n1) != (b.n0, b.n1):
        raise StructuralError(
            f"pair dimensions {(p.n0, p.n1)} do not match blocks {(b.n0, b.n1)}"
        )
    full = b.full
    eye = np.eye(full.shape[0], dtype=np.complex128)
    t = eye - p.Y if left else eye + p.Y
    try:
        if left:
            transformed = _solve_right(t, t @ full)
        else:
            transformed = np.linalg.solve(t, full @ t)
    except np.linalg.LinAlgError as exc:
        sign = "-" if left else "+"
        raise NotComplementaryError(f"I {sign} Y is numerically singular") from exc
    parts = split(transformed, b.n0)
    off = np.hypot(frobenius_norm(parts.W0), frobenius_norm(parts.W1))
    scale = b.norm
    rel = off / scale if scale > 0.0 else off
    return DiagonalizationResult(
        transformed=transformed,
        offdiag_rel_norm=rel,
        diag_blocks=tuple(np.asarray(x) for x in blocks),
        conditioning=_pair_condition(p),
    )


def verify_extended_identity(
    b: BlockMatrix, p: AngularPair, right: DiagonalizationResult
) -> ExtendedIdentityResiduals:
    """Compare the right conjugation with the ``(I - Y^2)``-scaled left form.

    ``right`` is :func:`diagonalize_right` of the same ``b`` and ``p``; its
    ``transformed`` is the right conjugation. Both residuals are Frobenius
    norms relative to the exact ``norm(B)``; in exact arithmetic with a
    vanishing graph-equation residual both are zero, and the second one
    certifies that the scaled left form reproduces ``A + V Y``.
    """
    y = p.Y
    a = b.diagonal_part()
    v = b.offdiagonal_part()
    m = np.eye(b.dim, dtype=np.complex128) - y @ y
    try:
        rhs = np.linalg.solve(m, (a - y @ v) @ m)
    except np.linalg.LinAlgError as exc:
        raise NotComplementaryError("I - Y^2 is numerically singular") from exc
    scale = max(b.norm, 1e-300)
    identity = frobenius_norm(right.transformed - rhs) / scale
    right_form = frobenius_norm(rhs - (a + v @ y)) / scale
    return ExtendedIdentityResiduals(identity=identity, right_form=right_form)


def triangularize(b: BlockMatrix, X0) -> TriangularizationResult:
    """Conjugate by the unipotent factor ``[[I, 0], [-X0, I]]``.

    The result has diagonal blocks ``(A0 + W1 X0, A1 - X0 W1)``, upper
    right block ``W1``, and lower left block equal to the graph-equation
    residual of ``X0`` as an exact algebraic identity. Its relative norm is
    a Frobenius residual over the exact ``norm(B)``.
    """
    x = as_matrix(X0, "X0")
    if x.shape != (b.n1, b.n0):
        raise StructuralError(f"X0 must have shape {(b.n1, b.n0)}, got {x.shape}")
    full = b.full
    n = b.n0 + b.n1
    lower = np.eye(n, dtype=np.complex128)
    lower[b.n0:, : b.n0] = -x
    inverse = np.eye(n, dtype=np.complex128)
    inverse[b.n0:, : b.n0] = x
    transformed = lower @ full @ inverse
    scale = b.norm
    lower_left = frobenius_norm(transformed[b.n0:, : b.n0])
    rel = lower_left / scale if scale > 0.0 else lower_left
    return TriangularizationResult(
        transformed=transformed,
        lower_left_rel_norm=rel,
        diag_blocks=(b.A0 + b.W1 @ x, b.A1 - x @ b.W1),
    )


def verify_resolvent_invariance(b: BlockMatrix, g: GraphSubspace, lam: complex) -> float:
    """``norm_F((I - P_G) (B - lam)^{-1} Q_G)`` for the graph subspace.

    Zero exactly when the graph is invariant under the resolvent at
    ``lam``. The shift must keep a relative distance of 1e-8 from the
    spectrum of the assembled matrix. ``Q_G`` is the basis cached on
    ``g``, so a sweep over shifts orthonormalizes each graph once.
    """
    full = b.full
    lam = complex(lam)
    spec = b.eigvals
    scale = b.norm
    dist = float(np.min(np.abs(spec - lam))) if spec.size else float("inf")
    if dist < 1e-8 * max(scale, 1.0):
        raise ResolventError(
            f"shift {lam} is within {dist:.3e} of the spectrum (norm {scale:.3e})"
        )
    q = g.subspace.basis
    shifted = full - lam * np.eye(full.shape[0], dtype=np.complex128)
    resolvent_q = np.linalg.solve(shifted, q)
    return frobenius_norm(resolvent_q - q @ (q.conj().T @ resolvent_q))


@dataclass(frozen=True)
class SpectralIdentityReport:
    """Multiset match of spec(B) against both block-diagonal spectra.

    ``left_distance`` compares against ``diag(A0 - X1 W0, A1 - X0 W1)``,
    ``right_distance`` against ``diag(A0 + W1 X0, A1 + W0 X1)``; both are
    greedy matching distances after lexicographic (Re, Im) sort, adequate
    for well-separated spectra (documented limitation for clusters).
    ``left_spectrum`` and ``right_spectrum`` are the block spectra compared,
    block 0 first, for callers that report them.
    """

    ok: bool
    left_distance: float
    right_distance: float
    tolerance: float
    left_spectrum: np.ndarray = field(repr=False, compare=False)
    right_spectrum: np.ndarray = field(repr=False, compare=False)


def match_spectra(a, b) -> float:
    """Greedy minimal matching distance of two eigenvalue multisets."""
    a = np.asarray(a, dtype=np.complex128).ravel()
    b = np.asarray(b, dtype=np.complex128).ravel()
    if a.size != b.size:
        raise StructuralError(
            f"eigenvalue multisets differ in size: {a.size} vs {b.size}"
        )
    if a.size == 0:
        return 0.0
    a = a[np.lexsort((a.imag, a.real))]
    b = b[np.lexsort((b.imag, b.real))]
    return float(np.max(np.abs(a - b)))


def verify_spectral_identity(
    b: BlockMatrix, p: AngularPair, tol: float
) -> SpectralIdentityReport:
    """Check spec(B) against the unions of both block-diagonal spectra."""
    spec_b = b.eigvals
    scale = b.norm
    left = np.concatenate(
        [eigenvalues(b.A0 - p.X1 @ b.W0), eigenvalues(b.A1 - p.X0 @ b.W1)]
    )
    right = np.concatenate(
        [eigenvalues(b.A0 + b.W1 @ p.X0), eigenvalues(b.A1 + b.W0 @ p.X1)]
    )
    left_distance = match_spectra(spec_b, left)
    right_distance = match_spectra(spec_b, right)
    threshold = tol * max(scale, 1.0 if scale == 0.0 else scale)
    ok = left_distance <= threshold and right_distance <= threshold
    return SpectralIdentityReport(
        ok=ok,
        left_distance=left_distance,
        right_distance=right_distance,
        tolerance=threshold,
        left_spectrum=left,
        right_spectrum=right,
    )
