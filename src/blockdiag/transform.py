"""Similarity transforms attached to an angular pair.

Given a complementary pair of graphs with combined off-diagonal operator
Y, conjugating the assembled matrix by ``I - Y`` (from the left form) or
``I + Y`` (right form) block diagonalizes it whenever the quadratic graph
equations hold; a single angular operator already yields an upper block
triangular form. This module performs those conjugations numerically,
reports off-diagonal defects and conditioning, and provides the resolvent
and spectral cross-checks.

Both conjugations come from one blockwise product ``C = (I - Y) B (I + Y)``
and the diagonal blocks ``S0 = I - X1 X0``, ``S1 = I - X0 X1`` of
``I - Y^2 = (I - Y)(I + Y)``. Polynomials in Y commute, so
``(I - Y)^{-1} = (I + Y)(I - Y^2)^{-1}`` and
``(I + Y)^{-1} = (I - Y^2)^{-1}(I - Y)`` for any pair, whether or not it
solves the graph equations; the left form is ``C diag(S0, S1)^{-1}`` and
the right form ``diag(S0, S1)^{-1} C``. No system larger than n0 x n0 or
n1 x n1 is solved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .angular import AngularPair, GraphSubspace
from .core import BlockMatrix, as_matrix, frobenius_norm, from_blocks
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

    ``transformed`` is the literal conjugation ``(I - Y) B (I - Y)^{-1}``
    (left form) or ``(I + Y)^{-1} B (I + Y)`` (right form), formed as
    ``C diag(S0, S1)^{-1}`` or ``diag(S0, S1)^{-1} C`` from the shared
    product ``C = (I - Y) B (I + Y)``; it is not read off the graph-equation
    residual. ``diag_blocks`` holds the closed-form diagonal blocks computed
    directly from the inputs (not read off the conjugation), so the
    off-diagonal defect and the block mismatch can be judged independently.
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


def _offdiag_rel_norm(b: BlockMatrix, transformed: np.ndarray) -> float:
    n0 = b.n0
    off = np.hypot(
        frobenius_norm(transformed[:n0, n0:]), frobenius_norm(transformed[n0:, :n0])
    )
    scale = b.norm
    return off / scale if scale > 0.0 else off


def diagonalize(
    b: BlockMatrix, p: AngularPair
) -> tuple[DiagonalizationResult, DiagonalizationResult]:
    """Both block diagonalizations of ``b`` by the pair ``p``: ``(left, right)``.

    ``left`` is ``(I - Y) B (I - Y)^{-1}``, block diagonal
    ``diag(A0 - X1 W0, A1 - X0 W1)`` when the graph-equation residual
    vanishes; ``right`` is ``(I + Y)^{-1} B (I + Y)``, block diagonal
    ``diag(A0 + W1 X0, A1 + W0 X1)`` then. Both come from the one product
    ``C = (I - Y) B (I + Y)``, formed block by block, and the blocks S0, S1
    of ``I - Y^2`` (see the module docstring). Raises
    :class:`NotComplementaryError` when S0 or S1 is exactly singular.
    """
    if (p.n0, p.n1) != (b.n0, b.n1):
        raise StructuralError(
            f"pair dimensions {(p.n0, p.n1)} do not match blocks {(b.n0, b.n1)}"
        )
    x0, x1 = p.X0, p.X1
    # M = B (I + Y); its diagonal blocks are the right form's closed form
    m00 = b.A0 + b.W1 @ x0
    m01 = b.W1 + b.A0 @ x1
    m10 = b.W0 + b.A1 @ x0
    m11 = b.A1 + b.W0 @ x1
    c = from_blocks(m00 - x1 @ m10, m01 - x1 @ m11, m10 - x0 @ m00, m11 - x0 @ m01)
    s0, s1 = p.blocks_I_minus_Y2
    n0 = b.n0
    try:
        left = np.hstack([_solve_right(s0, c[:, :n0]), _solve_right(s1, c[:, n0:])])
        right = np.vstack([np.linalg.solve(s0, c[:n0]), np.linalg.solve(s1, c[n0:])])
    except np.linalg.LinAlgError as exc:
        raise NotComplementaryError("I - Y^2 is numerically singular") from exc
    conditioning = _pair_condition(p)
    return (
        DiagonalizationResult(
            transformed=left,
            offdiag_rel_norm=_offdiag_rel_norm(b, left),
            diag_blocks=(b.A0 - x1 @ b.W0, b.A1 - x0 @ b.W1),
            conditioning=conditioning,
        ),
        DiagonalizationResult(
            transformed=right,
            offdiag_rel_norm=_offdiag_rel_norm(b, right),
            diag_blocks=(m00, m11),
            conditioning=conditioning,
        ),
    )


def verify_extended_identity(
    b: BlockMatrix,
    p: AngularPair,
    left: DiagonalizationResult,
    right: DiagonalizationResult,
) -> ExtendedIdentityResiduals:
    """Compare the right conjugation with the ``(I - Y^2)``-scaled left form.

    ``left`` and ``right`` are :func:`diagonalize` of the same ``b`` and
    ``p``. The scaled left form ``(I - Y^2)^{-1} (A - Y V) (I - Y^2)`` is
    block diagonal, ``diag(S0^{-1} (A0 - X1 W0) S0, S1^{-1} (A1 - X0 W1) S1)``,
    since ``A - Y V`` is ``left.diag_blocks`` and ``A + V Y`` is
    ``right.diag_blocks``. Both residuals are Frobenius norms relative to
    the exact ``norm(B)``; in exact arithmetic with a vanishing
    graph-equation residual both are zero, and the second one certifies
    that the scaled left form reproduces ``A + V Y``.
    """
    try:
        r0, r1 = (
            np.linalg.solve(s, d @ s)
            for s, d in zip(p.blocks_I_minus_Y2, left.diag_blocks)
        )
    except np.linalg.LinAlgError as exc:
        raise NotComplementaryError("I - Y^2 is numerically singular") from exc
    rhs = from_blocks(r0, None, None, r1)
    a_plus_vy = from_blocks(right.diag_blocks[0], None, None, right.diag_blocks[1])
    scale = max(b.norm, 1e-300)
    identity = frobenius_norm(right.transformed - rhs) / scale
    right_form = frobenius_norm(rhs - a_plus_vy) / scale
    return ExtendedIdentityResiduals(identity=identity, right_form=right_form)


def triangularize(b: BlockMatrix, X0) -> TriangularizationResult:
    """Conjugate by the unipotent factor ``[[I, 0], [-X0, I]]``.

    The result has diagonal blocks ``(A0 + W1 X0, A1 - X0 W1)``, upper
    right block ``W1``, and lower left block
    ``W0 + A1 X0 - X0 (A0 + W1 X0)``, the graph-equation residual of
    ``X0`` as an exact algebraic identity. The blocks are formed directly.
    Its relative norm is a Frobenius residual over the exact ``norm(B)``.
    """
    x = as_matrix(X0, "X0")
    if x.shape != (b.n1, b.n0):
        raise StructuralError(f"X0 must have shape {(b.n1, b.n0)}, got {x.shape}")
    top_left = b.A0 + b.W1 @ x
    bottom_right = b.A1 - x @ b.W1
    lower_left = (b.W0 + b.A1 @ x) - x @ top_left
    transformed = from_blocks(top_left, b.W1, lower_left, bottom_right)
    scale = b.norm
    off = frobenius_norm(lower_left)
    rel = off / scale if scale > 0.0 else off
    return TriangularizationResult(
        transformed=transformed,
        lower_left_rel_norm=rel,
        diag_blocks=(top_left, bottom_right),
    )


def verify_resolvent_invariance(
    b: BlockMatrix, graphs: Sequence[GraphSubspace], lam: complex
) -> list[float]:
    """``norm_F((I - P_G) (B - lam)^{-1} Q_G)`` for each graph subspace G.

    Zero exactly when the graph is invariant under the resolvent at
    ``lam``. The shift must keep a relative distance of 1e-8 from the
    spectrum of the assembled matrix. ``Q_G`` is the basis cached on
    each graph, so a sweep over shifts orthonormalizes each graph once, and
    one solve with the stacked bases ``[Q_G1 | Q_G2 | ...]`` serves every
    graph at this shift.
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
    bases = [g.subspace.basis for g in graphs]
    shifted = full - lam * np.eye(full.shape[0], dtype=np.complex128)
    resolvent_q = np.linalg.solve(shifted, np.hstack(bases))
    ends = np.cumsum([q.shape[1] for q in bases])[:-1]
    return [
        frobenius_norm(r - q @ (q.conj().T @ r))
        for q, r in zip(bases, np.split(resolvent_q, ends, axis=1))
    ]


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
