"""Similarity transforms attached to an angular pair.

Given a complementary pair of graphs with combined off-diagonal operator
Y, conjugating the assembled matrix by ``I - Y`` (from the left form) or
``I + Y`` (right form) block diagonalizes it whenever the quadratic graph
equations hold; a single angular operator already yields an upper block
triangular form. This module performs those conjugations numerically,
reports off-diagonal defects and conditioning, and provides the resolvent
and spectral cross-checks.

The off-diagonal blocks of both conjugations come from those of one
product ``C = (I - Y) B (I + Y)`` and the diagonal blocks ``S0 = I - X1 X0``,
``S1 = I - X0 X1`` of ``I - Y^2 = (I - Y)(I + Y)``. Polynomials in Y
commute, so ``(I - Y)^{-1} = (I + Y)(I - Y^2)^{-1}`` and
``(I + Y)^{-1} = (I - Y^2)^{-1}(I - Y)`` for any pair, whether or not it
solves the graph equations; the left form is ``C diag(S0, S1)^{-1}`` and
the right form ``diag(S0, S1)^{-1} C``. S0 and S1 are factored once each,
on the pair (``AngularPair.factors_I_minus_Y2``): by Cholesky for a skew
pair, whose factors also make the orthonormal frame of its two graphs,
by LU otherwise. The off-diagonal blocks then fix everything else:
``(I + Y) T = B (I + Y)`` gives the diagonal blocks of the right form T
and makes both extended-identity residuals polynomials in them
(:func:`verify_extended_identity`), which solves nothing. No system
larger than n0 x n0 or n1 x n1 is solved, except for a pair, skew or not,
that is not well conditioned (:data:`BLOCK_SOLVE_CONDITION_LIMIT`), which
solves with ``I - Y`` and ``I + Y``.

For a skew pair ``X1 = -X0*`` on bitwise-Hermitian B, ``I - Y = (I + Y)*``,
so C is Hermitian and the left form is the adjoint of the right one:
``C01 = C10*``, where ``C10 = W0 + A1 X0 - X0 A0 - X0 W1 X0`` is the
uncentred graph-equation residual of X0, and the off-diagonal blocks of
both forms and both frame defects are read off C10 alone.

The resolvent check reads the one triangular form ``B = Z T Z*`` cached
on B (``BlockMatrix.schur``) on every input: the graphs go into Z
coordinates once, and each shift divides by ``T - lam`` when T is
diagonal and solves with it when triangular
(:func:`verify_resolvent_invariance`). On bitwise-Hermitian B, whose T is
diagonal, a well-conditioned skew pair ``X1 = -X0*`` has its two graphs,
orthogonal complements of each other, orthonormalized in the eigenbasis
by the Cholesky factors of S0 and S1 cached on the pair, and the spectral
identity is certified from the same ``eigh``
(:func:`verify_spectral_identity`). Every other input measures the
eigenvalues of the four diagonal blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg
from scipy.linalg import cho_solve, lu_solve

from .angular import AngularPair, GraphBase, GraphSubspace
from .core import (
    KERNEL_PROOF_ROUNDING,
    BlockMatrix,
    as_matrix,
    check_shifts,
    frobenius_norm,
    from_blocks,
    relative,
    schur_diagonal,
)
from .errors import NotComplementaryError, StructuralError
from .spectral import eigenvalues

#: Condition number of I +/- Y beyond which a transform result is flagged
#: unreliable (but still returned; near-non-complementary pairs are
#: legitimate edge cases worth inspecting).
RELIABLE_CONDITION_LIMIT = 1e12

#: Condition number of I +/- Y up to which a pair is conjugated through the
#: blocks of ``I - Y^2``, and a skew pair's graphs are orthonormalized by
#: their Cholesky factors. Their condition number can reach the square of
#: that of I +/- Y, so both can lose a further factor kappa(I +/- Y) of
#: accuracy; this limit keeps it at 2. Beyond it the conjugations solve
#: with I - Y and I + Y themselves, and the resolvent sweep with B - lam.
BLOCK_SOLVE_CONDITION_LIMIT = 2.0

_EPS = float(np.finfo(np.float64).eps)

#: ``L^{-1} m`` for a lower-triangular L; ``L^{-*} m`` with ``trans="C"``.
_lower = functools.partial(scipy.linalg.solve_triangular, lower=True)


@dataclass(frozen=True)
class DiagonalizationResult:
    """Off-diagonal defect and conditioning of one conjugation of B.

    The conjugation is ``(I - Y) B (I - Y)^{-1}`` (left form L) or
    ``(I + Y)^{-1} B (I + Y)`` (right form T); only its off-diagonal blocks
    ``offdiag_blocks``, which ``offdiag_rel_norm`` measures, are formed
    (None for a left form that is the adjoint of the right one).
    ``diag_blocks`` holds the closed-form diagonal blocks computed directly
    from the inputs (not read off the conjugation), so the off-diagonal
    defect and the block mismatch can be judged independently.
    ``offdiag_rel_norm`` is a Frobenius residual over the exact
    ``norm(B)``; ``conditioning`` is the exact 2-norm condition number of
    ``I -/+ Y``. ``frame_defects`` are the invariance defects of a skew
    pair's two graphs (see :func:`diagonalize`), None for any other pair
    and on the route that solves with ``I -/+ Y``.
    """

    offdiag_rel_norm: float
    diag_blocks: tuple[np.ndarray, np.ndarray]
    conditioning: float
    offdiag_blocks: tuple | None = field(repr=False, compare=False)
    frame_defects: tuple[float, float] | None

    @property
    def reliable(self) -> bool:
        return self.conditioning <= RELIABLE_CONDITION_LIMIT


@dataclass(frozen=True)
class TriangularizationResult:
    """Upper block-triangular conjugation by the unipotent factor of X0:
    its diagonal blocks and the relative norm of its lower left block."""

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


def _pair_condition(p: AngularPair) -> float:
    """Condition number of ``I - Y`` and of ``I + Y``, which share it."""
    s = p.singular_values_I_plus_Y
    return float("inf") if s[-1] == 0.0 else float(s[0] / s[-1])


def _offdiag_rel_norm(b: BlockMatrix, blocks: tuple) -> float:
    return relative(math.hypot(*map(frobenius_norm, blocks)), b.norm)


def _s_solve(f, m: np.ndarray, on_right: bool = False) -> np.ndarray:
    """``S^{-1} m``, or ``m S^{-1}`` ``on_right``, for one block S of ``I - Y^2``.

    ``f`` is its entry of ``AngularPair.factors_I_minus_Y2``: the Cholesky
    factor L of ``S = L L*``, or the LU pair of ``scipy.linalg.lu_factor``.
    """
    a = m.conj().T if on_right else m  # m S^{-1} = (S^{-*} m*)*
    lu = isinstance(f, tuple)
    x = lu_solve(f, a, 2 * on_right) if lu else cho_solve((f, True), a)
    return x.conj().T if on_right else x


def diagonalize(
    b: BlockMatrix, p: AngularPair
) -> tuple[DiagonalizationResult, DiagonalizationResult]:
    """Both block diagonalizations of ``b`` by the pair ``p``: ``(left, right)``.

    ``left`` is ``L = (I - Y) B (I - Y)^{-1}``, block diagonal
    ``diag(A0 - X1 W0, A1 - X0 W1)`` when the graph-equation residual
    vanishes; ``right`` is ``T = (I + Y)^{-1} B (I + Y)``, block diagonal
    ``diag(A0 + W1 X0, A1 + W0 X1)`` then. The off-diagonal blocks of both
    come from those of the one product ``C = (I - Y) B (I + Y)`` and the
    blocks S0, S1 of ``I - Y^2``, factored once on the pair: by Cholesky
    for a skew pair, by LU otherwise. Only they are formed; the diagonal
    blocks of the conjugations are not, and ``diag_blocks`` holds the
    closed forms ``(m00, m11)`` and ``(l00, l11)``, which they equal when
    the residual vanishes. On bitwise-Hermitian B with a skew pair C
    is Hermitian and ``left`` is the adjoint of ``right``: C10 alone is
    formed, and both ``offdiag_rel_norm`` are the same number.

    For a skew pair ``S0 = I + X0* X0`` and ``S1 = I + X0 X0*`` have
    eigenvalues at least 1, and with ``S_i = L_i L_i*``, ``G0 = [I; X0]`` and
    ``G1 = [-X0*; I]`` (``G0* G1 = X1 + X0* = 0``),
    ``U = [G0 L0^{-*}, G1 L1^{-*}]`` is unitary; ``I + Y = [G0, G1]``, so
    ``U* B U = L^{-1} C L^{-*}`` with ``L = diag(L0, L1)``. Its off-diagonal
    blocks ``L1^{-1} C10 L0^{-*}`` and ``L0^{-1} C01 L1^{-*}`` are
    ``U1* B U0`` and ``U0* B U1``, whose Frobenius norms are
    ``norm_F((I - P) B P)`` for P the orthogonal projector onto graph(X0)
    and onto graph(X1): both results carry them as ``frame_defects``. They
    reuse the first triangular solve of the right form's off-diagonal
    blocks; for Hermitian B the two are adjoints, and one is formed.

    A pair whose cached condition number exceeds
    :data:`BLOCK_SOLVE_CONDITION_LIMIT` solves with ``I -/+ Y`` instead
    (see the module docstring). Raises :class:`NotComplementaryError` when
    a system solved is exactly singular.
    """
    if (p.n0, p.n1) != (b.n0, b.n1):
        raise StructuralError(
            f"pair dimensions {(p.n0, p.n1)} do not match blocks {(b.n0, b.n1)}"
        )
    x0, x1, a0, w1 = p.X0, p.X1, b.A0, b.W1
    # the diagonal blocks of M = B (I + Y) are the right form's closed form
    m00 = a0 + w1 @ x0
    m10 = b.W0 + b.A1 @ x0
    m11 = b.A1 + b.W0 @ x1
    # the diagonal blocks of (I - Y) B: the left form's closed form
    l00 = a0 - x1 @ b.W0
    l11 = b.A1 - x0 @ w1
    conditioning = _pair_condition(p)
    defects = left_off = None
    try:
        if conditioning <= BLOCK_SOLVE_CONDITION_LIMIT:
            hermitian, fs = b.bitwise_hermitian and p.skew, p.factors_I_minus_Y2
            # C = (I - Y) M by blocks; C10 is the graph-equation residual of X0
            c10 = m10 - x0 @ m00
            c01 = c10.conj().T if hermitian else (w1 + a0 @ x1) - x1 @ m11
            if p.skew:
                z0, z1 = _lower(fs[0], c01), _lower(fs[1], c10)
                # (L1^{-1} C10 L0^{-*})* = L0^{-1} z1*; for Hermitian C, U0* B U1
                # is the adjoint of U1* B U0
                d0 = frobenius_norm(_lower(fs[0], z1.conj().T))
                d1 = d0 if hermitian else frobenius_norm(_lower(fs[1], z0.conj().T))
                r01, r10 = _lower(fs[0], z0, trans="C"), _lower(fs[1], z1, trans="C")
                defects = d0, d1
            else:
                r01, r10 = _s_solve(fs[0], c01), _s_solve(fs[1], c10)
            if not hermitian:  # else the left form is the adjoint of the right one
                left_off = _s_solve(fs[1], c01, True), _s_solve(fs[0], c10, True)
        else:
            n = from_blocks(l00, w1 - x1 @ b.A1, b.W0 - x0 @ a0, l11)
            eye = np.eye(b.dim, dtype=np.complex128)
            dl = np.linalg.solve((eye - p.Y).T, n.T).T
            dr = np.linalg.solve(eye + p.Y, from_blocks(m00, w1 + a0 @ x1, m10, m11))
            h0, h1 = np.s_[: b.n0], np.s_[b.n0 :]
            # copies, so that the results hold no dim x dim array
            left_off, (r01, r10) = ((np.copy(t[h0, h1]), np.copy(t[h1, h0])) for t in (dl, dr))
    except np.linalg.LinAlgError as exc:
        raise NotComplementaryError("I - Y^2 is numerically singular") from exc
    right_off = r01, r10
    right = DiagonalizationResult(
        _offdiag_rel_norm(b, right_off), (m00, m11), conditioning, right_off, defects
    )
    left = DiagonalizationResult(
        right.offdiag_rel_norm if left_off is None else _offdiag_rel_norm(b, left_off),
        (l00, l11), conditioning, left_off, defects,
    )
    return left, right


def verify_extended_identity(
    b: BlockMatrix, p: AngularPair, right: DiagonalizationResult
) -> ExtendedIdentityResiduals:
    """Compare the right conjugation with the ``(I - Y^2)``-scaled left form.

    ``right`` is the right form T of :func:`diagonalize` of the same ``b``
    and ``p``. The scaled left form
    ``(I - Y^2)^{-1} (A - Y V) (I - Y^2) = diag(S0^{-1} l00 S0, S1^{-1} l11 S1)``
    has the left form's closed-form blocks ``l_ii``; ``identity`` is its
    distance from T, and ``right_form`` its distance from the right form's
    closed-form blocks ``diag(m00, m11) = A + V Y``. Both are Frobenius
    norms relative to the exact ``norm(B)``, and both vanish in exact
    arithmetic when the graph-equation residual does.

    Every term is exact algebra in T's off-diagonal blocks
    (``right.offdiag_blocks``): T is ``(I - Y^2)^{-1} L (I - Y^2)`` for the
    left form L, so ``S0 T00 = L00 S0`` and ``S0 T01 = L01 S1``, and with
    ``L00 = l00 + L01 X0`` and ``S1 X0 = X0 S0``,
    ``T00 - S0^{-1} l00 S0 = T01 X0``; ``T00 = m00 - X1 T10`` then gives
    ``S0^{-1} l00 S0 - m00 = -(T01 X0 + X1 T10)``, mirrored for block 1. So
    ``identity`` is ``norm_F([[T01 X0, T01], [T10, T10 X1]])``, never below
    ``right.offdiag_rel_norm``, and ``right_form`` is the norm of
    ``diag(T01 X0 + X1 T10, T10 X1 + X0 T01)``: four half-size products,
    no solve, on every route.
    """
    t01, t10 = right.offdiag_blocks
    u0, u1 = t01 @ p.X0, t10 @ p.X1
    identity = math.hypot(*map(frobenius_norm, (u0, t01, t10, u1)))
    right_form = math.hypot(
        frobenius_norm(u0 + p.X1 @ t10), frobenius_norm(u1 + p.X0 @ t01)
    )
    return ExtendedIdentityResiduals(relative(identity, b.norm), relative(right_form, b.norm))


def frame_angle_bound(
    definite, norm_x: float, ends: tuple[float, float], mu: float, coupling: float,
    norm: float, slack: float,
) -> float:
    """Davis-Kahan tan 2Theta bound from the frame of a graph, as a sine.

    ``G0 = [I; X]`` and ``G1 = [-X*; I]`` span graph(X) and its orthogonal
    complement graph(-X*), n0, n1 >= 1, with ``norm(X) <= norm_x``; B is
    Hermitian with norm at most ``norm``, ``C_ii = G_i* B G_i`` are its
    compressions and ``S0 = I + X* X``, ``S1 = I + X X*`` the Gram matrices.
    ``definite`` holds ``t0 S0 - C00`` and ``C11 - t1 S1``, formed by the
    caller at the trial ``ends`` ``(t0, t1)``, and ``coupling`` bounds the
    norm of the off-diagonal block ``U1* B U0`` of the unitary frame
    ``U = [G0 L0^{-*}, G1 L1^{-*}]`` (``S_i = L_i L_i*``). Returns an upper
    bound on ``norm(P - P')``, the sine of the largest angle, between
    graph(X) and the spectral subspace below mu, and so between graph(-X*)
    and the one above, of every Hermitian B' with ``norm(B' - B) <= slack``;
    1, which bounds every such distance, when the frame does not certify it.

    ``U0* B U0`` and ``U1* B U1`` are congruent to C00 and C11, so by
    Sylvester's law of inertia ``sup spec(U0* B U0) < t0`` exactly when
    ``t0 S0 - C00`` is positive definite, and ``inf spec(U1* B U1) > t1``
    when ``C11 - t1 S1`` is: one Cholesky each decides. The sine depends
    only on the coupling and the ends; the Choleskys only pass or refuse
    it. README "Numerics notes" derives the bound and its rounding slack.
    """
    r = KERNEL_PROOF_ROUNDING * sum(map(len, definite)) * _EPS
    rho = r * (1.0 + norm_x) ** 2
    # the certified ends: each t moved out by the rounding of C_ii and t S_i,
    # and by the slack of B'
    low, high = (t + sign * (rho * (norm + abs(t)) + slack) for sign, t in zip((1, -1), ends))
    if not low < mu < high:  # written so that NaN refuses too
        return 1.0
    for m in definite:
        m = 0.5 * (m + m.conj().T)
        # Rump's shift: a Cholesky of m - shift I that runs to its end
        # (zpotrf info 0; a NaN stops it) proves m positive definite
        shift = KERNEL_PROOF_ROUNDING * (len(m) + 1) * _EPS * np.sum(np.abs(m.diagonal()))
        m.flat[:: len(m) + 1] -= shift
        if scipy.linalg.lapack.zpotrf(m, lower=True, overwrite_a=True)[1]:
            return 1.0
    return math.sin(0.5 * math.atan2(2.0 * (coupling + rho * norm + slack), high - low))


def triangularize(b: BlockMatrix, X0) -> TriangularizationResult:
    """Conjugate by the unipotent factor ``[[I, 0], [-X0, I]]``.

    The result has diagonal blocks ``(A0 + W1 X0, A1 - X0 W1)``, upper
    right block ``W1``, and lower left block
    ``W0 + A1 X0 - X0 (A0 + W1 X0)``, the graph-equation residual of
    ``X0`` as an exact algebraic identity. Only the diagonal and lower left
    blocks are formed; the relative norm of the lower left one is a
    Frobenius residual over the exact ``norm(B)``.
    """
    x = as_matrix(X0, "X0")
    if x.shape != (b.n1, b.n0):
        raise StructuralError(f"X0 must have shape {(b.n1, b.n0)}, got {x.shape}")
    top_left = b.A0 + b.W1 @ x
    bottom_right = b.A1 - x @ b.W1
    lower_left = (b.W0 + b.A1 @ x) - x @ top_left
    return TriangularizationResult(
        lower_left_rel_norm=relative(frobenius_norm(lower_left), b.norm),
        diag_blocks=(top_left, bottom_right),
    )


def verify_resolvent_invariance(
    b: BlockMatrix,
    graphs: Sequence[GraphSubspace] | AngularPair,
    lams: Sequence[complex],
) -> list[list[float]]:
    """``s norm_F((I - P_G) (B - lam)^{-1} Q_G)`` for each shift and graph G.

    One list per shift in ``lams``, one entry per graph; a pair stands for
    its two graphs, graph(X0) over H0 and graph(X1) over H1. Each entry is
    zero exactly when the graph is invariant under the resolvent at that
    shift. It is scaled by ``s = dist(lam, spec B)``, so it is the same
    for B and 2^k B at ``2^k lam``; ``s >= sigma_min(B - lam) = 1 /
    norm((B - lam)^{-1})``, with equality for normal B, so the entry is
    never below the defect relative to the resolvent's norm. Every shift
    must be finite (else :class:`StructuralError`) and keep a relative
    distance of more than 1e-8 from the spectrum of the assembled matrix
    (else :class:`ResolventError`).

    The sweep reads the triangular form ``B = Z T Z*`` cached on b
    (``BlockMatrix.schur``). The orthonormal bases ``Q_G`` cached on the
    graphs go into Z coordinates, ``W_G = Z* Q_G``, by one product with
    ``Z*`` per sweep; each shift then forms ``R_G = s (T - lam)^{-1} W_G``,
    by a division when T is diagonal and a triangular solve otherwise, and
    the entry is ``norm_F((I - W_G W_G*) R_G)``. A skew pair within
    :data:`BLOCK_SOLVE_CONDITION_LIMIT` on bitwise-Hermitian B has the
    bases in closed form: ``G0 = [I; X0]`` and ``G1 = [X1; I]`` have
    ``G0* G1 = X1 + X0* = 0``, so ``W_i = Z* G_i L_i^{-*}``, with
    ``S_i = L_i L_i*`` the blocks of ``I - Y^2`` factored on the pair, are
    orthonormal and ``I - W0 W0* = W1 W1*``: the entries are
    ``norm_F(W1* R_0)`` and ``norm_F(W0* R_1)``.
    """
    lams = [complex(lam) for lam in lams]
    t, z = b.schur
    spec = schur_diagonal(t)
    check_shifts(lams, spec, b.norm, 1e-8, "the spectrum")
    p = graphs if isinstance(graphs, AngularPair) else None
    if p and b.bitwise_hermitian and p.skew and _pair_condition(p) <= BLOCK_SOLVE_CONDITION_LIMIT:
        n0, zh = b.n0, z.conj().T
        # the rows of W_i* = L_i^{-1} G_i* Z, from two half-size products; they
        # are also the rows K* of the complements, I - W0 W0* = W1 W1*
        heads = (zh[:, :n0] + zh[:, n0:] @ p.X0, zh[:, :n0] @ p.X1 + zh[:, n0:])
        complements = [_lower(f, u.conj().T) for f, u in zip(p.factors_I_minus_Y2, heads)]
        del heads, zh  # dim x dim each: not held through the shifts
        bases = [r.conj().T for r in complements]
        complements.reverse()
    else:
        if p:
            graphs = (GraphSubspace(GraphBase.H0, p.X0), GraphSubspace(GraphBase.H1, p.X1))
        qs = [g.subspace.basis for g in graphs]
        ends = np.cumsum([q.shape[1] for q in qs])[:-1]
        bases = np.split(z.conj().T @ np.hstack(qs), ends, axis=1)
        complements = [None] * len(bases)
    out = []
    for lam in lams:
        # spec - lam past the float range makes its entry of 1 / (T - lam) 0,
        # which it nearly is
        with np.errstate(over="ignore"):
            g = spec - lam
            s = np.min(np.abs(g))
            # one graph at a time, so that one R_G is held at once
            parts = zip(bases, complements)
            out.append([_outside_part(w, _resolvent(t, g, s, w), k) for w, k in parts])
    return out


def _resolvent(t: np.ndarray, g: np.ndarray, s, w: np.ndarray) -> np.ndarray:
    """``s (T - lam)^{-1} w`` for a triangular form's T, given ``g = diag(T) - lam``:
    a division when T is diagonal (given as its diagonal), else a triangular solve."""
    if t.ndim == 1:
        r = w / g[:, None]
    else:
        shifted = t.copy()
        np.fill_diagonal(shifted, g)
        # a graph past the float range gives a NaN defect, not an error
        r = scipy.linalg.solve_triangular(shifted, w, check_finite=False)
    r *= s
    return r


def _outside_part(w: np.ndarray, r: np.ndarray, complement) -> float:
    """``norm_F((I - W W*) r)`` for orthonormal columns W, or ``norm_F(K* r)``
    for the rows ``complement = K*`` of ``I - W W* = K K*``."""
    if complement is not None:
        return frobenius_norm(complement @ r)
    return frobenius_norm(r - w @ (w.conj().T @ r))


@dataclass(frozen=True)
class SpectralIdentityReport:
    """Multiset match of spec(B) against both block-diagonal spectra.

    ``left_distance`` compares against ``diag(A0 - X1 W0, A1 - X0 W1)``,
    ``right_distance`` against ``diag(A0 + W1 X0, A1 + W0 X1)``: bottleneck
    matching distances (:func:`match_spectra`) of the computed spectra, or
    on the certified route a certified upper bound on that of the exact
    ones. ``left_spectrum`` is the left block spectrum compared, block 0
    first, for callers that report it.
    """

    ok: bool
    left_distance: float
    right_distance: float
    left_spectrum: np.ndarray = field(repr=False, compare=False)


def match_spectra(a, b) -> float:
    """Bottleneck matching distance of two eigenvalue multisets.

    The least, over bijections, of the largest distance between matched
    eigenvalues. Sorting is optimal for real multisets; complex ones take
    a threshold search over the pairwise distances, each threshold decided
    by a maximum bipartite matching. Only the distances in ``[lo, hi]`` are
    searched: no bijection beats ``lo``, the largest distance of a point to
    its nearest partner on the other side, and the bijection sorted by
    (Re, Im) reaches ``hi``.
    """
    a, b = (np.asarray(v, dtype=np.complex128).ravel() for v in (a, b))
    if a.size != b.size:
        raise StructuralError(f"eigenvalue multisets differ in size: {a.size} vs {b.size}")
    if a.size == 0:
        return 0.0
    if not (np.any(a.imag) or np.any(b.imag)):
        return float(np.max(np.abs(np.sort(a.real) - np.sort(b.real))))
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    dist = np.abs(a[:, None] - b[None, :])
    lo = max(np.max(np.min(dist, axis=0)), np.max(np.min(dist, axis=1)))
    a, b = (v[np.lexsort((v.imag, v.real))] for v in (a, b))
    hi = np.max(np.abs(a - b))
    candidates = np.unique(dist[(dist >= lo) & (dist <= hi)])
    lo, hi = 0, candidates.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        match = maximum_bipartite_matching(csr_matrix(dist <= candidates[mid]), perm_type="column")
        lo, hi = (lo, mid) if np.all(match >= 0) else (mid + 1, hi)
    return float(candidates[lo])


def _spectral_identity_bound(b: BlockMatrix, p: AngularPair) -> float:
    """Certified bound on the distance of spec(B) from the right block spectra.

    For bitwise-Hermitian B and a skew pair, from the cached ``eigh``
    ``B = V diag(w) V*``; inf when the eigenvector blocks do not certify it.
    README "Numerics notes" derives it.
    """
    w, v = b.eigh
    n0 = b.n0
    r = KERNEL_PROOF_ROUNDING * b.dim * _EPS
    s = p.norm_Y * (1.0 + r)
    k = 2.0 * math.hypot(1.0, s)
    bounds = []
    for a, coupling, x, own, other in (
        (b.A0, b.W1, p.X0, np.s_[:n0], np.s_[n0:]),
        (b.A1, b.W0, p.X1, np.s_[n0:], np.s_[:n0]),
    ):
        basis = v[own, own]
        t = x @ basis
        # distance of [I; X0] V_0 (or [X1; I] V_1) from its eigenvectors
        rho = frobenius_norm(t - v[other, own]) + 2.0 * r * (1.0 + s)
        if not rho + r <= 0.5:
            return math.inf
        # Z V - V diag(w) for Z = A0 + W1 X0 (A1 + W0 X1), Z V = A V + W (X V)
        e = a @ basis + coupling @ t - basis * w[own]
        f = frobenius_norm(np.linalg.solve(basis, e))
        bounds.append((1.0 + 3.0 * k * r) * f + 3.0 * k * r * b.norm * (1.0 + s))
    # np.max keeps a NaN, which the builtin max drops for the other block's bound
    return 2.0 * float(np.max(bounds))


def verify_spectral_identity(
    b: BlockMatrix, p: AngularPair, tol: float
) -> SpectralIdentityReport:
    """Check spec(B) against the unions of both block-diagonal spectra.

    Both distances are gated at ``tol`` times ``norm(B)``. On
    bitwise-Hermitian B with a skew pair (X0 nonzero) the check
    first tries the certificate of :func:`_spectral_identity_bound`: when
    it is within the threshold, both distances are that bound and the
    left block spectrum is read off the cached eigenvalues. Otherwise all
    four diagonal blocks take ``eigvals``, and both distances are NaN when
    one of them has a non-finite entry.
    """
    spec_b = b.eigvals
    threshold = tol * b.norm
    # X0 = 0 leaves the blocks A0 and A1, whose spectra a decoupled B
    # matches exactly; measuring keeps that zero, which the slack would not
    if b.bitwise_hermitian and p.skew and p.X0.any():
        bound = _spectral_identity_bound(b, p)
        if bound <= threshold:
            return SpectralIdentityReport(
                ok=True,
                left_distance=bound,
                right_distance=bound,
                left_spectrum=spec_b,
            )
    blocks = (b.A0 - p.X1 @ b.W0, b.A1 - p.X0 @ b.W1, b.A0 + b.W1 @ p.X0, b.A1 + b.W0 @ p.X1)
    if all(np.isfinite(m).all() for m in blocks):
        left, right = (np.concatenate([eigenvalues(m) for m in blocks[i : i + 2]]) for i in (0, 2))
        left_distance, right_distance = match_spectra(spec_b, left), match_spectra(spec_b, right)
    else:  # a block past the float range has no spectrum to match
        left, left_distance = np.full(b.dim, complex(math.nan, math.nan)), math.nan
        right_distance = math.nan
    return SpectralIdentityReport(
        ok=left_distance <= threshold and right_distance <= threshold,
        left_distance=left_distance,
        right_distance=right_distance,
        left_spectrum=left,
    )
