"""Decomposition pipeline for Hermitian blocks with subordinated spectra.

When the diagonal blocks satisfy ``sup spec(A0) <= mu <= inf spec(A1)``
and the coupling is symmetric (``W0 = W1*``), the subspace spanned by
eigenvectors strictly below ``mu`` together with the part of the kernel of
``B - mu`` living inside H0 reduces the assembled matrix, is the graph of
a contraction ``X`` over H0, and its orthogonal complement is the graph of
``-X*`` over H1. The resulting skew pair block diagonalizes B both ways,
with the two diagonal forms mutually adjoint.

Under the same hypotheses the kernel of ``B - mu`` splits along H0 and H1:
a kernel vector ``x0 + x1`` has ``<(A0 - mu) x0, x0> = -<(A1 - mu) x1, x1>``,
one side at most 0 and the other at least 0, so both vanish. The pipeline
measures that split on the one kernel basis it builds the subspace from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angular import GraphBase, graph_pair, to_graph
from .core import (
    DEFAULT_TOL,
    KERNEL_PROOF_ROUNDING,
    BlockMatrix,
    _extreme_magnitude,
    frobenius_norm,
    relative,
)
from .errors import HypothesisError, NotAGraphError, TheoremViolationError
from .spectral import REGION_GAP_TOL, Subspace
from .transform import DiagonalizationResult, diagonalize

#: Relative half-width of the band in which an eigenvalue counts as equal
#: to the threshold mu and is routed through the kernel logic.
MU_BAND_TOL = 1e-9

#: Allowed overshoot of the contraction bound norm(X) <= 1.
CONTRACTION_SLACK = 1e-9

#: Bound on the kernel-split residual for the split to hold.
KERNEL_SPLIT_TOL = 1e-8

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class SubordinationCheck:
    """Extreme eigenvalues of the diagonal blocks against a threshold."""

    mu: float
    sup_spec_A0: float
    inf_spec_A1: float
    subordinated: bool
    gap: float


@dataclass(frozen=True)
class TheoremResult:
    """Everything produced by the subordinated decomposition pipeline.

    ``check`` is the subordination check the pipeline ran at ``mu``. ``L``
    is the eigenvector basis of the reducing subspace; its complement is
    graph(-X*) over H1, which ``X`` fixes. ``invariance_residuals`` bound
    the invariance defects of L and of graph(-X*) (README "Numerics
    notes"); ``graph_distance`` is ``norm_F(Q1 - X Q0)`` of
    ``L = [Q0; Q1]``, the distance of span L from graph(X), which the first
    of them includes. ``kernel_split_residual`` is the distance of the
    rotated kernel basis from H0 and H1 (:func:`_reducing_subspace`).
    """

    L: Subspace
    X: np.ndarray
    norm_X: float
    kernel_split_residual: float
    adjointness_residual: float
    diag_results: tuple[DiagonalizationResult, DiagonalizationResult]
    mu: float
    invariance_residuals: tuple[float, float]
    check: SubordinationCheck
    graph_distance: float

    @property
    def kernel_split_ok(self) -> bool:
        """Whether the kernel at mu splits, to :data:`KERNEL_SPLIT_TOL`."""
        return self.kernel_split_residual <= KERNEL_SPLIT_TOL

    @property
    def reduces_ok(self) -> bool:
        """Whether both invariance residuals are within the bound
        :data:`~blockdiag.spectral.REGION_GAP_TOL` guaranteed of returned
        invariant subspaces."""
        return max(self.invariance_residuals) <= REGION_GAP_TOL


def check_subordination(b: BlockMatrix, mu: float) -> SubordinationCheck:
    """Evaluate ``sup spec(A0) <= mu <= inf spec(A1)`` with a tolerance band.

    Over the extreme eigenvalues e of the (Hermitian) blocks, which ``b``
    caches, the band is ``max(DEFAULT_TOL * min(max|e - mu|, max|e|), r)``
    with the rounding floor ``r = KERNEL_PROOF_ROUNDING * dim * eps * max|e|``
    of the computed eigenvalues, as in :func:`_eigh_classified`. A diagonal
    shift of the blocks and mu together leaves ``max|e - mu|`` as it is, so
    it widens the band only by the rounding it adds. The minimum keeps the
    band no wider than ``DEFAULT_TOL * max|e|`` while r is below that, for
    ``dim <= DEFAULT_TOL / (16 eps)``, about 2.8e4.
    """
    if not b.hermitian_A:
        raise HypothesisError("diagonal blocks must be Hermitian")
    w0, w1 = b.eigvalsh_A
    sup0 = float(w0[-1])
    inf1 = float(w1[0])
    extremes = np.array([w0[0], sup0, inf1, w1[-1]])
    size = float(np.max(np.abs(extremes)))
    band = max(
        DEFAULT_TOL * min(float(np.max(np.abs(extremes - mu))), size),
        KERNEL_PROOF_ROUNDING * b.dim * _EPS * size,
    )
    subordinated = (sup0 <= mu + band) and (mu <= inf1 + band)
    return SubordinationCheck(
        mu=float(mu),
        sup_spec_A0=sup0,
        inf_spec_A1=inf1,
        subordinated=subordinated,
        gap=inf1 - sup0,
    )


def choose_mu(b: BlockMatrix) -> float:
    """Midpoint of the gap between the diagonal spectra (or the touch point)."""
    if not b.hermitian_A:
        raise HypothesisError("diagonal blocks must be Hermitian")
    w0, w1 = b.eigvalsh_A
    sup0 = float(w0[-1])
    inf1 = float(w1[0])
    if inf1 > sup0:
        return 0.5 * (sup0 + inf1)
    return sup0


def _require_hypotheses(b: BlockMatrix, check: SubordinationCheck) -> None:
    """Refuse b, with ``check`` as the error's report, unless its spectra
    are subordinated and B is Hermitian: with the Hermitian blocks that
    ``check`` requires, that is a coupling with ``W0 = W1*`` bitwise."""
    if not check.subordinated:
        raise HypothesisError(
            f"spectra are not subordinated at mu={check.mu}: sup spec(A0) = "
            f"{check.sup_spec_A0:.6g}, inf spec(A1) = {check.inf_spec_A1:.6g}",
            report=check,
        )
    if not b.hermitian:
        raise HypothesisError("coupling is not symmetric: W0 != W1*", report=check)


def _eigh_classified(b: BlockMatrix, mu: float):
    """``(v, below, at)``: the eigenvectors of B up to the band around mu,
    the leading columns of ``staged_eigh`` and the only ones formed, and the
    masks of those below the band and in it.

    An eigenvalue counts as equal to mu within the band
    ``max(MU_BAND_TOL * min(norm(B - mu), norm(B)), r)`` with the rounding
    floor ``r = KERNEL_PROOF_ROUNDING * dim * eps * norm(B)`` of the computed
    eigenvalues. ``norm(B - mu) = max|w - mu|`` is read off the eigenvalues,
    so a diagonal shift of B and mu together leaves it as it is; the
    minimum keeps the band no wider than ``MU_BAND_TOL * norm(B)`` while r
    is below that, for ``dim <= MU_BAND_TOL / (16 eps)``, about 2.8e5.
    """
    w = b.staged_eigh.w
    band = max(
        MU_BAND_TOL * min(_extreme_magnitude(w - mu), b.norm),
        KERNEL_PROOF_ROUNDING * b.dim * _EPS * b.norm,
    )
    below, k = w < mu - band, int(np.count_nonzero(w <= mu + band))
    return b.staged_eigh.vectors(k), below[:k], ~below[:k]


def _reducing_subspace(b: BlockMatrix, mu: float) -> tuple[Subspace, float]:
    """Reducing subspace (strictly-below eigenvectors plus kernel ∩ H0) and
    the kernel split's residual.

    The kernel of ``B - mu`` is the band of :func:`_eigh_classified`. Its
    basis is rotated by the right singular vectors of its H1 rows, so that
    each rotated column lies along H0 or H1 when the kernel splits; the
    columns whose H1 component is at most ``DEFAULT_TOL`` are the part
    inside H0. The residual is ``hypot_j min(norm(u_j[:n0]), norm(u_j[n0:]))``
    over the rotated columns u_j, each one's distance from the nearer of H0
    and H1 (0 for an empty kernel). Anything but dimension n0 raises
    :class:`TheoremViolationError`.
    """
    v, below, at = _eigh_classified(b, mu)
    pieces = [v[:, below]]
    k_basis = v[:, at]
    split = 0.0
    if k_basis.shape[1] > 0:
        _, _, wh = np.linalg.svd(k_basis[b.n0 :], full_matrices=True)
        rotated = k_basis @ wh.conj().T
        norms = [np.linalg.norm(part, axis=0) for part in np.split(rotated, [b.n0])]
        pieces.append(rotated[:, norms[1] <= DEFAULT_TOL])
        split = float(np.linalg.norm(np.minimum(*norms)))
    # eigenvectors of B and a unitary rotation inside its mu-eigenspace:
    # orthonormal already, which the Subspace Gram gate checks
    stacked = np.hstack(pieces)
    if stacked.shape[1] != b.n0:
        raise TheoremViolationError(
            f"reducing subspace has dimension {stacked.shape[1]}, expected n0 = {b.n0}"
        )
    return Subspace(basis=stacked, n0=b.n0), split


def run_theorem(
    b: BlockMatrix,
    mu: float | None = None,
    check: SubordinationCheck | None = None,
) -> TheoremResult:
    """Full subordinated decomposition with verification of its claims.

    Builds the reducing subspace and measures the kernel split on the same
    rotated kernel basis, extracts the contraction ``X``, forms the skew
    pair ``(X, -X*)``, runs both block diagonalizations, bounds the
    invariance defects of the subspace and of graph(-X*), and measures the
    mutual-adjointness defect of the two diagonal forms. The hypotheses are
    checked once: ``check`` is :func:`check_subordination` of b at mu
    (:func:`choose_mu` by default), run here unless the caller has run it,
    and its ``mu`` is the threshold. One eigendecomposition of B serves
    the reducing subspace and the kernel split, with only the eigenvectors
    below mu and in its band formed; the kernel split takes no SVD but the
    one of the kernel basis's H1 rows, and nothing of dimension n0 + n1 is
    formed after it but the block diagonalizations. The skew pair is a contraction, so both take
    the blockwise route, whose Cholesky factors of ``I + X* X`` and
    ``I + X X*`` make the unitary frame ``U = [G0 L0^{-*}, G1 L1^{-*}]``;
    the invariance defects of graph(X) and graph(-X*) are the off-diagonal
    blocks of ``U* B U``, read off the product ``C = (I - Y) B (I + Y)``
    they form (``DiagonalizationResult.frame_defects``).
    ``invariance_residuals[0]`` adds ``2 norm_F(Q1 - X Q0)``, the distance
    of span L from graph(X) times 2, and both add the rounding slack
    ``16 dim eps (1 + norm(X))^2`` (README "Numerics notes"), so the first
    bounds the defect of the returned basis L and ``invariance_residuals[1]``
    that of graph(-X*). Residuals are Frobenius norms over the exact
    ``norm(B)``; ``norm_X`` is exact.
    """
    if check is None:
        check = check_subordination(b, choose_mu(b) if mu is None else mu)
    _require_hypotheses(b, check)
    mu = check.mu
    sub, split = _reducing_subspace(b, mu)
    try:
        graph = to_graph(sub, GraphBase.H0)
    except NotAGraphError as exc:
        raise TheoremViolationError(
            f"reducing subspace is not a graph over H0: {exc}"
        ) from exc
    x = graph.X
    # the extraction's one SVD serves norm(X) and kappa(I -/+ Y)
    pair = graph_pair(graph)
    sv = pair.singular_values_X0
    norm_x = float(sv[0]) if sv.size else 0.0
    if norm_x > 1.0 + CONTRACTION_SLACK:
        raise TheoremViolationError(
            f"angular operator is not a contraction: norm(X) = {norm_x:.12g}"
        )
    # kappa(I -/+ Y) <= sqrt(2): always the blockwise frame route
    left, right = diagonalize(b, pair)
    slack = KERNEL_PROOF_ROUNDING * b.dim * _EPS * (1.0 + norm_x) ** 2
    q0, q1 = sub.basis[: b.n0], sub.basis[b.n0 :]
    # span L is within norm_F(Q1 - X Q0) of graph(X)
    distance = frobenius_norm(q1 - x @ q0)
    res_l = relative(right.frame_defects[0], b.norm) + 2.0 * distance + slack
    res_perp = relative(right.frame_defects[1], b.norm) + slack
    blocks = zip(right.diag_blocks, left.diag_blocks)
    adjointness = float(np.hypot(*[frobenius_norm(r.conj().T - l) for r, l in blocks]))
    return TheoremResult(
        L=sub,
        X=x,
        norm_X=norm_x,
        kernel_split_residual=split,
        adjointness_residual=relative(adjointness, b.norm),
        diag_results=(left, right),
        mu=mu,
        invariance_residuals=(res_l, res_perp),
        check=check,
        graph_distance=distance,
    )
