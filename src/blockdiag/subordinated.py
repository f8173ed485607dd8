"""Decomposition pipeline for Hermitian blocks with subordinated spectra.

When the diagonal blocks satisfy ``sup spec(A0) <= mu <= inf spec(A1)``
and the coupling is symmetric (``W0 = W1*``), the subspace spanned by
eigenvectors strictly below ``mu`` together with the part of the kernel of
``B - mu`` living inside H0 reduces the assembled matrix, is the graph of
a contraction ``X`` over H0, and its orthogonal complement is the graph of
``-X*`` over H1. The resulting skew pair block diagonalizes B both ways,
with the two diagonal forms mutually adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angular import GraphBase, GraphSubspace, form_pair, from_graph, to_graph
from .core import (
    DEFAULT_TOL,
    BlockMatrix,
    frobenius_norm,
    from_blocks,
    is_hermitian,
    is_symmetric_offdiag,
)
from .errors import HypothesisError, NotAGraphError, TheoremViolationError
from .spectral import (
    Subspace,
    invariance_residual,
    null_space_basis,
)
from .transform import DiagonalizationResult, diagonalize_left, diagonalize_right

#: Relative half-width of the band in which an eigenvalue counts as equal
#: to the threshold mu and is routed through the kernel logic.
MU_BAND_TOL = 1e-9

#: Allowed overshoot of the contraction bound norm(X) <= 1.
CONTRACTION_SLACK = 1e-9

#: Bound on both kernel-split residuals for the split to hold.
KERNEL_SPLIT_TOL = 1e-8


@dataclass(frozen=True)
class SubordinationCheck:
    """Extreme eigenvalues of the diagonal blocks against a threshold."""

    mu: float
    sup_spec_A0: float
    inf_spec_A1: float
    subordinated: bool
    symmetric_V: bool
    gap: float


@dataclass(frozen=True)
class KernelSplitReport:
    """Outcome of the kernel splitting check at the threshold.

    The kernel of ``B - mu`` must equal the orthogonal sum of
    ``Ker(A0 - mu) ∩ Ker(W1*)`` and ``Ker(A1 - mu) ∩ Ker(W1)``, and must
    lie inside the kernel of the diagonal part.
    """

    ok: bool
    dim_kernel: int
    dim_k0: int
    dim_k1: int
    split_residual: float
    diag_containment_residual: float


@dataclass(frozen=True)
class TheoremResult:
    """Everything produced by the subordinated decomposition pipeline.

    ``check`` is the subordination check the pipeline ran at ``mu``.
    """

    L: Subspace
    X: np.ndarray
    norm_X: float
    kernel_split_ok: bool
    reduces_ok: bool
    adjointness_residual: float
    diag_results: tuple[DiagonalizationResult, DiagonalizationResult]
    mu: float
    invariance_residuals: tuple[float, float]
    check: SubordinationCheck


def check_subordination(b: BlockMatrix, mu: float) -> SubordinationCheck:
    """Evaluate ``sup spec(A0) <= mu <= inf spec(A1)`` with a tolerance band.

    The band scales with ``max(norm(A0), norm(A1))``, read off the extreme
    eigenvalues of the (Hermitian) blocks, which ``b`` caches.
    """
    if not is_hermitian(b.A0) or not is_hermitian(b.A1):
        raise HypothesisError("diagonal blocks must be Hermitian")
    w0, w1 = b.eigvalsh_A
    sup0 = float(w0[-1])
    inf1 = float(w1[0])
    scale = max(abs(w0[0]), abs(w0[-1]), abs(w1[0]), abs(w1[-1]), 1.0)
    band = DEFAULT_TOL * scale
    subordinated = (sup0 <= mu + band) and (mu <= inf1 + band)
    return SubordinationCheck(
        mu=float(mu),
        sup_spec_A0=sup0,
        inf_spec_A1=inf1,
        subordinated=subordinated,
        symmetric_V=is_symmetric_offdiag(b),
        gap=inf1 - sup0,
    )


def choose_mu(b: BlockMatrix) -> float:
    """Midpoint of the gap between the diagonal spectra (or the touch point)."""
    if not is_hermitian(b.A0) or not is_hermitian(b.A1):
        raise HypothesisError("diagonal blocks must be Hermitian")
    w0, w1 = b.eigvalsh_A
    sup0 = float(w0[-1])
    inf1 = float(w1[0])
    if inf1 > sup0:
        return 0.5 * (sup0 + inf1)
    return sup0


def _require_hypotheses(b: BlockMatrix, mu: float) -> SubordinationCheck:
    check = check_subordination(b, mu)
    if not check.subordinated:
        raise HypothesisError(
            f"spectra are not subordinated at mu={mu}: sup spec(A0) = "
            f"{check.sup_spec_A0:.6g}, inf spec(A1) = {check.inf_spec_A1:.6g}"
        )
    if not check.symmetric_V:
        raise HypothesisError("coupling is not symmetric: W0 != W1*")
    return check


def _eigh_classified(b: BlockMatrix, mu: float):
    """The cached eigendecomposition of B, eigenvalues classified vs mu."""
    w, v = b.eigh
    band = MU_BAND_TOL * b.norm
    below = w < mu - band
    at = np.abs(w - mu) <= band
    above = w > mu + band
    return w, v, below, at, above


def verify_kernel_split(b: BlockMatrix, mu: float) -> KernelSplitReport:
    """Verify that the kernel of ``B - mu`` splits along H0 and H1.

    Both constituents are computed as stacked-matrix null spaces; equality
    with the direct sum is measured by a projection residual, and the
    containment in the kernel of the diagonal part is checked as well.
    Both residuals are Frobenius norms (upper bounds on the 2-norms), and
    the split holds when both are at most :data:`KERNEL_SPLIT_TOL`.
    """
    _require_hypotheses(b, mu)
    return _kernel_split(b, mu)


def _kernel_split(b: BlockMatrix, mu: float) -> KernelSplitReport:
    _, v, _, at, _ = _eigh_classified(b, mu)
    k_basis = v[:, at]
    dim_k = k_basis.shape[1]
    eye0 = np.eye(b.n0, dtype=np.complex128)
    eye1 = np.eye(b.n1, dtype=np.complex128)
    k0 = null_space_basis(np.vstack([b.A0 - mu * eye0, b.W1.conj().T]))
    k1 = null_space_basis(np.vstack([b.A1 - mu * eye1, b.W1]))
    dim_k0 = k0.shape[1]
    dim_k1 = k1.shape[1]
    direct = from_blocks(k0, None, None, k1)
    if dim_k == dim_k0 + dim_k1 and dim_k > 0:
        proj = direct @ (direct.conj().T @ k_basis)
        split_residual = frobenius_norm(k_basis - proj)
    elif dim_k == dim_k0 + dim_k1:
        split_residual = 0.0
    else:
        split_residual = float("inf")
    if dim_k > 0:
        a = b.diagonal_part()
        scale = max(b.norm_A, 1.0)
        diag_containment = frobenius_norm((a - mu * np.eye(b.dim)) @ k_basis) / scale
    else:
        diag_containment = 0.0
    ok = (
        dim_k == dim_k0 + dim_k1
        and split_residual <= KERNEL_SPLIT_TOL
        and diag_containment <= KERNEL_SPLIT_TOL
    )
    return KernelSplitReport(
        ok=ok,
        dim_kernel=dim_k,
        dim_k0=dim_k0,
        dim_k1=dim_k1,
        split_residual=split_residual,
        diag_containment_residual=diag_containment,
    )


def build_L(b: BlockMatrix, mu: float) -> Subspace:
    """Reducing subspace: strictly-below eigenvectors plus kernel ∩ H0.

    The part of the kernel of ``B - mu`` inside H0 is extracted by
    rotating the kernel basis (SVD of its H1 components) and keeping the
    columns whose H1 component is at most ``DEFAULT_TOL``; the splitting
    property guarantees such a rotation exists. The result must have
    dimension n0.
    """
    _require_hypotheses(b, mu)
    return _reducing_subspace(b, mu)


def _reducing_subspace(b: BlockMatrix, mu: float) -> Subspace:
    _, v, below, at, _ = _eigh_classified(b, mu)
    pieces = [v[:, below]]
    k_basis = v[:, at]
    if k_basis.shape[1] > 0:
        h1_part = k_basis[b.n0:, :]
        _, s, wh = np.linalg.svd(h1_part, full_matrices=True)
        rotated = k_basis @ wh.conj().T
        sigma = np.zeros(k_basis.shape[1])
        sigma[: s.size] = s
        keep = sigma <= DEFAULT_TOL
        pieces.append(rotated[:, keep])
    stacked = np.hstack(pieces)
    if stacked.shape[1] != b.n0:
        raise TheoremViolationError(
            f"reducing subspace has dimension {stacked.shape[1]}, expected n0 = {b.n0}"
        )
    if stacked.shape[1] > 0:
        q, _ = np.linalg.qr(stacked)
    else:
        q = stacked
    return Subspace(basis=q, n0=b.n0)


def run_theorem(
    b: BlockMatrix, mu: float | None = None, tol: float = 1e-8
) -> TheoremResult:
    """Full subordinated decomposition with verification of its claims.

    Builds the reducing subspace, extracts the contraction ``X``, forms
    the skew pair ``(X, -X*)``, verifies the kernel splitting, invariance
    of the subspace and its complement, runs both block diagonalizations,
    and measures the mutual-adjointness defect of the two diagonal forms.
    The hypotheses are checked once, and one eigendecomposition of B
    serves both the kernel split and the reducing subspace. Residuals are
    Frobenius norms over the exact ``norm(B)``; ``norm_X`` is exact.
    """
    if mu is None:
        mu = choose_mu(b)
    check = _require_hypotheses(b, mu)
    split_report = _kernel_split(b, mu)
    sub = _reducing_subspace(b, mu)
    try:
        graph = to_graph(sub, GraphBase.H0)
    except NotAGraphError as exc:
        raise TheoremViolationError(
            f"reducing subspace is not a graph over H0: {exc}"
        ) from exc
    x = graph.X
    pair = form_pair(x, -x.conj().T)
    # one SVD of X serves norm(X) here and kappa(I -/+ Y) in the transforms
    sv = pair.singular_values_X0
    norm_x = float(sv[0]) if sv.size else 0.0
    if norm_x > 1.0 + CONTRACTION_SLACK:
        raise TheoremViolationError(
            f"angular operator is not a contraction: norm(X) = {norm_x:.12g}"
        )
    full = b.full
    scale = max(b.norm, 1e-300)
    res_l = invariance_residual(full, sub) / scale
    complement = from_graph(GraphSubspace(base=GraphBase.H1, X=pair.X1))
    res_perp = invariance_residual(full, complement) / scale
    reduces_ok = res_l <= tol and res_perp <= tol
    left = diagonalize_left(b, pair)
    right = diagonalize_right(b, pair)
    a_plus_vy = from_blocks(right.diag_blocks[0], None, None, right.diag_blocks[1])
    a_minus_yv = from_blocks(left.diag_blocks[0], None, None, left.diag_blocks[1])
    adjointness = frobenius_norm(a_plus_vy.conj().T - a_minus_yv) / scale
    return TheoremResult(
        L=sub,
        X=x,
        norm_X=norm_x,
        kernel_split_ok=split_report.ok,
        reduces_ok=reduces_ok,
        adjointness_residual=adjointness,
        diag_results=(left, right),
        mu=float(mu),
        invariance_residuals=(res_l, res_perp),
        check=check,
    )
