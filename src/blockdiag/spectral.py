"""Spectral decompositions, spectral subspaces, and numerical kernels.

Hermitian matrices go through ``eigh`` and yield orthonormal eigenbases;
general matrices use either ``eig`` (full decomposition) or a sorted
complex Schur factorization (invariant subspaces for an eigenvalue
region). Rank decisions are SVD-based with a relative tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.linalg

from .core import (
    BlockMatrix,
    as_matrix,
    default_tol,
    frobenius_norm,
    is_hermitian,
    operator_norm,
)
from .errors import ContractError, IllPosedRegionError, NumericError, StructuralError

#: Relative gap below which an eigenvalue-region selector is ill-posed,
#: and the guaranteed bound on invariance residuals of returned subspaces.
REGION_GAP_TOL = 1e-8

_ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue list of a matrix, with provenance flags.

    ``defective`` marks a (non-Hermitian) eigenvector matrix that is
    numerically rank deficient, i.e. the eigenbasis is unreliable.
    """

    eigenvalues: np.ndarray
    is_hermitian_input: bool
    defective: bool = False

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=np.complex128).ravel()
        if self.is_hermitian_input:
            ev = ev.real.astype(np.complex128)
        ev.flags.writeable = False
        object.__setattr__(self, "eigenvalues", ev)


@dataclass(frozen=True)
class Subspace:
    """Orthonormal-column basis of a subspace, optionally block-partitioned.

    ``n0`` records the H0/H1 partition of the ambient space when the
    subspace came from a :class:`~blockdiag.core.BlockMatrix` context.
    """

    basis: np.ndarray
    n0: int | None = None

    def __post_init__(self):
        q = np.asarray(self.basis, dtype=np.complex128)
        if q.ndim != 2:
            raise StructuralError(f"basis must be 2-dimensional, got {q.shape}")
        if q.shape[1] > q.shape[0]:
            raise StructuralError(f"basis has more columns than rows: {q.shape}")
        if q.shape[1] > 0:
            gram = q.conj().T @ q
            defect = frobenius_norm(gram - np.eye(q.shape[1]))
            if defect > _ORTHO_TOL:
                raise StructuralError(
                    f"basis columns not orthonormal (defect {defect:.3e})"
                )
        q = q.copy()
        q.flags.writeable = False
        object.__setattr__(self, "basis", q)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    def projector(self) -> np.ndarray:
        """Orthogonal projector ``Q Q*`` onto the subspace."""
        return self.basis @ self.basis.conj().T

    def with_partition(self, n0: int) -> "Subspace":
        return replace(self, n0=n0)


def eigendecompose(m, hermitian: bool) -> tuple[Spectrum, np.ndarray]:
    """Eigenvalues and eigenvectors of a square matrix.

    The Hermitian path returns real eigenvalues in ascending order with an
    orthonormal eigenvector matrix. The general path sorts eigenpairs
    lexicographically by (Re, Im) and flags defective eigenbases. Each
    eigenpair satisfies ``m v = lambda v`` to ``1e-10 * norm(m)``.
    """
    m = as_matrix(m, "matrix")
    if m.shape[0] != m.shape[1]:
        raise StructuralError(f"eigendecompose needs a square matrix, got {m.shape}")
    scale = operator_norm(m)
    if hermitian:
        if not is_hermitian(m):
            raise ContractError("matrix is not Hermitian to tolerance")
        try:
            w, v = np.linalg.eigh(m)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"Hermitian eigensolver failed: {exc}") from exc
        spectrum = Spectrum(eigenvalues=w, is_hermitian_input=True)
        defective = False
    else:
        try:
            w, v = np.linalg.eig(m)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigensolver failed: {exc}") from exc
        order = np.lexsort((w.imag, w.real))
        w, v = w[order], v[:, order]
        # columns of v are unit vectors; rank deficiency marks a defective basis
        sv = np.linalg.svd(v, compute_uv=False)
        defective = bool(sv[-1] <= 1e-8)
        spectrum = Spectrum(
            eigenvalues=w, is_hermitian_input=False, defective=defective
        )
    residual = operator_norm(m @ v - v * spectrum.eigenvalues[np.newaxis, :])
    if residual > 1e-10 * max(scale, 1.0):
        raise NumericError(
            "eigendecomposition residual beyond guarantee",
            diagnostics={"residual": residual, "scale": scale, "defective": defective},
        )
    return spectrum, v


def eigenvalues(m) -> np.ndarray:
    """Plain general eigenvalue list, sorted by (Re, Im)."""
    w = np.linalg.eigvals(np.asarray(m, dtype=np.complex128))
    return w[np.lexsort((w.imag, w.real))]


def spectral_subspace_below(
    b: BlockMatrix, mu: float, strict: bool = True, tol: float | None = None
) -> Subspace:
    """Span of eigenvectors of the assembled matrix below the threshold.

    ``strict`` keeps eigenvalues ``< mu - tol*norm``; otherwise eigenvalues
    ``<= mu + tol*norm`` are included. Eigenvalues inside the band around
    ``mu`` count as equal to ``mu``: the strict subspace never claims them.
    """
    if tol is None:
        tol = default_tol()
    if not b.hermitian:
        raise ContractError("spectral_subspace_below requires a Hermitian matrix")
    w, v = b.eigh
    band = tol * b.norm
    mask = w < mu - band if strict else w <= mu + band
    return Subspace(basis=v[:, mask], n0=b.n0)


def kernel(m, mu: complex = 0.0, tol: float | None = None) -> Subspace:
    """Orthonormal basis of the numerical null space of ``m - mu I``.

    Singular vectors with ``sigma <= tol * norm(m - mu I)`` are kept, with
    ``tol`` as an absolute floor when the shifted matrix vanishes.
    """
    m = as_matrix(m, "matrix")
    if m.shape[0] != m.shape[1]:
        raise StructuralError(f"kernel needs a square matrix, got {m.shape}")
    shifted = m - mu * np.eye(m.shape[0], dtype=np.complex128)
    return Subspace(basis=null_space_basis(shifted, tol=tol))


def null_space_basis(m, tol: float | None = None) -> np.ndarray:
    """SVD null-space basis of a (possibly rectangular) matrix."""
    if tol is None:
        tol = default_tol()
    m = np.asarray(m, dtype=np.complex128)
    rows, cols = m.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    if rows == 0:
        return np.eye(cols, dtype=np.complex128)
    # the trailing rows of vh span the null space; U is never needed, and
    # the thin factorization still returns all of vh when rows >= cols
    _, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
    scale = s[0] if s.size else 0.0
    thresh = tol * scale if scale > 0.0 else tol
    # pad: singular values beyond min(rows, cols) are implicitly zero
    nkeep = int(np.sum(s > thresh))
    return vh[nkeep:].conj().T


def invariant_subspace_by_region(
    m,
    selector: Callable[[complex], bool],
    hermitian: bool = False,
) -> Subspace:
    """Invariant subspace spanned by eigenvalues satisfying ``selector``.

    For non-Hermitian input this reorders a complex Schur factorization so
    the selected eigenvalues lead, and returns the corresponding Schur
    vectors. The selected and unselected eigenvalue groups must be
    separated by a relative gap of at least ``REGION_GAP_TOL``.
    """
    m = as_matrix(m, "matrix")
    if m.shape[0] != m.shape[1]:
        raise StructuralError(f"need a square matrix, got {m.shape}")
    scale = operator_norm(m)
    if hermitian:
        if not is_hermitian(m):
            raise ContractError("hermitian flag set but matrix is not Hermitian")
        w, v = np.linalg.eigh(m)
        mask = np.array([bool(selector(complex(x))) for x in w], dtype=bool)
        return eigenbasis_subspace(m, w, v, mask, scale)
    try:
        t, z, sdim = scipy.linalg.schur(
            m, output="complex", sort=lambda lam: bool(selector(complex(lam)))
        )
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Schur factorization failed: {exc}") from exc
    diag = np.diag(t)
    _check_region_gap(diag[:sdim], diag[sdim:], scale)
    return _guaranteed_invariant(m, Subspace(basis=z[:, :sdim]), scale)


def eigenbasis_subspace(
    m, w: np.ndarray, v: np.ndarray, mask: np.ndarray, scale: float
) -> Subspace:
    """Span of the eigenvectors ``v[:, mask]`` of a Hermitian ``m``.

    ``(w, v)`` is an ``eigh`` of ``m`` and ``scale`` its 2-norm. The same
    guarantees as :func:`invariant_subspace_by_region` hold: the selected
    eigenvalues keep a relative gap of ``REGION_GAP_TOL`` from the others,
    and the invariance residual stays within ``REGION_GAP_TOL * scale``.
    """
    _check_region_gap(w[mask], w[~mask], scale)
    return _guaranteed_invariant(m, Subspace(basis=v[:, mask]), scale)


def _guaranteed_invariant(m, sub: Subspace, scale: float) -> Subspace:
    resid = invariance_residual(m, sub)
    if resid > REGION_GAP_TOL * max(scale, 1.0):
        raise NumericError(
            "invariant subspace residual beyond guarantee",
            diagnostics={"residual": resid, "scale": scale},
        )
    return sub


def _check_region_gap(selected, unselected, scale: float) -> None:
    if len(selected) == 0 or len(unselected) == 0:
        return
    gap = np.min(np.abs(selected[:, None] - unselected[None, :]))
    if gap < REGION_GAP_TOL * max(scale, 1.0):
        raise IllPosedRegionError(
            f"selector splits eigenvalues separated by only {gap:.3e} "
            f"(need {REGION_GAP_TOL:.0e} relative to norm {scale:.3e})"
        )


def invariance_residual(m, sub: Subspace) -> float:
    """``norm_F((I - QQ*) m Q)``; zero iff the span of Q is invariant for m.

    Frobenius norm: an upper bound on the 2-norm defect, for gates.
    """
    m = np.asarray(m, dtype=np.complex128)
    q = sub.basis
    if q.shape[1] == 0:
        return 0.0
    mq = m @ q
    return frobenius_norm(mq - q @ (q.conj().T @ mq))


def principal_angles(u: Subspace, v: Subspace) -> np.ndarray:
    """Principal angles between two subspaces (radians, descending)."""
    if u.dim == 0 or v.dim == 0:
        return np.zeros(0)
    return scipy.linalg.subspace_angles(u.basis, v.basis)


def containment_residual(inner: Subspace, outer: Subspace) -> float:
    """``norm((I - P_outer) Q_inner)``; zero iff inner is contained in outer."""
    if inner.dim == 0:
        return 0.0
    q = inner.basis
    if outer.dim == 0:
        return operator_norm(q)
    p = outer.basis
    return operator_norm(q - p @ (p.conj().T @ q))
