"""Spectral subspaces, invariant subspaces and null-space bases.

An invariant subspace is read off a triangular form ``m = Z T Z*`` that
the caller has made once (:func:`invariant_subspace`): the form is
reordered so that the selected eigenvalues lead, and their Schur vectors
span it. It is gated on the region gap and the invariance residual
against the matrix's 2-norm, which the caller passes in. Rank decisions
are SVD-based with a relative tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import DEFAULT_TOL, frobenius_norm, schur_diagonal
from .errors import IllPosedRegionError, NumericError, StructuralError

#: Relative gap at or below which an eigenvalue-region selector is ill-posed,
#: and the guaranteed bound on invariance residuals of returned subspaces.
REGION_GAP_TOL = 1e-8

_ORTHO_TOL = 1e-12


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

    def with_partition(self, n0: int) -> "Subspace":
        """This subspace with the H0/H1 partition ``n0``, sharing the basis.

        The basis was checked and frozen when this subspace was made, so
        it is not checked or copied again.
        """
        out = object.__new__(Subspace)
        out.__dict__.update(vars(self), n0=n0)
        return out


def eigenvalues(m) -> np.ndarray:
    """Plain general eigenvalue list, sorted by (Re, Im)."""
    w = np.linalg.eigvals(np.asarray(m, dtype=np.complex128))
    return w[np.lexsort((w.imag, w.real))]


def null_space_basis(m) -> np.ndarray:
    """SVD null-space basis of a (possibly rectangular) matrix.

    Singular vectors with ``sigma <= DEFAULT_TOL * sigma_max`` are kept;
    a zero matrix keeps them all.
    """
    m = np.asarray(m, dtype=np.complex128)
    rows, cols = m.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    if rows == 0:
        return np.eye(cols, dtype=np.complex128)
    # the trailing rows of vh span the null space; U is never needed, and
    # the thin factorization still returns all of vh when rows >= cols
    _, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
    # pad: singular values beyond min(rows, cols) are implicitly zero
    nkeep = int(np.sum(s > DEFAULT_TOL * s[0]))
    return vh[nkeep:].conj().T


def invariant_subspace(
    m, form: tuple[np.ndarray, np.ndarray], mask: np.ndarray, scale: float
) -> tuple[Subspace, tuple[np.ndarray, np.ndarray]]:
    """Invariant subspace of ``m`` spanned by the eigenvalues ``mask`` selects.

    ``form = (T, Z)`` is a triangular form ``m = Z T Z*``
    (:func:`~blockdiag.core.triangular_form`; a diagonal T may be the
    vector of its diagonal), ``mask`` selects entries of the diagonal of T
    in its order, and ``scale`` is the 2-norm of ``m``. The form is
    reordered so that the k selected eigenvalues lead: a diagonal T by a
    permutation, none when the mask is a prefix (as ``w < mu`` is of an
    ascending w), any other T by LAPACK ``ztrsen`` (none when k is 0 or
    all). The first k columns of
    Z span the subspace. The selected and unselected eigenvalues must be
    separated by more than ``REGION_GAP_TOL * scale``, and the invariance
    residual stays within the same bound. Returns the subspace and the
    reordered form.
    """
    t, z = form
    k = int(np.count_nonzero(mask))
    if t.ndim == 1:
        if not mask[:k].all():
            order = np.argsort(~mask, kind="stable")
            t, z = t[order], z[:, order]
    elif 0 < k < len(t):
        t, z, _, _, _, _, info = scipy.linalg.lapack.ztrsen(mask, t, z, job="N")
        if info != 0:
            raise NumericError(f"Schur reordering failed (info {info})")
    diag = schur_diagonal(t)
    _check_region_gap(diag[:k], diag[k:], scale)
    return _guaranteed_invariant(m, Subspace(basis=z[:, :k]), scale), (t, z)


def _guaranteed_invariant(m, sub: Subspace, scale: float) -> Subspace:
    resid = invariance_residual(m, sub)
    if resid > REGION_GAP_TOL * scale:
        raise NumericError(
            "invariant subspace residual beyond guarantee",
            diagnostics={"residual": resid, "scale": scale},
        )
    return sub


def _check_region_gap(selected, unselected, scale: float) -> None:
    if len(selected) == 0 or len(unselected) == 0:
        return
    # a difference past the float range is a gap past any bound
    with np.errstate(over="ignore"):
        gap = np.min(np.abs(selected[:, None] - unselected[None, :]))
    if gap <= REGION_GAP_TOL * scale:
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

