"""Dense complex matrices and the 2x2 block-matrix data model.

Every operator in the toolkit is carried by a dense ``numpy`` array with
complex128 entries; the block structure lives in :class:`BlockMatrix`,
which stores the four blocks of ``[[A0, W1], [W0, A1]]`` immutably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import StructuralError

#: Baseline tolerance used for rank decisions and spectral bands.
DEFAULT_TOL = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce input to an immutable, finite, 2-d complex128 array.

    Scalars and 1-d sequences are promoted to 1x1 / row shape via
    ``np.atleast_2d`` so small fixtures can be written as ``[0]`` etc.
    """
    m = np.atleast_2d(np.asarray(a, dtype=np.complex128))
    if m.ndim != 2:
        raise StructuralError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise StructuralError(f"{name} contains non-finite entries")
    m = m.copy()
    m.flags.writeable = False
    return m


def _readonly(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


def operator_norm(m) -> float:
    """Largest singular value of ``m`` (0.0 for empty matrices)."""
    m = np.asarray(m, dtype=np.complex128)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def frobenius_norm(m) -> float:
    """Frobenius norm of ``m``: an upper bound on its 2-norm, used by gates.

    The plain sum of squares overflows once entries pass about 1e154; only
    then is the norm recomputed over ``m / max|m|``, so finite input gets a
    finite norm whenever the norm itself is representable.
    """
    m = np.asarray(m, dtype=np.complex128)
    with np.errstate(over="ignore"):
        value = float(np.linalg.norm(m))
    if math.isinf(value):
        peak = float(np.max(np.abs(m)))
        if math.isfinite(peak):
            value = peak * float(np.linalg.norm(m / peak))
    return value


def norm_lower_bound(m) -> float:
    """``norm_F(m) / sqrt(min(shape))``: a lower bound on the 2-norm of ``m``.

    Gates scale their tolerances by the exact norm or by this bound, never
    by an upper bound, so a cheap gate is never looser than the exact one.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.size == 0:
        return 0.0
    return frobenius_norm(m) / np.sqrt(min(m.shape))


def _bitwise_hermitian(m: np.ndarray) -> bool:
    """Bitwise equality with the conjugate transpose: the fast-path test."""
    return bool(m.size) and np.array_equal(m, m.conj().T)


def _extreme_magnitude(w: np.ndarray) -> float:
    """Largest magnitude of an ascending real eigenvalue list."""
    return float(max(abs(w[0]), abs(w[-1])))


def _sigma_min(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``m`` equals its conjugate transpose up to ``tol * norm``.

    The defect is measured in the Frobenius norm and the scale is a lower
    bound on the 2-norm, so this never passes where the exact 2-norm test
    fails.
    """
    m = np.asarray(m, dtype=np.complex128)
    scale = norm_lower_bound(m)
    return frobenius_norm(m - m.conj().T) <= tol * max(scale, 1.0)


@dataclass(frozen=True)
class BlockMatrix:
    """The 2x2 block matrix ``[[A0, W1], [W0, A1]]`` on H0 (+) H1.

    ``A0`` (n0 x n0) and ``A1`` (n1 x n1) are the diagonal blocks,
    ``W0`` (n1 x n0) maps H0 into H1 and ``W1`` (n0 x n1) maps H1 into H0.
    Instances are immutable. The expensive derived quantities (``full``,
    ``hermitian``, ``bitwise_hermitian``, ``eigh``, ``eigh_A``,
    ``eigvalsh_A``, ``eigvals``, ``norm``, ``norm_A``, ``norm_V``) are
    computed on first use and cached, arrays read-only; the ``*_part`` and
    ``assemble`` methods return fresh arrays.

    Fast paths that rely on normality run only on bitwise-Hermitian input
    (``np.array_equal(m, m.conj().T)``); every other input takes the
    general factorization.
    """

    A0: np.ndarray
    A1: np.ndarray
    W0: np.ndarray
    W1: np.ndarray

    def __post_init__(self):
        for name in ("A0", "A1", "W0", "W1"):
            object.__setattr__(self, name, as_matrix(getattr(self, name), name))
        n0 = self.A0.shape[0]
        n1 = self.A1.shape[0]
        if self.A0.shape != (n0, n0):
            raise StructuralError(f"A0 must be square, got {self.A0.shape}")
        if self.A1.shape != (n1, n1):
            raise StructuralError(f"A1 must be square, got {self.A1.shape}")
        if self.W0.shape != (n1, n0):
            raise StructuralError(
                f"W0 must have shape {(n1, n0)}, got {self.W0.shape}"
            )
        if self.W1.shape != (n0, n1):
            raise StructuralError(
                f"W1 must have shape {(n0, n1)}, got {self.W1.shape}"
            )

    @property
    def n0(self) -> int:
        return self.A0.shape[0]

    @property
    def n1(self) -> int:
        return self.A1.shape[0]

    @property
    def dim(self) -> int:
        return self.n0 + self.n1

    def assemble(self) -> np.ndarray:
        """Full ``(n0+n1) x (n0+n1)`` matrix ``[[A0, W1], [W0, A1]]``."""
        return self.full.copy()

    @cached_property
    def full(self) -> np.ndarray:
        """Read-only assembled matrix, shared by every caller."""
        return _readonly(assemble(self))

    @cached_property
    def hermitian(self) -> bool:
        """:func:`is_hermitian` of the assembled matrix at the default tolerance."""
        return is_hermitian(self.full)

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(w, v)`` of ``numpy.linalg.eigh`` of the assembled matrix.

        Like ``eigh`` itself this reads the lower triangle only; it is the
        eigendecomposition of B when B is Hermitian.
        """
        w, v = np.linalg.eigh(self.full)
        return _readonly(w), _readonly(v)

    @cached_property
    def bitwise_hermitian(self) -> bool:
        """Whether the assembled matrix equals its conjugate transpose exactly."""
        return _bitwise_hermitian(self.full)

    @cached_property
    def bitwise_hermitian_A(self) -> bool:
        """Whether A0 and A1 both equal their conjugate transposes exactly."""
        return _bitwise_hermitian(self.A0) and _bitwise_hermitian(self.A1)

    @cached_property
    def eigh_A(self) -> tuple | None:
        """Read-only ``((w0, Q0), (w1, Q1))`` of ``eigh`` of A0 and A1.

        ``None`` unless both diagonal blocks are bitwise Hermitian.
        """
        if not self.bitwise_hermitian_A:
            return None
        return tuple(
            (_readonly(w), _readonly(q))
            for w, q in (np.linalg.eigh(self.A0), np.linalg.eigh(self.A1))
        )

    @cached_property
    def eigvalsh_A(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ascending eigenvalues ``(w0, w1)`` of A0 and A1.

        Values only: read off ``eigh_A`` when that is cached, otherwise one
        ``eigvalsh`` per block. Like ``eigvalsh`` this reads the lower
        triangles, so it is the spectra of A0 and A1 when they are
        Hermitian; callers gate on :func:`is_hermitian` first.
        """
        if self.__dict__.get("eigh_A") is not None:
            return tuple(w for w, _ in self.eigh_A)
        return tuple(_readonly(np.linalg.eigvalsh(a)) for a in (self.A0, self.A1))

    @cached_property
    def eigvals(self) -> np.ndarray:
        """Read-only eigenvalues of the assembled matrix, complex, (Re, Im) sorted.

        A bitwise-Hermitian B reads them off the cached ``eigh`` when that
        exists and otherwise takes ``eigvalsh``; they are then real (zero
        imaginary parts) and ascending. Other input takes the general
        ``eigvals``.
        """
        if self.bitwise_hermitian:
            if "eigh" in self.__dict__:
                w = self.eigh[0]
            else:
                w = np.linalg.eigvalsh(self.full)
            return _readonly(w.astype(np.complex128))
        w = np.linalg.eigvals(self.full)
        return _readonly(w[np.lexsort((w.imag, w.real))])

    @cached_property
    def norm(self) -> float:
        """Exact 2-norm of the assembled matrix.

        For bitwise-Hermitian B it is the largest eigenvalue magnitude,
        read off the cached eigenvalues; otherwise one SVD.
        """
        if self.bitwise_hermitian:
            return _extreme_magnitude(self.eigvals.real)
        return operator_norm(self.full)

    def sigma_min_shifted(self, lam: complex) -> float:
        """Smallest singular value of ``B - lam``.

        B normal makes it the distance of ``lam`` from spec(B), so a
        bitwise-Hermitian B reads it off the cached eigenvalues; other
        input takes one SVD.
        """
        lam = complex(lam)
        if self.bitwise_hermitian:
            return float(np.min(np.abs(self.eigvals - lam)))
        return _sigma_min(self.full - lam * np.eye(self.dim))

    def sigma_min_shifted_A(self, lam: complex) -> float:
        """Smallest singular value of ``A - lam`` for ``A = diag(A0, A1)``.

        With ``eigh_A`` available it is the distance of ``lam`` from
        ``spec(A0) ∪ spec(A1)``; otherwise one SVD.
        """
        lam = complex(lam)
        if self.eigh_A is not None:
            (w0, _), (w1, _) = self.eigh_A
            return float(np.min(np.abs(np.concatenate([w0, w1]) - lam)))
        return _sigma_min(self.diagonal_part() - lam * np.eye(self.dim))

    @cached_property
    def norm_A(self) -> float:
        """Exact ``norm(diag(A0, A1)) = max(norm(A0), norm(A1))``.

        Bitwise-Hermitian blocks read it off ``eigvalsh_A``; other blocks
        take one SVD each.
        """
        if self.bitwise_hermitian_A:
            return max(_extreme_magnitude(w) for w in self.eigvalsh_A)
        return max(operator_norm(self.A0), operator_norm(self.A1))

    @cached_property
    def norm_V(self) -> float:
        """Exact ``norm([[0, W1], [W0, 0]]) = max(norm(W0), norm(W1))``."""
        norm_w1 = operator_norm(self.W1)
        if np.array_equal(self.W0, self.W1.conj().T):
            return norm_w1
        return max(operator_norm(self.W0), norm_w1)

    def diagonal_part(self) -> np.ndarray:
        """Full matrix of the diagonal part ``A = diag(A0, A1)``."""
        return from_blocks(self.A0, None, None, self.A1)

    def offdiagonal_part(self) -> np.ndarray:
        """Full matrix of the coupling part ``V = [[0, W1], [W0, 0]]``."""
        return from_blocks(None, self.W1, self.W0, None)

    def swapped(self) -> "BlockMatrix":
        """Exchange the roles of H0 and H1 (permutation similarity).

        Block spectra already computed carry over, exchanged.
        """
        out = BlockMatrix(A0=self.A1, A1=self.A0, W0=self.W1, W1=self.W0)
        if "eigvalsh_A" in self.__dict__:
            out.__dict__["eigvalsh_A"] = self.eigvalsh_A[::-1]
        return out


def from_blocks(a, b, c, d) -> np.ndarray:
    """Fresh dense complex matrix ``[[a, b], [c, d]]``.

    ``None`` stands for a zero block. Every block row and every block
    column must hold one given block, whose shape fixes its size.
    """
    grid = ((a, b), (c, d))
    rows = [next(m.shape[0] for m in row if m is not None) for row in grid]
    cols = [next(r[j].shape[1] for r in grid if r[j] is not None) for j in (0, 1)]
    out = np.zeros((sum(rows), sum(cols)), dtype=np.complex128)
    for rs, row in zip((np.s_[: rows[0]], np.s_[rows[0]:]), grid):
        for cs, m in zip((np.s_[: cols[0]], np.s_[cols[0]:]), row):
            if m is not None:
                out[rs, cs] = m
    return out


def assemble(b: BlockMatrix) -> np.ndarray:
    """Assemble the four blocks into the full dense matrix."""
    return from_blocks(b.A0, b.W1, b.W0, b.A1)


def split(m, n0: int) -> BlockMatrix:
    """Inverse of :func:`assemble`; exact (bitwise) slicing of the blocks."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StructuralError(f"matrix to split must be square, got {m.shape}")
    n = m.shape[0]
    if not (0 < n0 < n):
        raise StructuralError(f"n0 must satisfy 0 < n0 < {n}, got {n0}")
    return BlockMatrix(
        A0=m[:n0, :n0], A1=m[n0:, n0:], W0=m[n0:, :n0], W1=m[:n0, n0:]
    )


def is_symmetric_offdiag(b: BlockMatrix, tol: float = DEFAULT_TOL) -> bool:
    """Whether the coupling is symmetric, ``W0 = W1*`` up to tolerance.

    Frobenius defect against a lower bound on ``norm(W1)``, so never looser
    than the exact 2-norm test.
    """
    defect = frobenius_norm(b.W0 - b.W1.conj().T)
    return defect <= tol * (1.0 + norm_lower_bound(b.W1))
