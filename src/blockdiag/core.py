"""Dense complex matrices and the 2x2 block-matrix data model.

Every operator in the toolkit is carried by a dense ``numpy`` array with
complex128 entries; the block structure lives in :class:`BlockMatrix`,
which stores the four blocks of ``[[A0, W1], [W0, A1]]`` immutably.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import StructuralError

#: Baseline tolerance used for rank decisions and spectral bands.
DEFAULT_TOL = 1e-10

_TOL_ENV = "BLOCKDIAG_DEFAULT_TOL"


def default_tol() -> float:
    """Baseline numeric tolerance, overridable via ``BLOCKDIAG_DEFAULT_TOL``."""
    raw = os.environ.get(_TOL_ENV)
    if raw is None:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError as exc:
        raise StructuralError(f"{_TOL_ENV} is not a number: {raw!r}") from exc
    if not (0.0 < value < 1.0):
        raise StructuralError(f"{_TOL_ENV} must lie in (0, 1), got {value}")
    return value


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


def _norm_2(m: np.ndarray) -> float:
    """Exact 2-norm; bitwise-Hermitian input takes the cheaper ``eigvalsh``."""
    if _bitwise_hermitian(m):
        return _extreme_magnitude(np.linalg.eigvalsh(m))
    return operator_norm(m)


def _sigma_min(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def is_hermitian(m, tol: float | None = None) -> bool:
    """Whether ``m`` equals its conjugate transpose up to ``tol * norm``.

    The defect is measured in the Frobenius norm and the scale is a lower
    bound on the 2-norm, so this never passes where the exact 2-norm test
    fails.
    """
    m = np.asarray(m, dtype=np.complex128)
    if tol is None:
        tol = default_tol()
    scale = norm_lower_bound(m)
    return frobenius_norm(m - m.conj().T) <= tol * max(scale, 1.0)


@dataclass(frozen=True)
class BlockMatrix:
    """The 2x2 block matrix ``[[A0, W1], [W0, A1]]`` on H0 (+) H1.

    ``A0`` (n0 x n0) and ``A1`` (n1 x n1) are the diagonal blocks,
    ``W0`` (n1 x n0) maps H0 into H1 and ``W1`` (n0 x n1) maps H1 into H0.
    Instances are immutable. The expensive derived quantities (``full``,
    ``hermitian``, ``bitwise_hermitian``, ``eigh``, ``eigh_A``, ``eigvals``,
    ``norm``, ``norm_A``, ``norm_V``) are computed on first use and cached,
    arrays read-only; the ``*_part`` and ``assemble`` methods return fresh
    arrays.

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
    def eigh_A(self) -> tuple | None:
        """Read-only ``((w0, Q0), (w1, Q1))`` of ``eigh`` of A0 and A1.

        ``None`` unless both diagonal blocks are bitwise Hermitian.
        """
        if not (_bitwise_hermitian(self.A0) and _bitwise_hermitian(self.A1)):
            return None
        return tuple(
            (_readonly(w), _readonly(q))
            for w, q in (np.linalg.eigh(self.A0), np.linalg.eigh(self.A1))
        )

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
        """Exact ``norm(diag(A0, A1)) = max(norm(A0), norm(A1))``."""
        return max(_norm_2(self.A0), _norm_2(self.A1))

    @cached_property
    def norm_V(self) -> float:
        """Exact ``norm([[0, W1], [W0, 0]]) = max(norm(W0), norm(W1))``."""
        norm_w1 = operator_norm(self.W1)
        if np.array_equal(self.W0, self.W1.conj().T):
            return norm_w1
        return max(operator_norm(self.W0), norm_w1)

    def diagonal_part(self) -> np.ndarray:
        """Full matrix of the diagonal part ``A = diag(A0, A1)``."""
        n0, n1 = self.n0, self.n1
        a = np.zeros((n0 + n1, n0 + n1), dtype=np.complex128)
        a[:n0, :n0] = self.A0
        a[n0:, n0:] = self.A1
        return a

    def offdiagonal_part(self) -> np.ndarray:
        """Full matrix of the coupling part ``V = [[0, W1], [W0, 0]]``."""
        n0, n1 = self.n0, self.n1
        v = np.zeros((n0 + n1, n0 + n1), dtype=np.complex128)
        v[:n0, n0:] = self.W1
        v[n0:, :n0] = self.W0
        return v

    def swapped(self) -> "BlockMatrix":
        """Exchange the roles of H0 and H1 (permutation similarity)."""
        return BlockMatrix(A0=self.A1, A1=self.A0, W0=self.W1, W1=self.W0)


def assemble(b: BlockMatrix) -> np.ndarray:
    """Assemble the four blocks into the full dense matrix."""
    n0, n1 = b.n0, b.n1
    m = np.empty((n0 + n1, n0 + n1), dtype=np.complex128)
    m[:n0, :n0] = b.A0
    m[:n0, n0:] = b.W1
    m[n0:, :n0] = b.W0
    m[n0:, n0:] = b.A1
    return m


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


def is_symmetric_offdiag(b: BlockMatrix, tol: float | None = None) -> bool:
    """Whether the coupling is symmetric, ``W0 = W1*`` up to tolerance.

    Frobenius defect against a lower bound on ``norm(W1)``, so never looser
    than the exact 2-norm test.
    """
    if tol is None:
        tol = default_tol()
    defect = frobenius_norm(b.W0 - b.W1.conj().T)
    return defect <= tol * (1.0 + norm_lower_bound(b.W1))


@dataclass(frozen=True)
class SignatureJ:
    """The unitary involution ``J = diag(I_{n0}, -I_{n1})``."""

    n0: int
    n1: int

    def __post_init__(self):
        if self.n0 < 0 or self.n1 < 0:
            raise StructuralError("SignatureJ dimensions must be non-negative")

    @property
    def matrix(self) -> np.ndarray:
        d = np.ones(self.n0 + self.n1, dtype=np.complex128)
        d[self.n0:] = -1.0
        return np.diag(d)

    def conjugate(self, m) -> np.ndarray:
        """``J m J``, computed exactly by flipping off-diagonal block signs."""
        m = np.asarray(m, dtype=np.complex128)
        if m.shape != (self.n0 + self.n1,) * 2:
            raise StructuralError(
                f"matrix shape {m.shape} does not match J of size {self.n0 + self.n1}"
            )
        out = m.copy()
        out[: self.n0, self.n0:] *= -1.0
        out[self.n0:, : self.n0] *= -1.0
        return out
