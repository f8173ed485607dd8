"""Dense complex matrices and the 2x2 block-matrix data model.

Every operator in the toolkit is carried by a dense ``numpy`` array with
complex128 entries; the block structure lives in :class:`BlockMatrix`,
which stores the four blocks of ``[[A0, W1], [W0, A1]]`` immutably and
caches one triangular factorization ``B = Z T Z*`` of the assembled matrix,
off which every spectral quantity is read. Hermitian means bitwise
Hermitian: a B, or else a ``diag(A0, A1)``, that is Hermitian only to
tolerance is stored as its Hermitian part, once, at construction, and the
distance moved is kept as ``BlockMatrix.slack``. On Hermitian B the
factorization is its eigendecomposition, one :class:`StagedEigh`, which
forms only the leading eigenvectors a route reads; on other B one complex
Schur form (:func:`triangular_form`). The ``eigh`` of B is the
:class:`StagedEigh` on any input. Every other Hermitian eigensolve with
eigenvectors, of a half-size matrix or of a pencil, runs through
:func:`hermitian_eigh`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import ResolventError, StructuralError

#: Baseline tolerance used for rank decisions and spectral bands.
DEFAULT_TOL = 1e-10

# The scale rule of every gate: a gate passes when ``value <= tol * scale``,
# and a gate on a separation refuses when ``value <= tol * scale``, with
# ``scale`` the exact norm, or a lower bound on the norm, of what is
# measured. There is no absolute floor, so B and 2^k B get one verdict, and
# B = 0 admits a zero residual and refuses a zero gap. Reported relative
# values are :func:`relative`.

#: Multiple of ``n * eps`` that a rounding floor leaves for the rounding of
#: the products, norms and eigensolves its proof skips: the spectrum proof
#: of an empty kernel piece, the bands, and the Dirac and spectral-identity
#: certificates (README "Numerics notes").
KERNEL_PROOF_ROUNDING = 16.0


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


def relative(value: float, scale: float) -> float:
    """``value / scale``; over a zero scale, 0 stays 0 and anything else is inf."""
    if scale == 0.0:
        return 0.0 if value == 0.0 else math.inf
    return value / scale


#: Smallest norm taken from the plain sum of squares; below it, entries whose
#: squares are subnormal could carry weight in the sum.
_PLAIN_NORM_MIN = 2.0**-400


def frobenius_norm(m) -> float:
    """Frobenius norm of ``m``: an upper bound on its 2-norm, used by gates.

    The plain sum of squares overflows once entries pass about 1e154 and
    underflows below about 1e-154. An infinite plain norm, or one below
    2^-400, is therefore recomputed over ``m`` scaled by the power of two
    that brings its largest part into ``[1/2, 1)``: the same sum of squares,
    exactly scaled, so ``norm_F(2^k m) = 2^k norm_F(m)`` whenever both are
    normal floats.
    """
    m = np.asarray(m, dtype=np.complex128)
    with np.errstate(over="ignore", under="ignore"):
        value = float(np.linalg.norm(m))
        if _PLAIN_NORM_MIN <= value < math.inf:
            return value
        # the element order np.linalg.norm sums in, as real and imaginary parts
        parts = m.ravel(order="K").view(np.float64)
        peak = float(np.max(np.abs(parts), initial=0.0))
        if not 0.0 < peak < math.inf:
            return value
        e = math.frexp(peak)[1]
        scaled = np.ldexp(parts, -e).view(np.complex128)
        return float(np.ldexp(np.linalg.norm(scaled), e))


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


def hermitian_eigh(m, s=None) -> tuple[np.ndarray, np.ndarray]:
    """``(w, v)``: ascending eigenvalues and eigenvectors of the Hermitian
    ``m``, or of the pencil ``m v = w s v`` with ``v* s v = I`` for a
    positive definite ``s``; each matrix is read from its lower triangle.

    A matrix takes one :class:`StagedEigh` with every eigenvector formed,
    read-only. A pencil takes LAPACK ``zhegvd`` (divide and conquer), given
    its minimum workspace ``n^2 + 2n`` plus the ``64 n + 65 * 64`` that the
    blocked ``zunmtr`` of its eigenvector back-transform needs at LAPACK's
    largest block size. With the minimum alone, which ``scipy.linalg.eigh``
    passes, the back-transform runs unblocked (README "Numerics notes"). A
    failed solve, or an ``s`` that is not positive definite, raises
    ``np.linalg.LinAlgError``; a non-finite pencil raises ``ValueError``.
    """
    n = len(m)
    if s is None:
        staged = StagedEigh(m)
        return staged.w, staged.vectors(n)
    if not (np.isfinite(m).all() and np.isfinite(s).all()):
        raise ValueError("pencil contains non-finite entries")
    if n == 0:
        return np.empty(0), np.empty((0, 0), np.complex128)
    w, v, info = scipy.linalg.lapack.zhegvd(m, s, lwork=n * n + 66 * n + 65 * 64)
    if info:
        raise np.linalg.LinAlgError(f"Hermitian eigensolve failed (LAPACK info {info})")
    return w, v


class StagedEigh:
    """A Hermitian eigensolve whose eigenvectors are formed on demand.

    The stages of LAPACK ``zheevd``, on the lower triangle of ``m``:
    ``zhetrd`` reduces ``m`` to a real tridiagonal, ``dstevd`` (the
    ``dstedc`` that ``zheevd`` runs) gives the ascending eigenvalues ``w``
    and the tridiagonal's eigenvectors, and ``zunmqr`` applies the
    reflectors of ``zhetrd`` only to the leading columns :meth:`vectors`
    asks for, which cost in proportion to their number. On input that
    neither scales, ``w`` is bitwise ``zheevd``'s, and so are the columns of
    a first request; those of a later, extending one may differ by rounding.
    The reflectors are held packed, below the diagonal only, and the
    tridiagonal eigenvectors only for the columns not yet formed, so that no
    n x n complex array is held until every column is. A matrix whose
    largest part lies outside the range that ``zheevd`` factors unscaled,
    ``sqrt(tiny / eps)`` to its inverse, is scaled by a power of two,
    exactly, and ``w`` scaled back. A failed stage raises
    ``np.linalg.LinAlgError``.
    """

    def __init__(self, m: np.ndarray):
        n, info, lapack = len(m), 0, scipy.linalg.lapack
        parts = np.ascontiguousarray(m).view(np.float64)
        peak = max(parts.max(initial=0.0), -parts.min(initial=0.0))
        # zheevd factors a largest entry from sqrt(tiny / eps) = 2^-485 to
        # its inverse unscaled
        e = -math.frexp(peak)[1] if peak and not 2.0**-485 <= peak <= 2.0**485 else 0
        a = np.ldexp(parts, e).view(np.complex128) if e else m
        # below 2 x 2: w is the diagonal and v the identity
        w, self._v = np.diagonal(a).real, np.eye(n, n * (n < 2), dtype=np.complex128)
        if n > 1:
            lwork = int(lapack.zhetrd_lwork(n, lower=1)[0].real)
            c, d, sub, tau, info = lapack.zhetrd(a, lower=1, lwork=lwork)
            w, z, info = (d, None, info) if info else lapack.dstevd(d, sub)
            # the reflectors: zunmtr's A(2, 1) below its unit diagonal, which
            # zunmqr does not read, packed column by column (a mask on its transpose)
            self._stages = c[1:, :-1].T[np.tri(n - 1, k=-1, dtype=bool).T], tau, z
        if info:
            raise np.linalg.LinAlgError(f"Hermitian eigensolve failed (LAPACK info {info})")
        self.w = _readonly(np.ldexp(w, -e))

    def vectors(self, k: int) -> np.ndarray:
        """Read-only first ``k`` eigenvectors (columns). Columns formed by an
        earlier call are kept and extended, never formed again; the
        reflectors and tridiagonal eigenvectors are dropped once every
        column is formed."""
        have, lapack = self._v.shape[1], scipy.linalg.lapack
        if k > have:
            packed, tau, z = self._stages
            n, new = len(z), k - have
            a = np.zeros((n - 1, n - 1), np.complex128, order="F")
            a.T[np.tri(n - 1, k=-1, dtype=bool).T] = packed
            v = np.empty((n, k), np.complex128, order="F")
            v[:, :have], v[0, have:] = self._v, z[0, :new]
            rows = z[1:, :new].astype(np.complex128, order="F")
            lwork = int(lapack.zunmqr("L", "N", a, tau, rows, -1, 1)[1][0].real)
            v[1:, have:], _, info = lapack.zunmqr("L", "N", a, tau, rows, lwork, 1)
            if info:
                raise np.linalg.LinAlgError(f"eigenvector back-transform failed (info {info})")
            self._v = _readonly(v)
            self._stages = (packed, tau, z[:, new:].copy("F")) if k < n else None
        return self._v[:, :k]


def triangular_form(m) -> tuple[np.ndarray, np.ndarray]:
    """``(T, Z)`` with ``m = Z T Z*``, T upper triangular and Z unitary.

    A bitwise-Hermitian ``m`` takes :func:`hermitian_eigh`: T is then
    diagonal, real and ascending, and is returned as the vector of its
    diagonal. Any other ``m`` takes one unsorted complex Schur form.
    """
    if _bitwise_hermitian(m):
        return hermitian_eigh(m)
    return scipy.linalg.schur(m, output="complex")


def schur_diagonal(t: np.ndarray) -> np.ndarray:
    """The diagonal of a triangular form's T, which may be given as that vector."""
    return t if t.ndim == 1 else np.diagonal(t)


def _extreme_magnitude(w: np.ndarray) -> float:
    """Largest magnitude of an ascending real eigenvalue list."""
    return float(max(abs(w[0]), abs(w[-1])))


def _sigma_min(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def shift_distance(spec: np.ndarray, lam: complex) -> float:
    """``min |spec - lam|``: inf for an empty spectrum, or past the float range."""
    with np.errstate(over="ignore"):
        return float(np.min(np.abs(spec - lam), initial=math.inf))


def check_shifts(lams, spec: np.ndarray, scale: float, tol: float, what: str) -> None:
    """Refuse resolvent shifts: a non-finite one as an input error, and one
    within ``tol * scale`` of ``spec`` (``what``) with :class:`ResolventError`."""
    for lam in lams:
        if not cmath.isfinite(lam):
            raise StructuralError(f"shift {lam} is not finite")
        dist = shift_distance(spec, lam)
        if dist <= tol * scale:
            raise ResolventError(
                f"shift {lam} is within {dist:.3e} of {what} (norm {scale:.3e})"
            )


@dataclass(frozen=True)
class BlockMatrix:
    """The 2x2 block matrix ``[[A0, W1], [W0, A1]]`` on H0 (+) H1.

    ``A0`` (n0 x n0) and ``A1`` (n1 x n1) are the diagonal blocks,
    ``W0`` (n1 x n0) maps H0 into H1 and ``W1`` (n0 x n1) maps H1 into H0.
    Instances are immutable. The derived quantities (``full``,
    ``hermitian_A``, ``symmetric_V``, ``schur``, ``staged_eigh``, ``eigh``,
    ``eigh_A``, ``eigvalsh_A``, ``eigvals``, ``norm``, ``norm_A``,
    ``norm_V``) are computed on first use and cached, arrays read-only;
    ``assemble`` returns a fresh array.

    Construction stores input that is Hermitian to tolerance as Hermitian.
    A matrix M is Hermitian to tolerance when
    ``norm_F(M - M*) <= DEFAULT_TOL * norm_F(M) / sqrt(dim)``: the defect
    is a Frobenius norm and the scale a lower bound on the 2-norm, so this
    never passes where the exact test ``norm(M - M*) <= DEFAULT_TOL norm(M)``
    fails, and ``2^k M`` gets the verdict of M. A B that passes is stored as
    ``(B + B*) / 2``; otherwise, when ``diag(A0, A1)`` passes, A0 and A1
    are stored as their Hermitian parts. Each piece of ``B = B*``
    (``A0 = A0*``, ``A1 = A1*``, ``W0 = W1*``) that holds bitwise is stored
    as given, bit for bit. ``slack`` is ``norm_F`` of the input minus the
    stored blocks, 0 when nothing moved. ``hermitian`` is then the one
    Hermiticity of B: bitwise equality with its conjugate transpose.

    ``schur`` is the one spectral factorization of B: one
    :class:`StagedEigh` on Hermitian input, whose T is diagonal, and one
    complex Schur form on every other input. On Hermitian B the routes form
    only the eigenvectors they read (``staged_eigh``), and ``eigvals``,
    ``norm`` and ``sigma_min_shifted`` form none.
    """

    A0: np.ndarray
    A1: np.ndarray
    W0: np.ndarray
    W1: np.ndarray

    def __post_init__(self):
        names = ("A0", "A1", "W0", "W1")
        blocks = [as_matrix(getattr(self, name), name) for name in names]
        n0, n1 = blocks[0].shape[0], blocks[1].shape[0]
        for name, m, shape in zip(names, blocks, ((n0, n0), (n1, n1), (n1, n0), (n0, n1))):
            if m.shape != shape:
                raise StructuralError(f"{name} must have shape {shape}, got {m.shape}")
        pieces = ((0, 0), (1, 1), (2, 3))  # A0 = A0*, A1 = A1*, W0 = W1*
        exact = [np.array_equal(blocks[i], blocks[j].conj().T) for i, j in pieces]
        stored, moved = (), []
        if not all(exact):
            # the tests of B, else of diag(A0, A1), by blocks, on the blocks
            # scaled by the power of two that brings the largest entry into
            # [1/2, 1): nothing overflows, and 2^k B gets the verdict of B
            peak = max(float(np.max(np.abs(m.view(np.float64)), initial=0.0)) for m in blocks)
            e = np.frexp(peak)[1]
            s = [np.ldexp(m.view(np.float64), -e).view(np.complex128) for m in blocks]
            bounds = [DEFAULT_TOL * frobenius_norm(m) / math.sqrt(n0 + n1) for m in s]
            defects = [frobenius_norm(s[i] - s[j].conj().T) for i, j in pieces]
            defects[2] *= math.sqrt(2.0)  # norm_F(B - B*) has W0 - W1* and W1 - W0*
            for k, n in ((3, 4), (2, 2)):  # B, else diag(A0, A1)
                if math.hypot(*defects[:k]) <= math.hypot(*bounds[:n]):
                    stored = pieces[:k]
                    break
        for (i, j), same in zip(stored, exact):
            if not same:
                h = np.ldexp((0.5 * (s[i] + s[j].conj().T)).view(np.float64), e).view(np.complex128)
                # one entry for A0 and A1 (i = j), whose part is h* = h bitwise
                for index, part in {i: h, j: h.conj().T}.items():
                    moved.append(frobenius_norm(blocks[index] - part))
                    blocks[index] = _readonly(np.ascontiguousarray(part))
        for name, m in zip(names, blocks):
            object.__setattr__(self, name, m)
        object.__setattr__(self, "slack", math.hypot(*moved))
        object.__setattr__(self, "hermitian", bool(n0 + n1) and (all(exact) or len(stored) == 3))

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
        return _readonly(from_blocks(self.A0, self.W1, self.W0, self.A1))

    @cached_property
    def schur(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(T, Z)`` with ``B = Z T Z*`` of the assembled matrix.

        On Hermitian B it is ``eigh``: T is the vector of the
        ascending eigenvalues and Z their eigenvectors, every one formed.
        Other B takes :func:`triangular_form`.
        """
        if self.hermitian:
            return self.eigh
        t, z = triangular_form(self.full)
        return _readonly(t), _readonly(z)

    @cached_property
    def staged_eigh(self) -> StagedEigh:
        """The :class:`StagedEigh` of the assembled matrix: its eigenvalues
        ``w`` and the first k eigenvectors ``vectors(k)``, each column
        back-transformed when first read. Like ``numpy.linalg.eigh`` it reads
        the lower triangle only; it is the eigendecomposition of B when B is
        Hermitian. The routes that read some eigenvectors of a
        Hermitian B read them here, and ``eigvals`` none."""
        return StagedEigh(self.full)

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(w, v)`` of ``staged_eigh`` with every eigenvector.

        A Hermitian B shares it with ``schur``.
        """
        return self.staged_eigh.w, self.staged_eigh.vectors(self.dim)

    @cached_property
    def hermitian_A(self) -> bool:
        """Whether A0 and A1 both equal their conjugate transposes bitwise."""
        return _bitwise_hermitian(self.A0) and _bitwise_hermitian(self.A1)

    @cached_property
    def eigh_A(self) -> tuple | None:
        """Read-only ``((w0, Q0), (w1, Q1))`` of :func:`hermitian_eigh` of A0 and A1.

        ``None`` unless both diagonal blocks are Hermitian (``hermitian_A``).
        """
        if not self.hermitian_A:
            return None
        return hermitian_eigh(self.A0), hermitian_eigh(self.A1)

    @cached_property
    def eigvalsh_A(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ascending eigenvalues ``(w0, w1)`` of A0 and A1.

        Values only: read off ``eigh_A`` when that is cached, otherwise one
        ``eigvalsh`` per block. Like ``eigvalsh`` this reads the lower
        triangles, so it is the spectra of A0 and A1 when they are
        Hermitian; callers gate on ``hermitian_A`` first.
        """
        if self.__dict__.get("eigh_A") is not None:
            return tuple(w for w, _ in self.eigh_A)
        return tuple(_readonly(np.linalg.eigvalsh(a)) for a in (self.A0, self.A1))

    @cached_property
    def eigvals(self) -> np.ndarray:
        """Read-only eigenvalues of the assembled matrix, complex, (Re, Im) sorted.

        They are the diagonal of the cached ``schur``; on Hermitian B
        they are the real (zero imaginary parts) ascending eigenvalues, read
        with no eigenvector formed.
        """
        t = self.staged_eigh.w if self.hermitian else self.schur[0]
        w = schur_diagonal(t).astype(np.complex128)
        return _readonly(w[np.lexsort((w.imag, w.real))])

    @cached_property
    def norm(self) -> float:
        """Exact 2-norm of the assembled matrix.

        For Hermitian B it is the largest eigenvalue magnitude,
        read off ``eigvals`` with no eigenvector formed; otherwise one SVD.
        """
        if self.hermitian:
            return _extreme_magnitude(self.eigvals.real)
        return operator_norm(self.full)

    def sigma_min_shifted(self, lam: complex) -> float:
        """Smallest singular value of ``B - lam``.

        B normal makes it the distance of ``lam`` from spec(B), so a
        Hermitian B reads it off the cached eigenvalues; other
        input takes one SVD.
        """
        lam = complex(lam)
        if self.hermitian:
            return shift_distance(self.eigvals, lam)
        return _sigma_min(self.full - lam * np.eye(self.dim))

    def sigma_min_shifted_A(self, lam: complex) -> float:
        """Smallest singular value of ``A - lam`` for ``A = diag(A0, A1)``.

        With ``eigh_A`` available it is the distance of ``lam`` from
        ``spec(A0) ∪ spec(A1)``. Otherwise it is the smaller of the two
        blocks' values: a block-diagonal matrix has the singular values of
        its blocks, so one SVD per block, none of the dense ``A - lam``.
        """
        lam = complex(lam)
        if self.eigh_A is not None:
            (w0, _), (w1, _) = self.eigh_A
            return shift_distance(np.concatenate([w0, w1]), lam)
        return min(_sigma_min(a - lam * np.eye(len(a))) for a in (self.A0, self.A1))

    @cached_property
    def norm_A(self) -> float:
        """Exact ``norm(diag(A0, A1)) = max(norm(A0), norm(A1))``.

        Hermitian blocks read it off ``eigvalsh_A``; other blocks
        take one SVD each.
        """
        if self.hermitian_A:
            return max(_extreme_magnitude(w) for w in self.eigvalsh_A)
        return max(operator_norm(self.A0), operator_norm(self.A1))

    @cached_property
    def symmetric_V(self) -> bool:
        """Whether the coupling is symmetric, ``W0 = W1*`` bitwise."""
        return np.array_equal(self.W0, self.W1.conj().T)

    @cached_property
    def norm_V(self) -> float:
        """Exact ``norm([[0, W1], [W0, 0]]) = max(norm(W0), norm(W1))``."""
        norm_w1 = operator_norm(self.W1)
        if self.symmetric_V:
            return norm_w1
        return max(operator_norm(self.W0), norm_w1)

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
