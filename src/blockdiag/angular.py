"""Graph subspaces and angular operators.

A subspace that projects bijectively onto a coordinate block H0 or H1 is
the graph of a linear map X from that block into the other one; X is its
angular operator. Two angular operators combine into the off-diagonal
block operator Y whose invertibility properties decide whether the two
graphs are complementary. :func:`spectral_pair` finds the pair of the
invariant subspaces of B on either side of a threshold from the one
triangular form ``B = Z T Z*`` cached on B (``BlockMatrix.schur``): the
side below it is reordered to the front of T, and the side above is its
orthogonal complement on Hermitian B, else the span of
``Z [Y; I]`` for the solution Y of one triangular Sylvester equation.
:func:`spectral_graph` takes the side below only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.linalg

from .core import BlockMatrix, as_matrix, frobenius_norm, from_blocks, schur_diagonal
from .errors import HypothesisError, IllPosedRegionError, NotAGraphError
from .errors import NumericError, StructuralError
from .spectral import _ORTHO_TOL, Subspace, _guaranteed_invariant, invariant_subspace

#: Lower bound on sigma_min of the base-block component of a basis, and on
#: sigma_min(I + Y) of a complementary pair. Below this, forming X amplifies
#: relative error by more than 1e8 and the graph representation is
#: numerically meaningless.
GRAPH_SIGMA_TOL = 1e-8


class GraphBase(str, Enum):
    """Which coordinate block a graph subspace is based on."""

    H0 = "H0"
    H1 = "H1"


@dataclass(frozen=True)
class GraphSubspace:
    """Graph of the angular operator ``X`` over a coordinate block.

    For ``base = H0`` the subspace is ``{f (+) X f}`` with ``X: H0 -> H1``
    of shape (n1, n0); for ``base = H1`` it is ``{X g (+) g}`` with
    ``X: H1 -> H0`` of shape (n0, n1).
    """

    base: GraphBase
    X: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", GraphBase(self.base))
        object.__setattr__(self, "X", as_matrix(self.X, "X"))

    @cached_property
    def subspace(self) -> Subspace:
        """Orthonormal basis of the graph (:func:`from_graph`), computed once."""
        return from_graph(self)

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Read-only singular values of ``X``, descending, computed once."""
        return _singular_values(self.X)


@dataclass(frozen=True)
class AngularPair:
    """Angular operators of a pair of graphs over H0 and H1.

    ``X0`` maps H0 into H1 (shape n1 x n0) and ``X1`` maps H1 into H0
    (shape n0 x n1); ``Y`` is the assembled off-diagonal operator
    ``[[0, X1], [X0, 0]]``.
    """

    X0: np.ndarray
    X1: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X0", as_matrix(self.X0, "X0"))
        object.__setattr__(self, "X1", as_matrix(self.X1, "X1"))
        n1, n0 = self.X0.shape
        if self.X1.shape != (n0, n1):
            raise StructuralError(
                f"X1 must have shape {(n0, n1)} to pair with X0 {self.X0.shape}, "
                f"got {self.X1.shape}"
            )

    @property
    def n0(self) -> int:
        return self.X0.shape[1]

    @property
    def n1(self) -> int:
        return self.X0.shape[0]

    @cached_property
    def singular_values_X0(self) -> np.ndarray:
        """Read-only singular values of ``X0``, descending, computed once."""
        return _singular_values(self.X0)

    @cached_property
    def skew(self) -> bool:
        """Whether ``X1 = -X0*`` bitwise, so that Y is skew-Hermitian."""
        return np.array_equal(self.X1, -self.X0.conj().T)

    @cached_property
    def singular_values_I_plus_Y(self) -> np.ndarray:
        """Read-only singular values of ``I + Y``, descending, computed once.

        ``I - Y = J (I + Y) J`` with the unitary ``J = diag(I, -I)``, so they
        are the singular values of ``I - Y`` as well. A skew pair has a
        normal ``I + Y`` with eigenvalues ``1 +/- i s`` over the singular
        values s of X0, plus 1 for each of the ``|n0 - n1|`` null
        directions of Y: ``sqrt(1 + s^2)`` twice each, then ones, read off
        ``singular_values_X0``. Any other pair takes one SVD of ``I + Y``.
        """
        if not self.skew:
            return _singular_values(np.eye(self.n0 + self.n1) + self.Y)
        s = np.hypot(1.0, self.singular_values_X0)
        ones = np.ones(abs(self.n0 - self.n1))
        out = np.concatenate([np.repeat(s, 2), ones])
        out.flags.writeable = False
        return out

    @cached_property
    def factors_I_minus_Y2(self) -> tuple:
        """Factors of the diagonal blocks of ``I - Y^2``, computed once for
        every solve with them.

        ``Y^2 = diag(X1 X0, X0 X1)``, so ``I - Y^2 = diag(S0, S1)`` with
        ``S0 = I - X1 X0`` (n0 x n0) and ``S1 = I - X0 X1`` (n1 x n1). A skew
        pair's ``S0 = I + X0* X0`` and ``S1 = I + X0 X0*`` are Hermitian with
        eigenvalues at least 1: their lower Cholesky factors ``L_i``,
        ``S_i = L_i L_i*``. Any other pair's: the ``scipy.linalg.lu_factor``
        pair of each block.
        """
        s0 = np.eye(self.n0, dtype=np.complex128) - self.X1 @ self.X0
        s1 = np.eye(self.n1, dtype=np.complex128) - self.X0 @ self.X1
        factor = np.linalg.cholesky if self.skew else scipy.linalg.lu_factor
        return factor(s0), factor(s1)

    @cached_property
    def singular_values_X1(self) -> np.ndarray:
        """Read-only singular values of ``X1``: a skew pair's are those of X0."""
        return self.singular_values_X0 if self.skew else _singular_values(self.X1)

    @cached_property
    def norm_Y(self) -> float:
        """Exact ``norm(Y) = max(norm(X0), norm(X1))``.

        Y is block anti-diagonal; the norms come from ``singular_values_X0``
        and ``singular_values_X1``, one SVD for a skew pair.
        """
        s0, s1 = self.singular_values_X0, self.singular_values_X1
        return float(max(s0[0] if s0.size else 0.0, s1[0] if s1.size else 0.0))

    @property
    def Y(self) -> np.ndarray:
        return from_blocks(None, self.X1, self.X0, None)


def _singular_values(m: np.ndarray) -> np.ndarray:
    s = np.linalg.svd(m, compute_uv=False) if m.size else np.zeros(0)
    s.flags.writeable = False
    return s


@dataclass(frozen=True)
class ComplementarityReport:
    """Outcome of the complementarity test for a graph pair."""

    complementary: bool
    sigma_min: float
    norm_Y: float


def form_pair(X0, X1) -> AngularPair:
    """Pair two angular operators of conformable shapes."""
    return AngularPair(X0=X0, X1=X1)


def to_graph(u: Subspace, base: GraphBase | str) -> GraphSubspace:
    """Extract the angular operator of a subspace over a coordinate block.

    Requires ``u`` to carry its H0/H1 partition and to have the dimension
    of the base block. X solves ``X q_base = q_other`` by one LU solve,
    and one values-only SVD of X gives both ``GraphSubspace.singular_values``
    and the graph gate: since ``q_base* (I + X* X) q_base = I`` up to the
    Gram defect ``_ORTHO_TOL`` of ``u``, the smallest singular value of the
    base-block component is at least ``sqrt(1 - _ORTHO_TOL) / sqrt(1 +
    norm(X)^2)``, the value gated. Raises :class:`NotAGraphError` when it
    is at most :data:`GRAPH_SIGMA_TOL`, or when the component is exactly
    singular or X is not finite (gate value 0).
    """
    base = GraphBase(base)
    if u.n0 is None:
        raise StructuralError("subspace carries no H0/H1 partition (n0 is unset)")
    parts = (u.basis[: u.n0], u.basis[u.n0 :])
    q_base, q_other = parts if base is GraphBase.H0 else parts[::-1]
    if u.dim != len(q_base):
        raise StructuralError(
            f"subspace dimension {u.dim} does not match "
            f"dim({base.value}) = {len(q_base)}"
        )
    try:
        x = np.linalg.solve(q_base.T, q_other.T).T
    except np.linalg.LinAlgError:
        x = np.full(q_other.shape, np.inf)
    s = _singular_values(x) if np.all(np.isfinite(x)) else np.array([np.inf])
    smin = float(np.sqrt(1.0 - _ORTHO_TOL) / np.hypot(1.0, np.max(s, initial=0.0)))
    if smin <= GRAPH_SIGMA_TOL:
        raise NotAGraphError(
            f"subspace is not a graph over {base.value}: sigma_min({base.value} "
            f"component) = {smin:.3e} <= {GRAPH_SIGMA_TOL:.0e}",
            sigma_min=smin,
        )
    graph = GraphSubspace(base=base, X=x)
    graph.__dict__["singular_values"] = s
    return graph


def graph_pair(g0: GraphSubspace, g1: GraphSubspace | None = None) -> AngularPair:
    """The pair of graph(X0) over H0 and ``g1`` over H1, or graph(-X0*) if None.

    The singular values the graphs carry (those :func:`to_graph` measured)
    seed the pair's ``singular_values_X0`` and ``singular_values_X1``.
    """
    pair = form_pair(g0.X, -g0.X.conj().T if g1 is None else g1.X)
    pair.__dict__["singular_values_X0"] = g0.singular_values
    pair.__dict__["singular_values_X1"] = (g0 if g1 is None else g1).singular_values
    return pair


def from_graph(g: GraphSubspace) -> Subspace:
    """Orthonormal basis of the graph subspace (QR of the stacked columns)."""
    x = g.X
    if g.base is GraphBase.H0:
        n1, n0 = x.shape
        stacked = np.vstack([np.eye(n0, dtype=np.complex128), x])
    else:
        n0, n1 = x.shape
        stacked = np.vstack([x, np.eye(n1, dtype=np.complex128)])
    if stacked.shape[1] == 0:
        return Subspace(basis=np.zeros((n0 + n1, 0)), n0=n0)
    q, _ = np.linalg.qr(stacked)
    return Subspace(basis=q, n0=n0)


def check_complementary(p: AngularPair) -> ComplementarityReport:
    """Complementarity of the graph pair: sigma_min(I + Y) > GRAPH_SIGMA_TOL.

    ``I + Y`` and ``I - Y`` are unitarily similar (conjugation by the
    signature J), so either one decides. A contraction ``norm(Y) < 1``
    forces complementarity; this consistency is re-asserted numerically.
    The singular values of ``I + Y`` are cached on the pair, where the
    condition numbers of ``I -/+ Y`` read them too.
    """
    smin = float(p.singular_values_I_plus_Y[-1])
    norm_y = p.norm_Y
    complementary = smin > GRAPH_SIGMA_TOL
    if norm_y < 1.0 - GRAPH_SIGMA_TOL and not complementary:
        raise NumericError(
            "contractive Y reported non-complementary; numeric inconsistency",
            diagnostics={"sigma_min": smin, "norm_Y": norm_y},
        )
    return ComplementarityReport(
        complementary=complementary, sigma_min=smin, norm_Y=norm_y
    )


def _side_below(b: BlockMatrix, mu: float) -> tuple[GraphSubspace, tuple]:
    """graph(X0) of the invariant subspace of B below mu, and the cached
    triangular form of B reordered so that its eigenvalues lead. On
    Hermitian B only the eigenvectors below mu are formed."""
    h = b.staged_eigh if b.hermitian else None
    form = b.schur if h is None else (h.w, h.vectors(int(np.count_nonzero(h.w < mu))))
    below, form = invariant_subspace(b.full, form, schur_diagonal(form[0]).real < mu, b.norm)
    if below.dim != b.n0:
        raise HypothesisError(
            f"threshold {mu} captures {below.dim} eigenvalues below it, "
            f"but dim(H0) = {b.n0}"
        )
    return to_graph(below.with_partition(b.n0), GraphBase.H0), form


def spectral_graph(b: BlockMatrix, mu: float) -> GraphSubspace:
    """graph(X0) over H0 of the invariant subspace of B below mu.

    The side of :func:`spectral_pair` below mu, with its guarantees,
    without the side above.
    """
    return _side_below(b, mu)[0]


def spectral_pair(b: BlockMatrix, mu: float) -> AngularPair:
    """Angular pair from the invariant subspaces on both sides of mu.

    Both sides come from the triangular form ``B = Z T Z*`` cached on B,
    reordered so that the n0 eigenvalues below mu lead (:func:`spectral_graph`
    and :func:`~blockdiag.spectral.invariant_subspace`). A Hermitian
    B, whose T is diagonal, pairs X0 with ``X1 = -X0*``: the side above is
    graph(X0)^⊥ = graph(-X0*), with the same region gap and invariance
    residual. On other input the side above is spanned by ``Z [Y; I]``,
    where ``T11 Y - Y T22 = -T12`` (Bartels-Stewart, one ``ztrsyl``), and
    is gated on its invariance residual too. Its basis ``[Y; I]`` has
    smallest singular value ``1 / sqrt(1 + norm(Y)^2)``, at least
    ``1 / sqrt(1 + norm_F(Y)^2)``; by Stewart (SIAM Review 15, 1973)
    ``norm(Y) <= norm(T12) / sep(T11, T22)``. The side is refused with
    :class:`IllPosedRegionError` when that bound is at most
    :data:`GRAPH_SIGMA_TOL`, or when ``ztrsyl`` fails or scales its
    solution down.
    """
    g0, (t, z) = _side_below(b, mu)
    k = b.n0
    if t.ndim == 1 or 0 in (k, b.n1):  # an empty side is graph(-X0*) too
        return graph_pair(g0)
    y, scale, info = scipy.linalg.lapack.ztrsyl(t[:k, :k], t[k:, k:], -t[:k, k:], isgn=-1)
    sigma = 1.0 / np.hypot(1.0, frobenius_norm(y))
    if info != 0 or scale < 1.0 or not sigma > GRAPH_SIGMA_TOL:
        raise IllPosedRegionError(
            f"the invariant subspace above {mu} has an ill-conditioned basis: "
            f"1 / sqrt(1 + norm_F(Y)^2) = {sigma:.3e} <= {GRAPH_SIGMA_TOL:.0e} "
            f"(ztrsyl scale {scale:.3e}, info {info})"
        )
    q, _ = np.linalg.qr(z[:, :k] @ y + z[:, k:])
    above = _guaranteed_invariant(b.full, Subspace(basis=q, n0=k), b.norm)
    return graph_pair(g0, to_graph(above, GraphBase.H1))
