"""Graph subspaces and angular operators.

A subspace that projects bijectively onto a coordinate block H0 or H1 is
the graph of a linear map X from that block into the other one; X is its
angular operator. Two angular operators combine into the off-diagonal
block operator Y whose invertibility properties decide whether the two
graphs are complementary.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .core import as_matrix, from_blocks
from .errors import NotAGraphError, NumericError, StructuralError
from .spectral import Subspace

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
    def singular_values_I_plus_Y(self) -> np.ndarray:
        """Read-only singular values of ``I + Y``, descending, computed once.

        ``I - Y = J (I + Y) J`` with the unitary ``J = diag(I, -I)``, so they
        are the singular values of ``I - Y`` as well.
        """
        return _singular_values(np.eye(self.n0 + self.n1) + self.Y)

    @cached_property
    def norm_Y(self) -> float:
        """Exact ``norm(Y) = max(norm(X0), norm(X1))``.

        Y is block anti-diagonal; ``norm(X0)`` comes from
        ``singular_values_X0`` and ``norm(X1)`` from one SVD of X1.
        """
        s0 = self.singular_values_X0
        s1 = _singular_values(self.X1)
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
    of the base block. Raises :class:`NotAGraphError` when the base-block
    component of the basis is (numerically) singular, that is when its
    sigma_min is at most :data:`GRAPH_SIGMA_TOL`. One SVD of that
    component gives both the gate value sigma_min and X.
    """
    base = GraphBase(base)
    if u.n0 is None:
        raise StructuralError("subspace carries no H0/H1 partition (n0 is unset)")
    n0 = u.n0
    n1 = u.ambient_dim - n0
    base_dim = n0 if base is GraphBase.H0 else n1
    if u.dim != base_dim:
        raise StructuralError(
            f"subspace dimension {u.dim} does not match dim({base.value}) = {base_dim}"
        )
    if base is GraphBase.H0:
        q_base, q_other = u.basis[:n0, :], u.basis[n0:, :]
    else:
        q_base, q_other = u.basis[n0:, :], u.basis[:n0, :]
    if base_dim == 0:
        return GraphSubspace(base=base, X=np.zeros((u.ambient_dim, 0)))
    u_base, s, vh = np.linalg.svd(q_base)
    smin = float(s[-1])
    if smin <= GRAPH_SIGMA_TOL:
        raise NotAGraphError(
            f"subspace is not a graph over {base.value}: sigma_min({base.value} "
            f"component) = {smin:.3e} <= {GRAPH_SIGMA_TOL:.0e}",
            sigma_min=smin,
        )
    # X q_base = q_other with q_base = U S V*, so X = (q_other V) S^-1 U*
    x = ((q_other @ vh.conj().T) / s) @ u_base.conj().T
    return GraphSubspace(base=base, X=x)


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
