"""The one triangular form of B and the subspaces read off it.

``B = Z T Z*`` is built from a Haar unitary Z and an upper-triangular T
whose diagonal is split by real part at mu = 0 with gap g and whose strict
part has Frobenius norm at most g/4, so that sep(T11, T22) >= g - g/4 - g/4
= g/2 once T is reordered. The side below mu (``ztrsen``) and the side
above it (``ztrsyl``) must then span the subspaces of a sorted Schur form,
made here only, to within ``1e3 dim eps norm(B) / g``. The negative
controls are refused by the region-gap gate and by the basis-condition
gate.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blockdiag import (
    BlockMatrix,
    angular,
    form_pair,
    spectral_graph,
    spectral_pair,
    verify_resolvent_invariance,
)
from blockdiag.angular import GraphBase, GraphSubspace
from blockdiag.core import shift_distance
from blockdiag.errors import IllPosedRegionError, NotAGraphError

PROPERTY = settings(max_examples=60, deadline=None)
EPS = np.finfo(float).eps

seeds = st.integers(0, 2**32 - 1)
sides = st.integers(1, 5)


def _cmat(rng, r, c):
    return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))


def _haar(rng, n):
    q, r = np.linalg.qr(_cmat(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _block(m, n0) -> BlockMatrix:
    return BlockMatrix(m[:n0, :n0], m[n0:, n0:], m[n0:, :n0], m[:n0, n0:])


def _split_form(rng, n0, n1, gap):
    """Upper-triangular T with n0 eigenvalues at real part <= -gap/2 and n1
    at >= gap/2, in random order, and a strict part of Frobenius norm gap/4."""
    below = -gap / 2 - rng.uniform(0.0, 1.0, n0) + 1j * rng.uniform(-1.0, 1.0, n0)
    above = gap / 2 + rng.uniform(0.0, 1.0, n1) + 1j * rng.uniform(-1.0, 1.0, n1)
    strict = np.triu(_cmat(rng, n0 + n1, n0 + n1), 1)
    if strict.any():
        strict *= gap / 4 / np.linalg.norm(strict)
    return np.diag(rng.permutation(np.concatenate([below, above]))) + strict


def _projector_distance(p, q) -> float:
    return float(np.linalg.norm(p @ p.conj().T - q @ q.conj().T, 2))


def _sorted_schur_basis(m, select, k):
    _, z, sdim = scipy.linalg.schur(m, output="complex", sort=select)
    assert sdim == k
    return z[:, :k]


@PROPERTY
@given(seeds, sides, sides, st.floats(-3.0, 0.0))
def test_both_sides_span_the_sorted_schur_subspaces(seed, n0, n1, log_gap):
    rng = np.random.default_rng(seed)
    gap = 10.0**log_gap
    z = _haar(rng, n0 + n1)
    m = z @ _split_form(rng, n0, n1, gap) @ z.conj().T
    b = _block(m, n0)
    assert not b.hermitian
    form = [a.copy() for a in b.schur]
    captured, to_graph = [], angular.to_graph
    with mock.patch.object(
        angular, "to_graph", lambda u, base: captured.append(u) or to_graph(u, base)
    ):
        try:
            spectral_pair(b, 0.0)
        except NotAGraphError:
            assume(False)
    below, above = (u.basis for u in captured)
    # the reordering works on copies: the cached form is as it was made
    for cached, made in zip(b.schur, form):
        np.testing.assert_array_equal(cached, made)
    bound = 1e3 * b.dim * EPS * np.linalg.norm(m, 2) / gap
    reference_below = _sorted_schur_basis(m, lambda x: x.real < 0.0, n0)
    reference_above = _sorted_schur_basis(m, lambda x: x.real >= 0.0, n1)
    assert _projector_distance(below, reference_below) <= bound
    assert _projector_distance(above, reference_above) <= bound


@settings(max_examples=20, deadline=None)
@given(seeds, st.integers(2, 5), sides)
def test_eigenvalues_close_across_mu_are_refused_by_the_region_gap(seed, n0, n1):
    """The eigenvalues -d/2 and d/2, d = 1e-10 < 1e-9 norm(B), next to the
    split form's others (one at least, which sets the norm), with a strict
    part of Frobenius norm d/4."""
    rng = np.random.default_rng(seed)
    d = 1e-10
    diag = np.diag(_split_form(rng, n0, n1, 1.0)).copy()
    diag[np.argmax(np.where(diag.real < 0.0, diag.real, -np.inf))] = -d / 2
    diag[np.argmin(np.where(diag.real > 0.0, diag.real, np.inf))] = d / 2
    strict = np.triu(_cmat(rng, n0 + n1, n0 + n1), 1)
    if strict.any():
        strict *= d / 4 / np.linalg.norm(strict)
    z = _haar(rng, n0 + n1)
    m = z @ (np.diag(diag) + strict) @ z.conj().T
    assert d < 1e-9 * np.linalg.norm(m, 2)
    for route in (spectral_pair, spectral_graph):
        with pytest.raises(IllPosedRegionError, match="separated by only"):
            route(_block(m, n0), 0.0)


@pytest.mark.parametrize("gap, refused", [(1e-2, False), (1e-4, True)])
def test_an_ill_conditioned_side_above_is_refused_by_the_basis_gate(gap, refused):
    """Jordan-like diagonal blocks ``T11 = -g + J``, ``T22 = g + J`` keep the
    eigenvalue gap 2g far above the region-gap gate, but
    ``sep(T11, T22) = 4 g^2`` about, so ``norm(T12) / sep`` is about 5e5 at
    g = 1e-2 and 5e11 at g = 1e-4, where ``norm(Y)`` passes 1e8. The side
    below mu, which takes no ``ztrsyl``, is a graph either way."""
    rng = np.random.default_rng(0)
    jordan = np.diag([1.0], 1)
    t = np.block(
        [[-gap * np.eye(2) + jordan, np.ones((2, 2))], [np.zeros((2, 2)), gap * np.eye(2) + jordan]]
    )
    z = _haar(rng, 4)
    b = _block(z @ t @ z.conj().T, 2)
    assert spectral_graph(b, 0.0).X.shape == (2, 2)
    if refused:
        with pytest.raises(IllPosedRegionError, match="ill-conditioned basis"):
            spectral_pair(b, 0.0)
    else:
        assert spectral_pair(b, 0.0).X1.shape == (2, 2)


@PROPERTY
@given(seeds, sides, sides, st.floats(0.0, 0.5))
def test_triangular_resolvent_sweep_is_the_dense_defect_times_the_spectral_distance(
    seed, n0, n1, size
):
    """On general B the sweep solves with T - lam in Schur coordinates. Each
    entry is the dense defect ``norm_F((I - QQ*) (B - lam)^{-1} Q)`` times
    ``dist(lam, spec B)``, which is at least ``sigma_min(B - lam)``: never
    below the defect relative to the resolvent's norm."""
    rng = np.random.default_rng(seed)
    m = _cmat(rng, n0 + n1, n0 + n1)
    b = _block(m, n0)
    pair = form_pair(size * _cmat(rng, n1, n0), size * _cmat(rng, n0, n1))
    scale = np.linalg.norm(m, 2)
    lams = [complex(rng.uniform(-2, 2) * scale, rng.uniform(0.2, 2) * scale) for _ in range(2)]
    sweep = verify_resolvent_invariance(b, pair, lams)
    graphs = (GraphSubspace(GraphBase.H0, pair.X0), GraphSubspace(GraphBase.H1, pair.X1))
    for lam, defects in zip(lams, sweep):
        shifted = m - lam * np.eye(b.dim)
        dist = shift_distance(np.linalg.eigvals(m), lam)
        assert dist >= np.linalg.svd(shifted, compute_uv=False)[-1] * (1.0 - 1e-12)
        for g, fast in zip(graphs, defects):
            q = g.subspace.basis
            r = np.linalg.solve(shifted, q)
            dense = np.linalg.norm(r - q @ (q.conj().T @ r))
            assert abs(fast - dist * dense) <= 1e-12 * (1.0 + dist * dense)
