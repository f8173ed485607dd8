import numpy as np
import pytest
import scipy.linalg

from blockdiag import (
    BlockMatrix,
    GraphBase,
    GraphSubspace,
    from_graph,
    invariant_subspace,
    spectral_pair,
    triangular_form,
)
from blockdiag.errors import IllPosedRegionError
from blockdiag.core import schur_diagonal
from blockdiag.spectral import Subspace, invariance_residual
from conftest import containment, null_space_basis


def _kernel(m, mu=0.0) -> Subspace:
    m = np.asarray(m, dtype=complex)
    return Subspace(basis=null_space_basis(m - mu * np.eye(m.shape[0])))


def _eigen_span(b, select) -> Subspace:
    """Span of the eigenvectors of B whose eigenvalues ``select`` keeps."""
    w, _ = b.schur
    return invariant_subspace(b.full, b.schur, select(w), b.norm)[0]


def test_eigvals_analytic(analytic):
    expected = sorted([1 - np.sqrt(2), 1 + np.sqrt(2)])
    np.testing.assert_allclose(analytic.eigvals.real, expected, atol=1e-12)
    assert np.all(analytic.eigvals.imag == 0)


def test_subspace_below_trivial():
    b = BlockMatrix([-1.0], [1.0], [0.0], [0.0])
    sub = _eigen_span(b, lambda w: w < 0.0)
    assert sub.dim == 1
    np.testing.assert_allclose(np.abs(sub.basis[:, 0]), [1, 0], atol=1e-14)


def test_subspace_below_analytic(analytic):
    sub = _eigen_span(analytic, lambda w: w < 1.0)
    assert sub.dim == 1
    expected = np.array([1.0, 1.0 - np.sqrt(2)])
    expected /= np.linalg.norm(expected)
    overlap = abs(np.vdot(expected, sub.basis[:, 0]))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_subspace_below_zero_matrix():
    b = BlockMatrix([0.0], [0.0], [0.0], [0.0])
    assert _eigen_span(b, lambda w: w < 0.0).dim == 0
    assert _eigen_span(b, lambda w: w <= 0.0).dim == 2


@pytest.mark.parametrize("seed", range(4))
def test_strict_subset_of_nonstrict(seed):
    """The spectral route's graph below mu lies between the eigenvectors
    strictly below and those at or below mu, on unsubordinated input."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = 0.5 * (h + h.conj().T)
    b = BlockMatrix(h[:3, :3], h[3:, 3:], h[3:, :3], h[:3, 3:])
    mu = float(np.median(np.linalg.eigvalsh(h)))
    w, v = np.linalg.eigh(h)
    band = 1e-9 * np.linalg.norm(h, 2)
    strict = Subspace(basis=v[:, w < mu - band])
    loose = Subspace(basis=v[:, w <= mu + band])
    graph = from_graph(GraphSubspace(base=GraphBase.H0, X=spectral_pair(b, mu).X0))
    assert strict.dim <= graph.dim <= loose.dim
    assert containment(strict, graph) <= 1e-10
    assert containment(graph, loose) <= 1e-10


def test_kernel_of_diag():
    sub = _kernel(np.diag([0.0, 1.0]))
    assert sub.dim == 1
    np.testing.assert_allclose(np.abs(sub.basis[:, 0]), [1, 0], atol=1e-14)


def test_kernel_empty():
    assert _kernel(np.eye(3)).dim == 0


def test_kernel_of_coupled_fixture(one_point):
    # coordinates 2 and 4 are coupled and invertible; e1, e3 remain
    sub = _kernel(one_point.assemble())
    assert sub.dim == 2
    expected = np.zeros((4, 2))
    expected[0, 0] = 1.0
    expected[2, 1] = 1.0
    outer = Subspace(basis=expected)
    assert containment(sub, outer) <= 1e-10


def test_kernel_dimension_bookkeeping(one_point):
    b = one_point
    full = b.assemble()
    n = full.shape[0]
    mu = 0.0
    w = np.linalg.eigvalsh(full)
    band = 1e-10 * np.linalg.norm(full, 2)
    dim_below = int(np.sum(w < mu - band))
    dim_kernel = _kernel(full, mu).dim
    above = int(np.sum(w > mu + band))
    assert dim_below + dim_kernel + above == n


def _region(m, selector) -> Subspace:
    """The subspace of the eigenvalues ``selector`` keeps, from a fresh
    triangular form of ``m`` and an independently computed 2-norm."""
    m = np.asarray(m, dtype=complex)
    form = triangular_form(m)
    mask = np.array([selector(z) for z in schur_diagonal(form[0])], dtype=bool)
    return invariant_subspace(m, form, mask, np.linalg.norm(m, 2))[0]


def test_region_hermitian():
    sub = _region(np.diag([1.0, 5.0]), lambda z: z.real < 3)
    assert sub.dim == 1
    np.testing.assert_allclose(np.abs(sub.basis[:, 0]), [1, 0], atol=1e-14)


def test_region_matches_subspace_below(analytic):
    full = analytic.assemble()
    by_region = _region(full, lambda z: z.real < 1)
    below = _eigen_span(analytic, lambda w: w < 1.0)
    angles = scipy.linalg.subspace_angles(by_region.basis, below.basis)
    assert np.max(angles, initial=0.0) <= 1e-10


def test_region_defective_whole_space():
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    sub = _region(m, lambda z: z.real < 2)
    assert sub.dim == 2


def test_region_boundary_through_spectrum():
    with pytest.raises(IllPosedRegionError):
        _region(np.diag([1.0, 1.0 + 1e-12]), lambda z: z.real <= 1.0)


@pytest.mark.parametrize("seed", range(4))
def test_region_invariance_residual_general(seed):
    rng = np.random.default_rng(100 + seed)
    m = rng.standard_normal((8, 8))
    median = float(np.median(np.linalg.eigvals(m).real))
    sub = _region(m, lambda z: z.real < median)
    assert invariance_residual(m, sub) <= 1e-8 * np.linalg.norm(m, 2)


@pytest.mark.parametrize("seed", range(3))
def test_projector_properties(seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = 0.5 * (h + h.conj().T)
    b = BlockMatrix(h[:2, :2], h[2:, 2:], h[2:, :2], h[:2, 2:])
    mu = float(np.median(np.linalg.eigvalsh(h)))
    q = _eigen_span(b, lambda w: w < mu).basis
    p = q @ q.conj().T
    norm = np.linalg.norm(h, 2)
    assert np.linalg.norm(p @ p - p, 2) <= 1e-10
    assert np.linalg.norm(p - p.conj().T, 2) <= 1e-10
    assert np.linalg.norm(p @ h - h @ p, 2) <= 1e-8 * norm


def test_with_partition_keeps_the_checked_basis_without_checking_it_again(
    monkeypatch,
):
    """The partitioned subspace shares the basis, bitwise, and does not run
    the Gram check of ``__post_init__`` a second time."""
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3)))
    u = Subspace(basis=q)
    checks = []
    post_init = Subspace.__post_init__
    monkeypatch.setattr(
        Subspace, "__post_init__", lambda self: checks.append(self) or post_init(self)
    )
    v = u.with_partition(4)
    assert checks == []
    assert (v.n0, u.n0, v.dim) == (4, None, 3)
    assert v.basis is u.basis and not v.basis.flags.writeable
    np.testing.assert_array_equal(v.basis, q)
