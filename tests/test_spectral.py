import numpy as np
import pytest
import scipy.linalg

from blockdiag import (
    BlockMatrix,
    invariant_subspace_by_region,
    spectral_subspace_below,
)
from blockdiag.errors import ContractError, IllPosedRegionError
from blockdiag.spectral import (
    Subspace,
    containment_residual,
    invariance_residual,
    null_space_basis,
)


def _kernel(m, mu=0.0) -> Subspace:
    m = np.asarray(m, dtype=complex)
    return Subspace(basis=null_space_basis(m - mu * np.eye(m.shape[0])))


def test_eigvals_analytic(analytic):
    expected = sorted([1 - np.sqrt(2), 1 + np.sqrt(2)])
    np.testing.assert_allclose(analytic.eigvals.real, expected, atol=1e-12)
    assert np.all(analytic.eigvals.imag == 0)


def test_region_hermitian_contract():
    with pytest.raises(ContractError):
        invariant_subspace_by_region(
            np.array([[0.0, 1.0], [0.0, 0.0]]), lambda z: z.real < 1, hermitian=True
        )


def test_subspace_below_trivial():
    b = BlockMatrix([-1.0], [1.0], [0.0], [0.0])
    sub = spectral_subspace_below(b, 0.0, strict=True)
    assert sub.dim == 1
    np.testing.assert_allclose(np.abs(sub.basis[:, 0]), [1, 0], atol=1e-14)


def test_subspace_below_analytic(analytic):
    sub = spectral_subspace_below(analytic, 1.0, strict=True)
    assert sub.dim == 1
    expected = np.array([1.0, 1.0 - np.sqrt(2)])
    expected /= np.linalg.norm(expected)
    overlap = abs(np.vdot(expected, sub.basis[:, 0]))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_subspace_below_zero_matrix():
    b = BlockMatrix([0.0], [0.0], [0.0], [0.0])
    assert spectral_subspace_below(b, 0.0, strict=True).dim == 0
    assert spectral_subspace_below(b, 0.0, strict=False).dim == 2


def test_subspace_below_non_hermitian_rejected():
    b = BlockMatrix([0.0], [0.0], [1.0], [0.0])
    with pytest.raises(ContractError):
        spectral_subspace_below(b, 0.0)


@pytest.mark.parametrize("seed", range(4))
def test_strict_subset_of_nonstrict(seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = 0.5 * (h + h.conj().T)
    b = BlockMatrix(h[:3, :3], h[3:, 3:], h[3:, :3], h[:3, 3:])
    mu = float(np.median(np.linalg.eigvalsh(h)))
    strict = spectral_subspace_below(b, mu, strict=True)
    loose = spectral_subspace_below(b, mu, strict=False)
    assert strict.dim <= loose.dim
    assert containment_residual(strict, loose) <= 1e-10


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
    assert containment_residual(sub, outer) <= 1e-10


def test_kernel_dimension_bookkeeping(one_point):
    b = one_point
    full = b.assemble()
    n = full.shape[0]
    mu = 0.0
    dim_below = spectral_subspace_below(b, mu, strict=True).dim
    dim_kernel = _kernel(full, mu).dim
    above = spectral_subspace_below(
        BlockMatrix(-b.A0, -b.A1, -b.W0, -b.W1), -mu, strict=True
    ).dim
    assert dim_below + dim_kernel + above == n


def test_region_hermitian():
    sub = invariant_subspace_by_region(
        np.diag([1.0, 5.0]), lambda z: z.real < 3, hermitian=True
    )
    assert sub.dim == 1
    np.testing.assert_allclose(np.abs(sub.basis[:, 0]), [1, 0], atol=1e-14)


def test_region_matches_subspace_below(analytic):
    full = analytic.assemble()
    by_region = invariant_subspace_by_region(full, lambda z: z.real < 1, hermitian=True)
    below = spectral_subspace_below(analytic, 1.0, strict=True)
    angles = scipy.linalg.subspace_angles(by_region.basis, below.basis)
    assert np.max(angles, initial=0.0) <= 1e-10


def test_region_defective_whole_space():
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    sub = invariant_subspace_by_region(m, lambda z: z.real < 2, hermitian=False)
    assert sub.dim == 2


def test_region_boundary_through_spectrum():
    with pytest.raises(IllPosedRegionError):
        invariant_subspace_by_region(
            np.diag([1.0, 1.0 + 1e-12]), lambda z: z.real <= 1.0, hermitian=True
        )


@pytest.mark.parametrize("seed", range(4))
def test_region_invariance_residual_general(seed):
    rng = np.random.default_rng(100 + seed)
    m = rng.standard_normal((8, 8))
    median = float(np.median(np.linalg.eigvals(m).real))
    sub = invariant_subspace_by_region(m, lambda z: z.real < median, hermitian=False)
    assert invariance_residual(m, sub) <= 1e-8 * np.linalg.norm(m, 2)


@pytest.mark.parametrize("seed", range(3))
def test_projector_properties(seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = 0.5 * (h + h.conj().T)
    b = BlockMatrix(h[:2, :2], h[2:, 2:], h[2:, :2], h[:2, 2:])
    mu = float(np.median(np.linalg.eigvalsh(h)))
    q = spectral_subspace_below(b, mu, strict=True).basis
    p = q @ q.conj().T
    norm = np.linalg.norm(h, 2)
    assert np.linalg.norm(p @ p - p, 2) <= 1e-10
    assert np.linalg.norm(p - p.conj().T, 2) <= 1e-10
    assert np.linalg.norm(p @ h - h @ p, 2) <= 1e-8 * norm
