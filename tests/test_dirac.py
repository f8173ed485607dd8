import numpy as np
import pytest
import scipy.linalg

from blockdiag import (
    DiracProblem,
    GridSpec,
    ImpurityPotential,
    check_subordination_split,
    fw_transform,
    run_dirac_pipeline,
)
from blockdiag.dirac import _max_angle, build_operators, fw_unitarity_residual
from blockdiag.errors import StructuralError
from blockdiag.spectral import Subspace
from blockdiag.transform import match_spectra


def _problem(n=4, amplitude=0.0, profile="disk", radius=None, length=2 * np.pi):
    grid = GridSpec(n=n, length=length)
    if radius is None:
        radius = length / 8
    return DiracProblem(
        grid=grid,
        potential=ImpurityPotential(amplitude=amplitude, profile=profile, radius=radius),
    )


def test_grid_validation():
    with pytest.raises(StructuralError):
        GridSpec(n=3)
    with pytest.raises(StructuralError):
        GridSpec(n=2)
    for length in (0.0, np.inf, np.nan):
        with pytest.raises(StructuralError):
            GridSpec(n=4, length=length)


def test_momenta_shifted_n4():
    grid = GridSpec(n=4, length=2 * np.pi)
    np.testing.assert_allclose(grid.momenta(), [-1.5, -0.5, 0.5, 1.5], atol=1e-14)
    assert grid.k_min == pytest.approx(np.sqrt(0.5), abs=1e-14)


def test_momenta_doubling_is_superset():
    coarse = set(np.round(GridSpec(n=4).momenta(), 12))
    fine = set(np.round(GridSpec(n=8).momenta(), 12))
    assert coarse <= fine


def test_theta_unimodular():
    problem = _problem(n=4)
    theta = problem.theta()
    np.testing.assert_allclose(np.abs(theta), 1.0, atol=1e-14)


def test_free_dirac_spectrum_matches_momenta():
    grid = GridSpec(n=4, length=2 * np.pi)
    h0 = build_operators(_problem(n=4)).h_free
    assert np.linalg.norm(h0 - h0.conj().T, 2) <= 1e-12
    kx, ky = grid.momentum_mesh()
    magnitudes = np.hypot(kx, ky)
    expected = np.sort(np.concatenate([magnitudes, -magnitudes]))
    np.testing.assert_allclose(np.linalg.eigvalsh(h0), expected, atol=1e-10)


def test_fw_unitarity():
    ops = build_operators(_problem(n=6, amplitude=0.1))
    assert fw_unitarity_residual(ops) <= 1e-10


def test_fw_free_case_block_diagonal():
    problem = _problem(n=4)
    bm = fw_transform(problem)
    ops = build_operators(problem)
    scale = np.linalg.norm(ops.h_free, 2)
    assert np.linalg.norm(bm.W1, 2) <= 1e-12 * scale
    assert np.linalg.norm(bm.W0, 2) <= 1e-12 * scale
    np.testing.assert_allclose(bm.A0, ops.sqrt_lap, atol=1e-12 * scale)
    np.testing.assert_allclose(bm.A1, -ops.sqrt_lap, atol=1e-12 * scale)


def test_fw_constant_potential_commutes():
    """A constant potential commutes with every momentum multiplier, so the
    rotation leaves it untouched: no coupling, diagonal shift by u0."""
    u0 = 0.37
    length = 2 * np.pi
    problem = DiracProblem(
        grid=GridSpec(n=4, length=length),
        potential=ImpurityPotential(amplitude=u0, radius=2 * length),  # covers the box
    )
    assert np.all(problem.potential.sample(problem.grid) == u0)
    bm = fw_transform(problem)
    ops = build_operators(problem)
    scale = np.linalg.norm(ops.h_full, 2)
    assert np.linalg.norm(bm.W1, 2) <= 1e-12 * scale
    np.testing.assert_allclose(
        bm.A0, ops.sqrt_lap + u0 * np.eye(16), atol=1e-12 * scale
    )
    np.testing.assert_allclose(
        bm.A1, -ops.sqrt_lap + u0 * np.eye(16), atol=1e-12 * scale
    )


def test_fw_output_exactly_hermitian_symmetric():
    bm = fw_transform(_problem(n=6, amplitude=0.05))
    assert np.array_equal(bm.W0, bm.W1.conj().T)
    assert np.array_equal(bm.A0, bm.A0.conj().T)
    assert np.array_equal(bm.A1, bm.A1.conj().T)


def test_fw_coupling_norm_bound():
    grid = GridSpec(n=6)
    u0 = 0.05 * grid.k_min
    problem = DiracProblem(
        grid=grid,
        potential=ImpurityPotential(amplitude=u0, radius=grid.length / 8),
    )
    bm = fw_transform(problem)
    norm_w1 = np.linalg.norm(bm.W1, 2)
    assert norm_w1 <= u0 + 1e-12  # averaging halves the naive 2*u0 bound
    assert norm_w1 <= 2 * u0


def test_fw_spectrum_preserved():
    problem = _problem(n=6, amplitude=0.2, profile="gaussian", radius=1.0)
    bm = fw_transform(problem)
    ops = build_operators(problem)
    spec_fw = np.linalg.eigvalsh(bm.assemble())
    spec_h = np.linalg.eigvalsh(ops.h_full)
    scale = max(np.abs(spec_h))
    assert match_spectra(spec_fw, spec_h) <= 1e-9 * scale


def test_split_identities_zero_potential():
    report = check_subordination_split(_problem(n=4))
    assert report.subordinated
    assert report.block_identity_residual <= 1e-10
    assert report.margin == pytest.approx(GridSpec(n=4).k_min)
    assert report.u_inf == 0.0


def test_split_weak_potential_subordinated():
    grid = GridSpec(n=6)
    problem = DiracProblem(
        grid=grid,
        potential=ImpurityPotential(amplitude=0.1 * grid.k_min, radius=grid.length / 6),
    )
    report = check_subordination_split(problem)
    assert report.subordinated
    assert report.margin == pytest.approx(0.8 * grid.k_min, rel=1e-12)
    assert report.inf_spec_A0 >= 0.0
    assert report.sup_spec_A1 <= 0.0


def test_split_strong_potential_breaks_margin():
    grid = GridSpec(n=6)
    problem = DiracProblem(
        grid=grid,
        potential=ImpurityPotential(amplitude=10 * grid.k_min, radius=grid.length / 3),
    )
    report = check_subordination_split(problem)
    assert report.margin < 0
    # the eigensolve decides the actual answer; a potential this deep
    # pushes the negative block across zero on this grid
    assert not report.subordinated


def test_pipeline_zero_potential():
    result = run_dirac_pipeline(_problem(n=4))
    assert result.norm_X <= 1e-10
    assert result.angle_minus <= 1e-10
    assert result.angle_plus <= 1e-10


def test_pipeline_weak_disk():
    grid = GridSpec(n=8)
    problem = DiracProblem(
        grid=grid,
        potential=ImpurityPotential(
            amplitude=0.05 * grid.k_min, radius=grid.length / 8
        ),
    )
    result = run_dirac_pipeline(problem)
    assert result.norm_X < 1.0
    assert result.fw_unitarity_residual <= 1e-10
    for res in result.theorem.diag_results:
        assert res.offdiag_rel_norm <= 1e-8
    assert result.angle_minus <= 1e-8
    assert result.angle_plus <= 1e-8
    assert result.theorem.reduces_ok


def test_pipeline_norm_x_stable_under_refinement():
    """Two-point grid stability check with a smooth bump."""
    norms = []
    for n in (8, 16):
        grid = GridSpec(n=n)
        problem = DiracProblem(
            grid=grid,
            potential=ImpurityPotential(
                amplitude=0.05 * grid.k_min, profile="gaussian", radius=grid.length / 6
            ),
        )
        norms.append(run_dirac_pipeline(problem).norm_X)
    assert abs(norms[0] - norms[1]) <= 0.1


def test_potential_profiles():
    grid = GridSpec(n=4, length=8.0)
    disk = ImpurityPotential(amplitude=2.0, profile="disk", radius=1.5, center=(4.0, 4.0))
    values = disk.sample(grid).reshape(4, 4)
    assert values[2, 2] == 2.0  # grid point at (4, 4)
    assert values[0, 0] == 0.0
    gauss = ImpurityPotential(amplitude=2.0, profile="gaussian", radius=1.5, center=(4.0, 4.0))
    gvalues = gauss.sample(grid).reshape(4, 4)
    assert gvalues[2, 2] == pytest.approx(2.0)
    assert 0 < gvalues[0, 0] < 2.0
    with pytest.raises(StructuralError):
        ImpurityPotential(amplitude=-1.0)
    with pytest.raises(StructuralError):
        ImpurityPotential(amplitude=1.0, profile="box")


def test_split_overflow_names_the_quantity():
    with pytest.raises(StructuralError, match="subordination margin"):
        check_subordination_split(_problem(n=4, amplitude=1e308))
    with pytest.raises(StructuralError, match="spinor-rotated Hamiltonian"):
        fw_transform(_problem(n=16, amplitude=1e308))


@pytest.mark.parametrize("seed", range(6))
def test_max_angle_matches_subspace_angles(seed):
    rng = np.random.default_rng(seed)
    n, k = 12, 1 + seed

    def subspace(m):
        return Subspace(basis=np.linalg.qr(m)[0])

    u = subspace(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
    near = u.basis + 10.0 ** (-seed) * rng.standard_normal((n, k))
    for v in (subspace(near), subspace(rng.standard_normal((n, k)))):
        reference = scipy.linalg.subspace_angles(u.basis, v.basis)[0]
        assert _max_angle(u, v) == pytest.approx(reference, rel=1e-9, abs=1e-14)
    orthogonal = Subspace(basis=np.eye(n)[:, :k])
    assert _max_angle(Subspace(basis=np.eye(n)[:, k : 2 * k]), orthogonal) == np.pi / 2
    assert _max_angle(orthogonal, orthogonal) == 0.0
