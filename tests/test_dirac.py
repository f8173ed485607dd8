import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdiag import (
    DiracProblem,
    GridSpec,
    ImpurityPotential,
    dirac,
    fw_transform,
    run_dirac_pipeline,
)
from blockdiag.angular import GraphBase, GraphSubspace, from_graph
from blockdiag.cli import main
from blockdiag.core import DEFAULT_TOL, BlockMatrix, frobenius_norm, from_blocks
from blockdiag.dirac import build_operators, fw_unitarity_residual
from blockdiag.errors import HypothesisError, StructuralError
from blockdiag.spectral import Subspace
from blockdiag.subordinated import check_subordination
from conftest import containment, dirac_hamiltonians, split_report, staged_eigh_calls
from blockdiag.transform import match_spectra

_EPS = np.finfo(np.float64).eps


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
    h0 = dirac_hamiltonians(build_operators(_problem(n=4)))[0]
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
    scale = np.linalg.norm(dirac_hamiltonians(ops)[0], 2)
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
    scale = np.linalg.norm(dirac_hamiltonians(ops)[1], 2)
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
    spec_h = np.linalg.eigvalsh(dirac_hamiltonians(ops)[1])
    scale = max(np.abs(spec_h))
    assert match_spectra(spec_fw, spec_h) <= 1e-9 * scale


def test_split_identities_zero_potential():
    report = split_report(_problem(n=4))
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
    report = split_report(problem)
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
    report = split_report(problem)
    assert report.margin < 0
    # the eigensolve decides the actual answer; a potential this deep
    # pushes the negative block across zero on this grid
    assert not report.subordinated


@pytest.mark.parametrize("where", ["block", "theta"])
def test_split_identity_sees_a_perturbation_of_1e_6(monkeypatch, tmp_path, where):
    """Negative control of the split identity: one rotated block, or the
    Theta that the identity reads, scaled by 1 + 1e-6 lifts
    ``block_identity_residual`` above 1e-8, and ``dirac`` exits 1."""
    problem = _problem(n=4, amplitude=0.05)
    assert split_report(problem).block_identity_residual <= 1e-14
    if where == "block":
        rotate = dirac._fw_block_matrix

        def perturbed(ops):
            bm = rotate(ops)
            return BlockMatrix(bm.A0 * (1 + 1e-6), bm.A1, bm.W0, bm.W1)

        monkeypatch.setattr(dirac, "_fw_block_matrix", perturbed)
    else:
        split = dirac.check_subordination_split

        def perturbed(problem, bm, ops, check):
            tilted = dataclasses.replace(ops, theta_op=ops.theta_op * (1 + 1e-6))
            return split(problem, bm, tilted, check)

        monkeypatch.setattr(dirac, "check_subordination_split", perturbed)
    assert split_report(problem).block_identity_residual > 1e-8
    out = tmp_path / "report.json"
    assert main(["dirac", "--n", "4", "--amplitude", "0.05", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["residuals"]["split_identity"] > 1e-8


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([4, 6]),
    factor=st.floats(0.4, 0.6),
    radius=st.floats(0.3, 4.0),
    profile=st.sampled_from(["disk", "gaussian"]),
)
def test_dirac_and_the_theorem_apply_one_subordination_rule(n, factor, radius, profile):
    """Near ``k_min / 2``, where the margin closes, the split report's flag
    is the one ``run_theorem``'s own check gives the swapped blocks at 0,
    and the pipeline returns, or refuses with that report."""
    grid = GridSpec(n=n)
    problem = DiracProblem(
        grid=grid,
        potential=ImpurityPotential(
            amplitude=factor * grid.k_min, profile=profile, radius=radius
        ),
    )
    report = split_report(problem)
    theorem_check = check_subordination(fw_transform(problem).swapped(), 0.0)
    assert report.subordinated == theorem_check.subordinated
    assert (report.sup_spec_A1, report.inf_spec_A0) == (
        theorem_check.sup_spec_A0,
        theorem_check.inf_spec_A1,
    )
    try:
        result = run_dirac_pipeline(problem)
    except HypothesisError as exc:
        assert not report.subordinated and exc.report == report
    else:
        assert report.subordinated and result.split == report


def test_a_problem_between_the_two_former_bands_is_refused_by_dirac(monkeypatch, tmp_path):
    """Here sup spec(A1) = 2.9e-10: within ``DEFAULT_TOL * norm_bound``
    (3.2e-10), the band the split report once applied, and outside the band
    of ``check_subordination``, which ``run_theorem`` applies. The pipeline
    refuses it itself, with its report, and never runs the theorem."""
    amplitude = 1.1105784176952689
    problem = _problem(n=4, amplitude=amplitude, radius=2.0)
    theorems = []
    monkeypatch.setattr(dirac, "run_theorem", lambda *args, **kwargs: theorems.append(args))
    with pytest.raises(HypothesisError) as info:
        run_dirac_pipeline(problem)
    report = info.value.report
    assert not report.subordinated and theorems == []
    assert 0.0 < report.sup_spec_A1 <= DEFAULT_TOL * report.norm_bound
    out = tmp_path / "report.json"
    argv = ["dirac", "--n", "4", "--amplitude", repr(amplitude), "--radius", "2"]
    assert main([*argv, "--out", str(out)]) == 2 and theorems == []
    assert json.loads(out.read_text())["error"]["diagnostics"]["sup_spec_A1"] == (
        report.sup_spec_A1
    )


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
        split_report(_problem(n=4, amplitude=1e308))
    with pytest.raises(StructuralError, match="spinor-rotated Hamiltonian"):
        fw_transform(_problem(n=16, amplitude=1e308))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"amplitude": float("nan")},
        {"amplitude": float("inf")},
        {"amplitude": 1.0, "radius": float("nan")},
        {"amplitude": 1.0, "radius": float("inf")},
        {"amplitude": 1.0, "radius": 0.0},
        {"amplitude": 1.0, "center": (float("nan"), 0.0)},
    ],
)
def test_potential_refuses_non_finite_parameters(kwargs):
    with pytest.raises(StructuralError, match="finite"):
        ImpurityPotential(**kwargs)


@pytest.mark.parametrize("n", [4, 8])
def test_build_operators_forms_no_array_larger_than_n2_by_n2(n):
    """The Hamiltonian H is never assembled: every operator array is one
    ``n^2 x n^2`` block or smaller."""
    ops = build_operators(_problem(n=n, amplitude=0.05))
    for field in dataclasses.fields(ops):
        shape = np.shape(getattr(ops, field.name))
        assert len(shape) <= 2 and max(shape) == n * n, field.name


def _complement(x):
    """Orthonormal basis of graph(-X*) over H1, from an independent QR."""
    return from_graph(GraphSubspace(base=GraphBase.H1, X=-x.conj().T)).basis


def _dense_t(ops):
    """The spinor rotation ``T = [[Theta, I], [Theta, -I]] / sqrt(2)``, dense."""
    eye = np.eye(ops.theta_op.shape[0])
    return from_blocks(ops.theta_op, eye, ops.theta_op, -eye) / np.sqrt(2.0)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_blockwise_rotation_matches_dense_products(n):
    ops = build_operators(_problem(n=n, amplitude=0.05, profile="gaussian", radius=1.0))
    t = _dense_t(ops)
    dim, h = t.shape[0], dirac_hamiltonians(ops)[1]
    dense = t @ h @ t.conj().T
    dense = 0.5 * (dense + dense.conj().T)
    blockwise = dirac._fw_block_matrix(ops).full
    scale = np.linalg.norm(h, 2)
    assert np.linalg.norm(blockwise - dense) <= 8 * dim * _EPS * scale
    unitarity = np.linalg.norm(t @ t.conj().T - np.eye(dim))
    assert abs(fw_unitarity_residual(ops) - unitarity) <= 8 * dim * _EPS


def _oracle_angles(problem, result):
    """Largest angles of ``T* L``, ``T* graph(-X*)`` to the spectral subspaces
    of H.

    Takes the dense ``eigh`` of the assembled H that the pipeline does without.
    """
    ops = build_operators(problem)
    t_adj = _dense_t(ops).conj().T
    points = problem.grid.n**2
    # undo the swap: the pipeline runs the theorem with the negative block first
    perm = np.r_[points : 2 * points, 0:points]
    w, v = np.linalg.eigh(dirac_hamiltonians(ops)[1])
    angles = []
    pairs = ((result.theorem.L.basis, w < 0.0), (_complement(result.theorem.X), w > 0.0))
    for basis, mask in pairs:
        q = Subspace(basis=np.linalg.qr(t_adj @ basis[perm])[0])
        target = Subspace(basis=v[:, mask])
        assert q.dim == target.dim
        angles.append(np.arcsin(min(1.0, containment(q, target))))
    return angles


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([4, 6, 8]),
    strength=st.floats(0.0, 0.45),
    radius=st.floats(0.3, 4.0),
    profile=st.sampled_from(["disk", "gaussian"]),
)
def test_angle_certificate_bounds_the_oracle_angle(n, strength, radius, profile):
    grid = GridSpec(n=n)
    # below k_min / 2 the rotated blocks are subordinated at 0
    problem = DiracProblem(
        grid=grid,
        potential=ImpurityPotential(
            amplitude=strength * grid.k_min, profile=profile, radius=radius
        ),
    )
    result = run_dirac_pipeline(problem)
    oracle_minus, oracle_plus = _oracle_angles(problem, result)
    assert result.angle_minus >= oracle_minus
    assert result.angle_plus >= oracle_plus
    assert result.angle_minus <= 1e-8


def _perturb_theorem(monkeypatch, change):
    """Make the pipeline see ``change(L, C)`` in place of the theorem's L, C
    an orthonormal basis of its complement graph(-X*), with the distance of
    the changed L from graph(X) that the theorem reports for its own L."""
    real = dirac.run_theorem

    def perturbed(*args, **kwargs):
        result = real(*args, **kwargs)
        l = change(result.L.basis.copy(), _complement(result.X))
        n0 = result.X.shape[1]
        distance = frobenius_norm(l[n0:] - result.X @ l[:n0])
        return dataclasses.replace(result, L=Subspace(basis=l), graph_distance=distance)

    monkeypatch.setattr(dirac, "run_theorem", perturbed)


@pytest.mark.parametrize("phi", [1e-6, 1e-4, 1e-2])
def test_angle_certificate_sees_a_pair_rotated_by_phi(monkeypatch, tmp_path, phi):
    """One column of L turned by phi towards graph(-X*): ``angle_minus``
    sees it, and ``angle_plus``, which certifies graph(-X*) itself, still
    bounds the angle of the complement and stays small."""

    def rotate(l, complement):
        l[:, 0] = np.cos(phi) * l[:, 0] + np.sin(phi) * complement[:, 0]
        return l

    _perturb_theorem(monkeypatch, rotate)
    problem = _problem(n=4, amplitude=0.05)
    result = run_dirac_pipeline(problem)
    oracle_minus, oracle_plus = _oracle_angles(problem, result)
    assert result.angle_minus >= phi
    assert oracle_minus == pytest.approx(phi, rel=1e-6)
    assert oracle_plus <= result.angle_plus <= 1e-8
    out = tmp_path / "report.json"
    assert main(["dirac", "--n", "4", "--amplitude", "0.05", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["residuals"]["subspace_angle_minus"] >= phi


def test_angle_certificate_refuses_a_swapped_column(monkeypatch):
    """A column of L swapped for one of graph(-X*) puts L a distance of at
    least 1 from graph(X): ``angle_minus`` is pi/2, and ``angle_plus`` still
    certifies graph(-X*)."""

    def swap(l, complement):
        l[:, 0] = complement[:, 0]
        return l

    _perturb_theorem(monkeypatch, swap)
    problem = _problem(n=4, amplitude=0.05)
    result = run_dirac_pipeline(problem)
    assert result.angle_minus == np.pi / 2
    assert _oracle_angles(problem, result)[1] <= result.angle_plus <= 1e-8


def _recorded(monkeypatch, owner, name, record):
    """Record ``record(args, result)`` of each call of ``owner.name``."""
    original = getattr(owner, name)
    calls = []

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(record(args, result))
        return result

    monkeypatch.setattr(owner, name, recorded)
    return calls


def test_pipeline_takes_one_eigh_and_the_two_block_eigvalsh(monkeypatch):
    """The certificate reads the compressions of the theorem's frame: after
    the one staged eigensolve of the rotated matrix, which back-transforms
    only the eigenvectors below 0, and the two block ``eigvalsh`` of the
    subordination check there is no eigensolve, and each spectral end takes
    one half-size Cholesky (LAPACK ``zpotrf``)."""
    import scipy.linalg

    shape = lambda args, result: np.shape(args[0])
    stages = staged_eigh_calls(monkeypatch)
    numpy_eigh = _recorded(monkeypatch, np.linalg, "eigh", shape)
    eigvalsh = _recorded(monkeypatch, np.linalg, "eigvalsh", shape)
    eigvals = _recorded(monkeypatch, np.linalg, "eigvals", shape)
    potrf = _recorded(monkeypatch, scipy.linalg.lapack, "zpotrf", shape)
    result = run_dirac_pipeline(_problem(n=4, amplitude=0.05))
    points = 16
    assert stages["zhetrd"] == [(2 * points, 2 * points)] and numpy_eigh == []
    assert stages["zunmqr"] == [(2 * points, points)] and stages["zheevd"] == []
    assert eigvalsh == [(points, points)] * 2
    assert eigvals == []
    assert potrf == [(points, points)] * 2
    assert result.angle_minus <= 1e-8 and result.angle_plus <= 1e-8


def test_a_frame_whose_negative_compression_is_not_definite_is_refused(monkeypatch):
    """Negative control of the inertia test: the theorem's frame is swapped
    for the graph of a basis whose last column mixes the eigenvectors on
    both sides of 0, so the compression of B onto it has an eigenvalue near
    0, above the shift halfway to the last negative eigenvalue. ``L`` is
    that basis, so only the failed Cholesky makes its angle pi/2; the one
    of the positive side is not taken."""
    import scipy.linalg

    from blockdiag.angular import GraphBase, graph_pair, to_graph
    from blockdiag.transform import diagonalize

    real = dirac.run_theorem

    def mixed_frame(b, *args, **kwargs):
        result = real(b, *args, **kwargs)
        _, v = b.eigh
        q = v[:, : b.n0].copy()
        q[:, -1] = (v[:, b.n0 - 1] + v[:, b.n0]) / np.sqrt(2.0)
        mixed = Subspace(q, n0=b.n0)
        pair = graph_pair(to_graph(mixed, GraphBase.H0))
        return dataclasses.replace(
            result, L=mixed, X=pair.X0, norm_X=pair.norm_Y, diag_results=diagonalize(b, pair)
        )

    monkeypatch.setattr(dirac, "run_theorem", mixed_frame)
    infos = _recorded(monkeypatch, scipy.linalg.lapack, "zpotrf", lambda args, result: result[1])
    result = run_dirac_pipeline(_problem(n=4, amplitude=0.05))
    assert len(infos) == 1 and infos[0] > 0
    assert result.angle_minus == result.angle_plus == np.pi / 2
