from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdiag import riccati
from blockdiag import (
    BlockMatrix,
    form_pair,
    residual_block,
    residual_X0,
    residual_X1,
    solve_newton_X0,
    solve_sylvester,
    spectral_subspace_below,
    to_graph,
)
from blockdiag.errors import StructuralError, SylvesterSingularError
from conftest import random_block


def test_residual_x0_zero_case():
    b = BlockMatrix(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), np.zeros((2, 2)), np.zeros((2, 2)))
    r = residual_X0(b, np.zeros((2, 2)))
    assert not r.residual.any()
    assert r.rel_norm == 0.0


def test_residual_x0_at_root(analytic):
    x = 1 - np.sqrt(2)  # root of x^2 - 2x - 1
    r = residual_X0(analytic, [[x]])
    assert abs(r.residual[0, 0]) <= 1e-14


def test_residual_x1_at_root(analytic):
    # skew partner of the H0 solution
    x1 = -(1 - np.sqrt(2))
    r = residual_X1(analytic, [[x1]])
    assert abs(r.residual[0, 0]) <= 1e-14


@pytest.mark.parametrize("seed", range(5))
def test_residual_x0_matches_entrywise_reevaluation(seed):
    rng = np.random.default_rng(seed)
    b = random_block(rng, 3, 2)
    x = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    r = residual_X0(b, x)
    # independent evaluation with a different association order
    expected = (b.A1 @ x + b.W0) - (x @ (b.A0 + b.W1 @ x))
    np.testing.assert_allclose(r.residual, expected, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_residual_x1_is_role_swapped_x0(seed):
    rng = np.random.default_rng(seed)
    b = random_block(rng, 2, 3)
    x = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    direct = residual_X1(b, x)
    swapped = residual_X0(b.swapped(), x)
    np.testing.assert_array_equal(direct.residual, swapped.residual)


def test_residual_block_zero():
    b = BlockMatrix(np.diag([1.0]), np.diag([2.0]), [[0.0]], [[0.0]])
    p = form_pair([[0.0]], [[0.0]])
    assert not residual_block(b, p).residual.any()


@pytest.mark.parametrize("seed", range(5))
def test_residual_block_offdiag_blocks_match(seed):
    rng = np.random.default_rng(seed)
    b = random_block(rng, 2, 3)
    x0 = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    x1 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    p = form_pair(x0, x1)
    rb = residual_block(b, p).residual
    np.testing.assert_array_equal(rb[2:, :2], residual_X0(b, x0).residual)
    np.testing.assert_array_equal(rb[:2, 2:], residual_X1(b, x1).residual)


@pytest.mark.parametrize("seed", range(5))
def test_residual_block_diag_blocks_vanish(seed):
    # A Y - Y A, Y V Y and V are all off-diagonal, so the diagonal is exactly 0
    rng = np.random.default_rng(50 + seed)
    b = random_block(rng, 3, 3)
    p = form_pair(
        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
    )
    rb = residual_block(b, p).residual
    assert np.max(np.abs(rb[:3, :3])) == 0.0
    assert np.max(np.abs(rb[3:, 3:])) == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_residual_block_equals_full_expression(seed):
    """Blockwise assembly agrees with the assembled quadratic expression."""
    rng = np.random.default_rng(70 + seed)
    b = random_block(rng, 2, 3)
    p = form_pair(
        rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)),
        rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)),
    )
    a = b.diagonal_part()
    v = b.offdiagonal_part()
    y = p.Y
    full = a @ y - y @ a - y @ v @ y + v
    scale = (np.linalg.norm(a, 2) + np.linalg.norm(v, 2)) * (1 + np.linalg.norm(y, 2)) ** 2
    np.testing.assert_allclose(residual_block(b, p).residual, full, atol=1e-13 * scale)


def test_sylvester_scalar():
    z = solve_sylvester([[2.0]], [[0.0]], [[1.0]])
    assert z[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_sylvester_identical_spectra_rejected():
    with pytest.raises(SylvesterSingularError):
        solve_sylvester(np.eye(2), np.eye(2), np.ones((2, 2)))


@pytest.mark.parametrize("seed", range(5))
def test_sylvester_random_residual(seed):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((4, 4)) + 5.0 * np.eye(4)
    q = rng.standard_normal((3, 3)) - 5.0 * np.eye(3)
    c = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    z = solve_sylvester(p, q, c)
    resid = np.linalg.norm(p @ z - z @ q - c, 2)
    assert resid <= 1e-9 * np.linalg.norm(c, 2)


def test_sylvester_shape_validation():
    with pytest.raises(StructuralError):
        solve_sylvester(np.eye(2), np.eye(3), np.zeros((3, 2)))


def test_newton_trivial_decoupled():
    b = BlockMatrix(np.diag([1.0, 2.0]), np.diag([5.0, 6.0]), np.zeros((2, 2)), np.zeros((2, 2)))
    x, trace = solve_newton_X0(b)
    assert trace.converged and trace.iterations == 0
    assert not x.any()


def test_newton_analytic(analytic):
    x, trace = solve_newton_X0(analytic, tol=1e-12)
    assert trace.converged
    assert trace.iterations <= 8
    assert x[0, 0].real == pytest.approx(1 - np.sqrt(2), abs=1e-10)
    assert trace.iterates[-1] <= 1e-12


def test_newton_degenerate_raises():
    b = BlockMatrix([0.0], [0.0], [1.0], [1.0])
    with pytest.raises(SylvesterSingularError):
        solve_newton_X0(b)


def test_newton_nonconvergence_reported():
    # one step allowed on a problem that needs several: reported, not raised
    b = BlockMatrix([0.0], [2.0], [1.0], [1.0])
    _, trace = solve_newton_X0(b, tol=1e-14, max_iter=1)
    assert not trace.converged
    assert trace.iterations == 1
    assert len(trace.iterates) == 2


@pytest.mark.parametrize("seed", range(10))
def test_newton_matches_spectral_route(seed):
    """Independent-oracle agreement on random gapped Hermitian problems."""
    from blockdiag import random_case

    pf = random_case(6, 6, gap=1.0, coupling=0.5, seed=seed)
    b = pf.block
    x_newton, trace = solve_newton_X0(b, tol=1e-12)
    assert trace.converged
    sub = spectral_subspace_below(b, 0.0, strict=True)
    x_spectral = to_graph(sub, "H0").X
    delta = np.linalg.norm(x_newton - x_spectral, 2)
    assert delta <= 1e-8 * (1 + np.linalg.norm(x_spectral, 2))


@pytest.mark.parametrize("seed", range(5))
def test_newton_quadratic_convergence(seed):
    """Once the residual is below 1e-2, it contracts at least quadratically
    up to a modest constant."""
    from blockdiag import random_case

    pf = random_case(6, 6, gap=1.0, coupling=0.8, seed=100 + seed)
    _, trace = solve_newton_X0(pf.block, tol=1e-13)
    assert trace.converged
    # stay above the rounding floor: prev^2 must still be resolvable
    rates = [
        nxt / prev**2
        for prev, nxt in zip(trace.iterates, trace.iterates[1:])
        if 1e-7 < prev <= 1e-2 and nxt > 0
    ]
    assert rates, "no step fell in the quadratic window"
    assert all(rate <= 1e2 for rate in rates)


def test_riccati_invariance_correspondence(analytic):
    """Small graph-equation residual iff small invariance residual."""
    from blockdiag.angular import GraphBase, GraphSubspace, from_graph
    from blockdiag.spectral import invariance_residual

    full = analytic.assemble()
    scale = np.linalg.norm(full, 2)
    for x_val, should_be_invariant in [(1 - np.sqrt(2), True), (0.3, False)]:
        g = GraphSubspace(base=GraphBase.H0, X=[[x_val]])
        inv_res = invariance_residual(full, from_graph(g)) / scale
        ric = residual_X0(analytic, [[x_val]]).rel_norm
        if should_be_invariant:
            assert inv_res <= 1e2 * max(ric, 1e-16)
            assert ric <= 1e-14
        else:
            assert inv_res >= 1e-3
            assert ric >= 1e-3


# --- Bartels-Stewart solver ------------------------------------------------

PROPERTY = settings(max_examples=60, deadline=None)
seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 7)
#: bitwise Hermitian, Hermitian up to a rounding-size defect (the bitwise
#: test fails), generic complex
kinds = st.sampled_from(["hermitian", "nearly", "general"])


def _cmat(rng, r, c):
    return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))


def _coefficient(rng, n, kind, shift):
    m = _cmat(rng, n, n)
    if kind != "general":
        m = 0.5 * (m + m.conj().T)
    m = m + shift * np.eye(n)
    if kind == "nearly":
        m = m + 1e-15 * _cmat(rng, n, n)
    assert np.array_equal(m, m.conj().T) == (kind == "hermitian")
    return m


def _rel_dist(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def _eigvals_separation(p, q):
    return np.min(np.abs(np.linalg.eigvals(p)[:, None] - np.linalg.eigvals(q)[None, :]))


@PROPERTY
@given(
    seeds, dims, dims, kinds, kinds, st.floats(-3.0, 3.0), st.sampled_from([1, 2, 3, 64])
)
def test_sylvester_matches_scipy(seed, n0, n1, kind_p, kind_q, log_scale, block):
    """Equal to ``scipy.linalg.solve_sylvester`` for every coefficient kind,
    also when the triangular solve is split into small blocks."""
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    p = scale * _coefficient(rng, n1, kind_p, 10.0)
    q = scale * _coefficient(rng, n0, kind_q, -10.0)
    c = scale * _cmat(rng, n1, n0)
    with mock.patch.object(riccati, "TRSYL_BLOCK", block):
        z = solve_sylvester(p, q, c)
    assert _rel_dist(z, scipy.linalg.solve_sylvester(p, -q, c)) <= 1e-10


@pytest.mark.parametrize("shape", [(65, 3), (3, 130), (100, 70)])
def test_sylvester_blocked_solve_matches_scipy(shape):
    rng = np.random.default_rng(sum(shape))
    n1, n0 = shape
    p = _coefficient(rng, n1, "general", 30.0)
    q = _coefficient(rng, n0, "hermitian", -30.0)
    c = _cmat(rng, n1, n0)
    z = solve_sylvester(p, q, c)
    assert _rel_dist(z, scipy.linalg.solve_sylvester(p, -q, c)) <= 1e-10


@PROPERTY
@given(seeds, dims, dims, kinds, kinds, st.floats(-3.0, 3.0))
def test_separation_off_triangular_diagonals_matches_eigvals(
    seed, n0, n1, kind_p, kind_q, log_scale
):
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    p = scale * _coefficient(rng, n1, kind_p, 1.0)
    q = scale * _coefficient(rng, n0, kind_q, -1.0)
    (tp, _), (tq, _) = riccati._triangular_form(p), riccati._triangular_form(q)
    sep = np.min(np.abs(np.diag(tp)[:, None] - np.diag(tq)[None, :]))
    norms = np.linalg.norm(p) + np.linalg.norm(q)
    assert abs(sep - _eigvals_separation(p, q)) <= 1e-12 * norms


@pytest.mark.parametrize("kind", ["hermitian", "general"])
@pytest.mark.parametrize("delta", [1e-13, 1e-12])
def test_sylvester_near_overlapping_spectra_rejected(kind, delta):
    """One eigenvalue of Q within ``delta`` (relative) of one of P's."""
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(_cmat(rng, 4, 4))
    d = np.array([1.0, 2.0, 3.0, 4.0])
    upper = np.triu(_cmat(rng, 4, 4), 1) if kind == "general" else 0.0
    p = u @ (np.diag(d) + upper) @ u.conj().T
    if kind == "hermitian":
        p = 0.5 * (p + p.conj().T)
    q = np.diag([2.0 + delta * np.linalg.norm(p), -5.0])
    assert _eigvals_separation(p, q) < riccati.SYLVESTER_SEPARATION_TOL
    with pytest.raises(SylvesterSingularError, match="overlap"):
        solve_sylvester(p, q, np.ones((4, 2)))


def test_sylvester_trsyl_failure_raises(monkeypatch):
    def failing(a, b, c, **kwargs):
        return c, 1.0, 1

    monkeypatch.setattr(scipy.linalg.lapack, "ztrsyl", failing)
    with pytest.raises(SylvesterSingularError, match="info 1"):
        solve_sylvester(np.diag([1.0, 2.0]), np.diag([-1.0]), np.ones((2, 1)))


# --- Newton metamorphic properties -------------------------------------------


def _gapped_block(rng, n0, n1, kind, coupling):
    """Spectra of A0 near -2 and of A1 near +2, coupled by ``coupling``."""
    if kind == "hermitian":
        a0 = _coefficient(rng, n0, "hermitian", 0.0) / np.sqrt(8 * n0) - 2.0 * np.eye(n0)
        a1 = _coefficient(rng, n1, "hermitian", 0.0) / np.sqrt(8 * n1) + 2.0 * np.eye(n1)
        w1 = coupling * _cmat(rng, n0, n1) / np.sqrt(2 * max(n0, n1))
        return BlockMatrix(a0, a1, w1.conj().T, w1)
    g = np.sqrt(8 * max(n0, n1))
    return BlockMatrix(
        _cmat(rng, n0, n0) / g - 2.0 * np.eye(n0),
        _cmat(rng, n1, n1) / g + 2.0 * np.eye(n1),
        coupling * _cmat(rng, n1, n0) / g,
        coupling * _cmat(rng, n0, n1) / g,
    )


def _unitary(rng, n):
    q, r = np.linalg.qr(_cmat(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@PROPERTY
@given(
    seeds, dims, dims, st.sampled_from(["hermitian", "general"]),
    st.floats(0.05, 0.5), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
)
def test_newton_invariant_under_diagonal_shift(seed, n0, n1, kind, coupling, re, im):
    """``A0 + sI``, ``A1 + sI`` leave the graph equation, hence every Newton
    iterate, unchanged. The stopping test is relative to ``norm(A) +
    norm(V)``, which the shift does change, so the shifted run's tolerance
    is rescaled to stop at the same absolute residual."""
    b = _gapped_block(np.random.default_rng(seed), n0, n1, kind, coupling)
    s = complex(re, im)
    shifted = BlockMatrix(b.A0 + s * np.eye(n0), b.A1 + s * np.eye(n1), b.W0, b.W1)
    tol = 1e-12
    tol_s = tol * (b.norm_A + b.norm_V) / (shifted.norm_A + shifted.norm_V)
    x, trace = solve_newton_X0(b, tol=tol)
    x_s, trace_s = solve_newton_X0(shifted, tol=tol_s)
    assert trace.converged and trace_s.converged
    assert trace_s.iterations == trace.iterations
    assert np.linalg.norm(x_s - x) <= 1e-10 * max(np.linalg.norm(x), 1e-300)


@PROPERTY
@given(
    seeds, dims, dims, st.sampled_from(["hermitian", "general"]), st.floats(0.05, 0.5)
)
def test_newton_covariant_under_block_unitary_basis_change(seed, n0, n1, kind, coupling):
    """``diag(U0, U1)`` conjugation maps the Newton solution to ``U1 X U0*``."""
    rng = np.random.default_rng(seed)
    b = _gapped_block(rng, n0, n1, kind, coupling)
    u0, u1 = _unitary(rng, n0), _unitary(rng, n1)
    rotated = BlockMatrix(
        u0 @ b.A0 @ u0.conj().T,
        u1 @ b.A1 @ u1.conj().T,
        u1 @ b.W0 @ u0.conj().T,
        u0 @ b.W1 @ u1.conj().T,
    )
    x, trace = solve_newton_X0(b)
    x_r, trace_r = solve_newton_X0(rotated)
    assert trace.converged and trace_r.converged
    expected = u1 @ x @ u0.conj().T
    assert np.linalg.norm(x_r - expected) <= 1e-10 * max(np.linalg.norm(x), 1e-300)
