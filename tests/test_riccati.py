from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blockdiag import riccati
from blockdiag import (
    BlockMatrix,
    form_pair,
    random_case,
    residual_block,
    residual_X0,
    residual_X1,
    solve_newton_X0,
    solve_sylvester,
    spectral_pair,
)
from blockdiag.core import frobenius_norm, schur_diagonal, triangular_form
from blockdiag.errors import StructuralError, SylvesterSingularError
from conftest import diagonal_part, offdiagonal_part, random_block


def _residual_block(b, p):
    return residual_block(b, p, residual_X0(b, p.X0), residual_X1(b, p.X1))


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
    assert _residual_block(b, p) == 0.0


def _full_residual(b, p):
    """The assembled ``A Y - Y A - Y V Y + V``, which the package never forms."""
    a, v, y = diagonal_part(b), offdiagonal_part(b), p.Y
    return a @ y - y @ a - y @ v @ y + v


@pytest.mark.parametrize("seed", range(5))
def test_residual_block_offdiag_blocks_match(seed):
    """The off-diagonal blocks of the assembled residual are the H0 and H1
    graph-equation residuals, whose norms ``residual_block`` reads."""
    rng = np.random.default_rng(seed)
    b = random_block(rng, 2, 3)
    x0 = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    x1 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    full = _full_residual(b, form_pair(x0, x1))
    atol = 1e-13 * np.linalg.norm(full)
    np.testing.assert_allclose(full[2:, :2], residual_X0(b, x0).residual, atol=atol)
    np.testing.assert_allclose(full[:2, 2:], residual_X1(b, x1).residual, atol=atol)


@pytest.mark.parametrize("seed", range(5))
def test_residual_block_diag_blocks_vanish(seed):
    # A Y - Y A, Y V Y and V are all off-diagonal, so the diagonal is exactly
    # 0 and the residual's norm is that of its off-diagonal blocks
    rng = np.random.default_rng(50 + seed)
    b = random_block(rng, 3, 3)
    p = form_pair(
        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
    )
    full = _full_residual(b, p)
    assert np.max(np.abs(full[:3, :3])) == 0.0
    assert np.max(np.abs(full[3:, 3:])) == 0.0


def test_residual_block_assembles_no_y(monkeypatch):
    """The block residual's norm is read off the blocks: Y, of dimension
    n0 + n1, is not assembled."""
    from blockdiag.angular import AngularPair

    b = random_case(4, 3, gap=1.0, coupling=0.5, seed=0).block
    p = spectral_pair(b, 0.0)
    r0, r1 = residual_X0(b, p.X0), residual_X1(b, p.X1)
    monkeypatch.setattr(AngularPair, "Y", property(lambda _: pytest.fail("Y assembled")))
    assert residual_block(b, p, r0, r1) <= 1e-14


@pytest.mark.parametrize("seed", range(5))
def test_residual_block_equals_full_expression(seed):
    """The relative norm formed from the norms of R0, R1, X0 and X1 is that
    of the assembled quadratic expression over the scale of
    ``RiccatiResidual``: ``(a + norm(V)) (1 + norm_F(Y) / sqrt(dim))^2``."""
    rng = np.random.default_rng(70 + seed)
    b = random_block(rng, 2, 3)
    p = form_pair(
        rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)),
        rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)),
    )
    a, v, root = diagonal_part(b), offdiagonal_part(b), np.sqrt(b.dim)
    spread = np.linalg.norm(a - np.trace(a) / b.dim * np.eye(b.dim)) / root
    growth = 1.0 + np.linalg.norm(p.Y) / root
    expected = np.linalg.norm(_full_residual(b, p)) / ((spread + np.linalg.norm(v, 2)) * growth**2)
    assert _residual_block(b, p) == pytest.approx(expected, rel=1e-12)


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
    """The graph frame declines the overlapping spectra, and the Schur
    solve it falls back to raises."""
    b = BlockMatrix([0.0], [0.0], [1.0], [1.0])
    x = np.zeros((1, 1), dtype=np.complex128)
    f = residual_X0(b, x).residual
    assert _frame_step(b, x, f) is None
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
    x_spectral = spectral_pair(b, 0.0).X0
    delta = np.linalg.norm(x_newton - x_spectral, 2)
    assert delta <= 1e-8 * (1 + np.linalg.norm(x_spectral, 2))


@pytest.mark.parametrize("seed", range(5))
def test_newton_quadratic_convergence(seed):
    """Once the residual is below 1e-2, Newton steps contract it at least
    quadratically up to a modest constant. Newton steps remain only on the
    Schur route, so the graph-frame route is disabled."""
    from blockdiag import random_case

    pf = random_case(6, 6, gap=1.0, coupling=0.8, seed=100 + seed)
    _, trace = _schur_only(pf.block, tol=1e-13)
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
    (tp, _), (tq, _) = (triangular_form(m) for m in (p, q))
    sep = np.min(np.abs(schur_diagonal(tp)[:, None] - schur_diagonal(tq)[None, :]))
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


def _frame_route(b):
    """Whether :func:`solve_newton_X0` takes graph frames on ``b``: its
    centred blocks and W0, W1 bitwise Hermitian."""
    return BlockMatrix(*riccati._centred_A(b), b.W0, b.W1).hermitian


def _unitary(rng, n):
    q, r = np.linalg.qr(_cmat(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@PROPERTY
@given(
    seeds, dims, dims, st.sampled_from(["hermitian", "general"]),
    st.floats(0.05, 0.5), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
)
# a norm(A) scale put the third step at 1.04e-12 unshifted and 9.8e-13
# shifted, on either side of the tolerance
@example(seed=1310414, n0=3, n1=3, kind="hermitian", coupling=0.347, re=0.0, im=1.0)
# the uncentred Sylvester residual gate refused a step at this shift
@example(seed=0, n0=3, n1=3, kind="hermitian", coupling=0.3, re=1e6, im=0.0)
# centring leaves a rounding-size imaginary diagonal: the Schur route
@example(
    seed=0, n0=1, n1=2, kind="hermitian", coupling=0.5, re=0.0,
    im=1.1125369292536007e-308,
)
def test_newton_invariant_under_diagonal_shift(seed, n0, n1, kind, coupling, re, im):
    """``A0 + sI``, ``A1 + sI`` leave the graph equation, hence every Newton
    iterate, unchanged, and the stopping test's scale with them: both runs
    end at the same X, and stop after the same number of steps at the same
    tolerance when their centred blocks take the same route. A complex
    shift can leave a rounding-size imaginary part on the centred diagonal,
    which moves Hermitian blocks from the graph-frame route to the Schur
    route, whose Newton steps are more."""
    b = _gapped_block(np.random.default_rng(seed), n0, n1, kind, coupling)
    s = complex(re, im)
    shifted = BlockMatrix(b.A0 + s * np.eye(n0), b.A1 + s * np.eye(n1), b.W0, b.W1)
    x, trace = solve_newton_X0(b, tol=1e-12)
    x_s, trace_s = solve_newton_X0(shifted, tol=1e-12)
    assert trace.converged and trace_s.converged
    if _frame_route(shifted) == _frame_route(b):
        assert trace_s.iterations == trace.iterations
    assert np.linalg.norm(x_s - x) <= 1e-10 * max(np.linalg.norm(x), 1e-300)


@pytest.mark.parametrize("kind", ["hermitian", "general"])
@pytest.mark.parametrize("s", [1e8, 1e10])
def test_newton_and_residual_under_large_diagonal_shift(kind, s):
    """Newton runs on the centred blocks and the residual is formed from
    them, so a shift far beyond the problem's spread changes neither the
    step count nor the residual of an accurate X; X moves only by the
    rounding of the shifted diagonal, about eps * s."""
    b = _gapped_block(np.random.default_rng(4), 5, 4, kind, 0.4)
    shifted = BlockMatrix(b.A0 + s * np.eye(5), b.A1 + s * np.eye(4), b.W0, b.W1)
    x, trace = solve_newton_X0(b)
    x_s, trace_s = solve_newton_X0(shifted)
    assert trace_s.converged and trace_s.iterations == trace.iterations
    assert trace_s.schur_steps == trace.schur_steps
    assert np.linalg.norm(x_s - x) <= 1e-16 * s * np.linalg.norm(x)
    # the Riccati gate of `check` (1e-8) passes an accurate X at any shift
    assert residual_X0(shifted, x_s).rel_norm <= 1e-12


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


def test_check_computes_each_graph_residual_once(tmp_path, monkeypatch):
    from blockdiag import random_case, save_problem
    from blockdiag.cli import main

    path = tmp_path / "problem.json"
    save_problem(path, random_case(4, 3, gap=1.0, coupling=0.5, seed=2))
    calls = []
    for name in ("residual_X0", "residual_X1"):
        original = getattr(riccati, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(riccati, name, counted)
    assert main(["check", str(path), "--lambdas", "1"]) == 0
    assert sorted(calls) == ["residual_X0", "residual_X1"]


def test_residual_scale_is_shift_free_lower_bound_on_norm_a():
    rng = np.random.default_rng(11)
    b = _gapped_block(rng, 4, 3, "general", 0.3)
    a0, a1 = riccati._centred_A(b)
    scale = riccati._riccati_scale(b, a0, a1)
    assert b.norm_V < scale <= np.linalg.norm(diagonal_part(b), 2) + b.norm_V
    for s in (1.0, -2.5j, 1e6 + 1e6j):
        shifted = BlockMatrix(b.A0 + s * np.eye(4), b.A1 + s * np.eye(3), b.W0, b.W1)
        s0, s1 = riccati._centred_A(shifted)
        rounding = 1e-15 * (1.0 + abs(s))
        assert np.abs(s0 - a0).max() <= rounding and np.abs(s1 - a1).max() <= rounding
        assert riccati._riccati_scale(shifted, s0, s1) == pytest.approx(
            scale, rel=rounding
        )


# --- Newton in graph frames ---------------------------------------------------


def _frame_step(b, x, f, newton=False):
    """D with ``X + D`` the frame solve's X in the frame factorized at X, or,
    with ``newton``, the Newton step there (the frame solve without m); None
    when the frame or its solve declines."""
    frame = riccati._graph_frame(b, x, f)
    if frame is None:
        return None
    z, _ = riccati._frame_solve(b, frame._replace(m=None) if newton else frame)
    return None if z is None else frame.t1 @ z @ frame.t0inv


def _replayed_sweeps(frame):
    """Iterates Z_k (Z_0 = 0) and changes of the frame solve's sweeps,
    replayed from the frame's coefficients without its gates, up to its
    stopping rule."""
    z, zs, changes = np.zeros_like(frame.c), [], []
    for _ in range(riccati.GRAPH_FRAME_MAX_SWEEPS):
        zs.append(z)
        e1 = frame.e1 if frame.m is None else frame.e1 - z @ frame.m
        r = (e1 @ z + z @ frame.e0 + frame.c) / frame.delta + z
        change = frobenius_norm(r)
        if change <= riccati.GRAPH_FRAME_SWEEP_TOL * frobenius_norm(z) or (
            changes and change >= changes[-1]
        ):
            return zs, changes
        changes.append(change)
        z = z - r
    raise AssertionError("replayed sweeps did not converge")


def _schur_newton_steps(b, tol=1e-12, max_iter=25):
    """Newton with every step solved by :func:`solve_sylvester`.

    Yields ``(x, f, xw, wx, d)`` per step; the generator's return value is
    the final X.
    """
    x = np.zeros((b.n1, b.n0), dtype=np.complex128)
    for _ in range(max_iter):
        f = residual_X0(b, x)
        if f.rel_norm <= tol:
            return x
        xw, wx = x @ b.W1, b.W1 @ x
        d = solve_sylvester(b.A1 - xw, b.A0 + wx, -f.residual)
        yield x, f.residual, xw, wx, d
        x = x + d
    raise AssertionError("reference Newton run did not converge")


def _schur_newton(b, tol=1e-12):
    steps = _schur_newton_steps(b, tol)
    count = 0
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value, count
        count += 1


def _schur_only(b, **kwargs):
    """:func:`solve_newton_X0` with the graph-frame route disabled."""
    with mock.patch.object(riccati, "_graph_frame", lambda *args: None):
        return solve_newton_X0(b, **kwargs)


@PROPERTY
@given(
    seeds, st.integers(1, 9), st.integers(1, 9),
    st.sampled_from([0.1, 0.5, 1.0, 2.0, 4.0]),
)
def test_graph_frame_step_matches_sylvester_solve(seed, n0, n1, coupling):
    """At each X of the all-Schur run, in the frame factorized there, the
    frame solve without m is the Bartels-Stewart step of the Newton
    equation, and the frame solve itself, where it does not decline, lands
    on the all-Schur run's solution. Whole runs end there in at most as
    many steps."""
    b = random_case(n0, n1, gap=1.0, coupling=coupling, seed=seed).block
    _, count = _schur_newton(b)
    x_ref, _ = _schur_newton(b, tol=1e-14)
    scale = max(np.linalg.norm(x_ref), 1e-300)
    for x, f, _, _, d_ref in _schur_newton_steps(b):
        d = _frame_step(b, x, f, newton=True)
        if d is not None:
            assert _rel_dist(d, d_ref) <= 1e-10
        d = _frame_step(b, x, f)
        if d is not None and x.any():  # the frame at X = 0 has no m
            assert np.linalg.norm(x + d - x_ref) <= 1e-10 * scale
    x, trace = solve_newton_X0(b)
    assert trace.converged and trace.iterations <= count
    assert np.linalg.norm(x - x_ref) <= 1e-12 * scale


def _frame_from_assembled(b, x, at=None):
    """Gap, perturbation and coefficients of the graph frame made at ``at``
    (default X) for the Newton equation at X.

    Independent of :func:`riccati._frame_solve`: the compressions are taken
    of the assembled B, and the perturbations are read off the similarity
    transforms of P and Q themselves.
    """
    at = x if at is None else at
    xh = at.conj().T
    g = np.vstack([np.eye(b.n0), at])
    k = np.vstack([-xh, np.eye(b.n1)])
    s0, s1 = g.conj().T @ g, k.conj().T @ k
    lam0, v0 = scipy.linalg.eigh(g.conj().T @ b.full @ g, s0)
    lam1, v1 = scipy.linalg.eigh(k.conj().T @ b.full @ k, s1)
    p, q = b.A1 - x @ b.W1, b.A0 + b.W1 @ x
    e1 = v1.conj().T @ p @ s1 @ v1 - np.diag(lam1)
    e0 = np.diag(lam0) - v0.conj().T @ s0 @ q @ v0
    gap = np.min(np.abs(lam1[:, None] - lam0[None, :]))
    return gap, np.linalg.norm(e1) + np.linalg.norm(e0), p, q


def _frame_iterates(b, x, f, frame=None):
    """For each iterate ``X + t1 Z_k t0inv`` of the frame solve at X (in
    ``frame``, default the one factorized there): its contraction ratio and
    Bauer-Fike bound from the assembled B, and the gate's scale
    ``pq + 2 kappa norm_F(Z_k) norm(V)``."""
    frame = riccati._graph_frame(b, x, f) if frame is None else frame
    zs, _ = _replayed_sweeps(frame)
    out = []
    for z in zs:
        gap, perturbation, _, _ = _frame_from_assembled(
            b, x + frame.t1 @ z @ frame.t0inv, at=x
        )
        scale = frame.pq + 2 * frame.kappa * np.linalg.norm(z) * b.norm_V
        out.append((perturbation / gap, gap - perturbation, scale))
    return out


def _second_step(b):
    """``(x, f)`` after one Newton step from X = 0."""
    steps = _schur_newton_steps(b)
    next(steps)
    x, f, _, _, _ = next(steps)
    return x, f


def test_graph_frame_declines_at_the_contraction_bound():
    """The frame solve is gated at every iterate: it declines just below
    the largest contraction ratio along its sweeps, read off the assembled
    B, and solves just above it."""
    b = random_case(6, 7, gap=1.0, coupling=2.0, seed=3).block
    x, f = _second_step(b)
    ratio = max(r for r, _, _ in _frame_iterates(b, x, f))
    assert 1e-3 < ratio < riccati.GRAPH_FRAME_CONTRACTION_MAX
    with mock.patch.object(riccati, "GRAPH_FRAME_CONTRACTION_MAX", ratio * (1 - 1e-6)):
        assert _frame_step(b, x, f) is None
        assert _frame_step(b, x, f, newton=True) is None
    with mock.patch.object(riccati, "GRAPH_FRAME_CONTRACTION_MAX", ratio * (1 + 1e-6)):
        assert _frame_step(b, x, f) is not None


def test_frame_solve_is_gated_at_every_iterate():
    """With c scaled by 10, the frame's equation for a graph ten times
    farther off, the contraction ratio grows along the sweeps and the
    separation bound, relative to its scale, shrinks: the solve declines at
    a contraction bound between the first iterate's ratio and the largest,
    or a separation tolerance just above the tightest iterate's, and solves
    just inside both."""
    b = random_case(6, 7, gap=1.0, coupling=0.5, seed=3).block
    x, f = _second_step(b)
    frame = riccati._graph_frame(b, x, f)
    far = frame._replace(c=10 * frame.c)
    iterates = _frame_iterates(b, x, f, far)
    ratios = [r for r, _, _ in iterates]
    assert max(ratios) == ratios[-1] > 5 * ratios[0]
    bound = "GRAPH_FRAME_CONTRACTION_MAX"
    with mock.patch.object(riccati, bound, np.sqrt(ratios[0] * ratios[-1])):
        assert riccati._frame_solve(b, far)[0] is None
    with mock.patch.object(riccati, bound, ratios[-1] * (1 + 1e-6)):
        assert riccati._frame_solve(b, far)[0] is not None
    separations = [s / max(c, 1.0) for _, s, c in iterates]
    tightest = min(separations)
    assert tightest < separations[0] * (1 - 1e-3)
    tol = "SYLVESTER_SEPARATION_TOL"
    with mock.patch.object(riccati, tol, tightest * (1 + 1e-6)):
        assert riccati._frame_solve(b, far)[0] is None
    with mock.patch.object(riccati, tol, tightest * (1 - 1e-6)):
        assert riccati._frame_solve(b, far)[0] is not None


def test_declined_frame_takes_a_schur_step_and_the_next_x_a_fresh_frame():
    """A contraction bound between the largest ratio of the frame solve at
    the second X and that at the third: the second X's frame declines both
    its solves, that X takes the Schur step, and the frame factorized at the
    next X solves."""
    b = random_case(6, 7, gap=1.0, coupling=1.0, seed=3).block
    x_ref, _ = _schur_newton(b, tol=1e-14)
    steps = _schur_newton_steps(b)
    next(steps)
    x1, f1, _, _, _ = next(steps)
    x2, f2, _, _, _ = next(steps)
    declined = max(r for r, _, _ in _frame_iterates(b, x1, f1))
    fresh = max(r for r, _, _ in _frame_iterates(b, x2, f2))
    assert 4 * fresh < declined < riccati.GRAPH_FRAME_CONTRACTION_MAX
    with mock.patch.object(
        riccati, "GRAPH_FRAME_CONTRACTION_MAX", np.sqrt(fresh * declined)
    ):
        x, trace = solve_newton_X0(b)
    assert trace.converged and trace.iterations == 3
    assert trace.schur_steps == 1 and trace.frames == 2
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_declined_frame_solve_gives_way_to_the_newton_step_in_its_frame():
    """With every graph-equation solve declined, each X takes the Newton
    step in its own frame: the run is the all-Schur run, without a Schur
    step."""
    b = random_case(6, 7, gap=1.0, coupling=1.0, seed=3).block
    x_ref, count = _schur_newton(b)
    solve = riccati._frame_solve

    def linear_only(b, frame):
        return (None, 0) if frame.m is not None else solve(b, frame)

    with mock.patch.object(riccati, "_frame_solve", linear_only):
        x, trace = solve_newton_X0(b)
    assert trace.converged and trace.iterations == count >= 3
    assert trace.schur_steps == 0 and trace.frames == count - 1
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_graph_frame_declines_where_only_the_schur_gate_passes():
    """A separation tolerance between the Bauer-Fike bound and the
    separation of the computed spectra: the graph frame declines and the
    Schur solve goes ahead. The bound is gated at every iterate of the
    frame solve: it declines just above the tightest one and solves just
    below it."""
    b = random_case(6, 7, gap=1.0, coupling=2.0, seed=3).block
    x, f = _second_step(b)
    gap, perturbation, p, q = _frame_from_assembled(b, x)
    sep = _eigvals_separation(p, q)
    bound = gap - perturbation
    assert 0 < bound < min(sep, gap)
    scale = np.linalg.norm(p) + np.linalg.norm(q)
    between = 0.5 * (bound + min(sep, gap)) / scale
    with mock.patch.object(riccati, "SYLVESTER_SEPARATION_TOL", between):
        assert _frame_step(b, x, f) is None
        assert _frame_step(b, x, f, newton=True) is None
        solve_sylvester(p, q, -f)
    tightest = min(s / max(c, 1.0) for _, s, c in _frame_iterates(b, x, f))
    with mock.patch.object(riccati, "SYLVESTER_SEPARATION_TOL", tightest * (1 + 1e-6)):
        assert _frame_step(b, x, f) is None
    with mock.patch.object(riccati, "SYLVESTER_SEPARATION_TOL", tightest * (1 - 1e-6)):
        assert _frame_step(b, x, f) is not None


def test_graph_frame_declines_when_a_generalized_eigh_fails(monkeypatch):
    def failing(a, s, *args, **kwargs):
        # LAPACK's report of an S that is not positive definite
        n = len(a)
        return np.zeros(n), np.zeros((n, n), complex), n + 1

    b = random_case(5, 4, gap=1.0, coupling=0.5, seed=8).block
    x_ref, count = _schur_newton(b)
    monkeypatch.setattr(scipy.linalg.lapack, "zhegvd", failing)
    x, trace = solve_newton_X0(b)
    # only the first step, which reads eigh_A, stays in the graph frame
    assert trace.iterations == count and trace.schur_steps == count - 1
    assert trace.frames == 0
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_strong_coupling_falls_back_step_by_step():
    """Steps whose frame solves would not contract take the Schur solve;
    the run ends at the all-Schur X in fewer steps."""
    b = random_case(6, 7, gap=1.0, coupling=4.0, seed=1).block
    _, count = _schur_newton(b)
    x_ref, _ = _schur_newton(b, tol=1e-14)
    x, trace = solve_newton_X0(b)
    assert 0 < trace.schur_steps < trace.iterations < count
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


@PROPERTY
@given(
    seeds, st.integers(1, 12), st.integers(1, 12), st.floats(0.1, 4.0),
    st.floats(-1e6, 1e6),
)
def test_newton_with_frame_solves_matches_schur_newton(seed, n0, n1, coupling, s):
    """On Hermitian input, shifted, Newton with its frame solves ends at the
    all-Schur run's X in at most its steps. Both run on the centred blocks
    that :func:`solve_newton_X0` iterates on."""
    b = random_case(n0, n1, gap=1.0, coupling=coupling, seed=seed).block
    shifted = BlockMatrix(b.A0 + s * np.eye(n0), b.A1 + s * np.eye(n1), b.W0, b.W1)
    centred = BlockMatrix(*riccati._centred_A(shifted), b.W0, b.W1)
    _, count = _schur_newton(centred)
    x_ref, _ = _schur_newton(centred, tol=1e-14)
    x, trace = solve_newton_X0(shifted)
    assert trace.converged and trace.iterations <= count
    assert np.linalg.norm(x - x_ref) <= 1e-12 * max(np.linalg.norm(x_ref), 1e-300)


def _interlaced(seed, n0, n1, coupling, shift):
    """Random complex Hermitian A0 and A1, A1 shifted, ``W0 = W1*``: spectra
    that may interlace, where Newton from X = 0 may reach another solution
    of the graph equation or none."""
    rng = np.random.default_rng(seed)
    a0, a1 = (_coefficient(rng, n, "hermitian", 0.0) for n in (n0, n1))
    w1 = coupling * _cmat(rng, n0, n1)
    return BlockMatrix(a0, a1 + shift * np.eye(n1), w1.conj().T, w1)


@PROPERTY
@given(
    seeds, st.integers(1, 8), st.integers(1, 8), st.floats(0.05, 1.5),
    st.floats(-1.0, 4.0),
)
def test_frame_route_converges_wherever_the_schur_route_does(
    seed, n0, n1, coupling, shift
):
    """On bitwise-Hermitian problems, gapped or not, the default route
    converges wherever the Schur-only route does, to the same X."""
    b = _interlaced(seed, n0, n1, coupling, shift)
    try:
        x_ref, reference = _schur_only(b)
    except SylvesterSingularError:
        reference = None
    assume(reference is not None and reference.converged)
    x, trace = solve_newton_X0(b)
    assert trace.converged
    norm_x = np.linalg.norm(x_ref)
    assert np.linalg.norm(x - x_ref) <= 1e-8 * (1 + norm_x)


@PROPERTY
@given(seeds, st.integers(1, 9), st.integers(1, 9), st.floats(0.05, 2.0))
def test_frame_solve_sweeps_at_least_halve_their_change(seed, n0, n1, coupling):
    """Where every iterate passes the contraction gate, each sweep of the
    frame solve at the second X at least halves the change, down to the
    rounding of Phi. The solve returns the replayed sweeps' last iterate
    after as many sweeps."""
    b = random_case(n0, n1, gap=1.0, coupling=coupling, seed=seed).block
    x, f = _second_step(b)
    frame = riccati._graph_frame(b, x, f)
    z, sweeps = riccati._frame_solve(b, frame)
    assume(z is not None)
    zs, changes = _replayed_sweeps(frame)
    assert sweeps == len(changes) and np.array_equal(z, zs[-1])
    floor = 1e-13 * np.linalg.norm(z)
    assert all(
        later <= 0.5 * earlier
        for earlier, later in zip(changes, changes[1:])
        if later > floor
    )


def _exact_gate_solve(b, frame):
    """``(Z, sweeps, iterates)`` of the frame solve with both gates on the
    exact ``norm_F(E1) + norm_F(e0 - m Z)`` at every iterate, Z None where
    they decline. ``iterates`` holds, for each gated iterate, its
    contraction ratio, its separation bound over the gate's scale, the
    exact ``norm_F(E0)`` and the bound ``norm_F(e0) + norm_F(m) norm_F(Z)``."""
    norm = frobenius_norm
    gap = float(np.min(np.abs(frame.delta)))
    z, previous, iterates = np.zeros_like(frame.c), np.inf, []
    for sweep in range(riccati.GRAPH_FRAME_MAX_SWEEPS + 1):
        e1, e0 = frame.e1 - z @ frame.m, frame.e0 - frame.m @ z
        scale = frame.pq + 2.0 * frame.kappa * norm(z) * b.norm_V
        perturbation = norm(e1) + norm(e0)
        bound = norm(frame.e0) + norm(frame.m) * norm(z)
        iterates.append((perturbation / gap, (gap - perturbation) / scale, norm(e0), bound))
        if (
            gap - perturbation <= riccati.SYLVESTER_SEPARATION_TOL * scale
            or perturbation > riccati.GRAPH_FRAME_CONTRACTION_MAX * gap
            or sweep == riccati.GRAPH_FRAME_MAX_SWEEPS
        ):
            return None, sweep, iterates
        step = (e1 @ z + z @ frame.e0 + frame.c) / frame.delta + z
        change = norm(step)
        if change <= riccati.GRAPH_FRAME_SWEEP_TOL * norm(z) or change >= previous:
            return z, sweep, iterates
        z, previous = z - step, change


@PROPERTY
@given(seeds, st.integers(1, 9), st.integers(1, 9), st.floats(0.05, 2.0))
def test_frame_solve_gate_bound_keeps_the_exact_verdicts(seed, n0, n1, coupling):
    """The sweeps gate on ``norm_F(e0) + norm_F(m) norm_F(Z)`` for
    ``norm_F(E0)`` and form ``m Z`` only where that bound declines. The
    bound never falls below the exact norm (up to the rounding of ``m Z``),
    and the solve at the second X returns what the solve gated on the exact
    norm at every iterate returns: at the default constants, and with the
    contraction bound or the separation tolerance just beside the largest
    ratio or the tightest separation of the iterates."""
    b = random_case(n0, n1, gap=1.0, coupling=coupling, seed=seed).block
    x, f = _second_step(b)
    frame = riccati._graph_frame(b, x, f)
    _, _, iterates = _exact_gate_solve(b, frame)
    rounding = 1.0 + riccati.KERNEL_PROOF_ROUNDING * (n0 + n1) * np.finfo(float).eps
    assert all(exact <= bound * rounding for _, _, exact, bound in iterates)
    ratio = max(r for r, _, _, _ in iterates)
    tightest = min(s for _, s, _, _ in iterates)
    brackets = [("GRAPH_FRAME_CONTRACTION_MAX", riccati.GRAPH_FRAME_CONTRACTION_MAX)]
    brackets += [("GRAPH_FRAME_CONTRACTION_MAX", ratio * (1 + d)) for d in (-1e-6, 1e-6)]
    if tightest > 0:
        brackets += [("SYLVESTER_SEPARATION_TOL", tightest * (1 + d)) for d in (-1e-6, 1e-6)]
    for name, value in brackets:
        with mock.patch.object(riccati, name, value):
            z_ref, sweeps_ref, _ = _exact_gate_solve(b, frame)
            z, sweeps = riccati._frame_solve(b, frame)
        assert sweeps == sweeps_ref and (z is None) == (z_ref is None)
        assert z is None or np.array_equal(z, z_ref)


def _counting_m(m, products):
    """``m`` viewed as an array that appends to ``products`` each product
    ``m @ Z`` it heads (``Z @ m`` is not counted)."""

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and inputs[0] is self:
                products.append(inputs[1].shape)
            return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

    return m.view(Counting)


def _counted_newton(b):
    """:func:`solve_newton_X0` on ``b`` with each frame's m counting its
    products ``m @ Z``: the run's X and trace, its frames, the sweeps of each
    frame solve, and the products."""
    frames, sweeps, products = [], [], []
    make, solve = riccati._graph_frame, riccati._frame_solve

    def counting(*args):
        frame = make(*args)
        if frame is not None and frame.m is not None:
            frame = frame._replace(m=_counting_m(frame.m, products))
        frames.append(frame)
        return frame

    def recorded(b, frame):
        z, taken = solve(b, frame)
        sweeps.append(taken)
        return z, taken

    with mock.patch.object(riccati, "_graph_frame", counting), mock.patch.object(
        riccati, "_frame_solve", recorded
    ):
        x, trace = solve_newton_X0(b)
    return x, trace, frames, sweeps, products


@pytest.mark.parametrize("seed", range(5))
def test_gapped_newton_takes_one_frame_solve(seed):
    """Cost guard: on a gapped dim-80 problem the run is the Newton step
    from X = 0, one sweep in a frame with no e1 or e0, and one frame solve
    in one factorized frame, where the gate's bound decides every sweep
    and no ``m @ Z`` is formed."""
    b = random_case(40, 40, gap=1.0, coupling=0.5, seed=seed).block
    x, trace, frames, sweeps, products = _counted_newton(b)
    assert trace.converged
    assert trace.frames == 1 and trace.schur_steps == 0
    assert trace.iterations == 2 and trace.sweeps <= 8
    assert frames[0].e1 is None and frames[0].e0 is None and sweeps[0] == 1
    assert products == []
    x_ref, _ = _schur_only(b)
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def test_counted_m_z_products_are_formed_where_the_bound_declines():
    """The count is live: with the contraction bound just above the largest
    exact ratio of the frame solve, the bound declines at some sweep, that
    sweep forms ``m @ Z``, and the exact norm lets the solve go ahead."""
    b = random_case(40, 40, gap=1.0, coupling=0.5, seed=0).block
    x, f = _second_step(b)
    _, _, iterates = _exact_gate_solve(b, riccati._graph_frame(b, x, f))
    ratio = max(r for r, _, _, _ in iterates)
    with mock.patch.object(riccati, "GRAPH_FRAME_CONTRACTION_MAX", ratio * (1 + 1e-6)):
        _, trace, _, _, products = _counted_newton(b)
    assert trace.converged and trace.schur_steps == 0
    assert products and all(shape == (40, 40) for shape in products)


def _newton_blocks(b, **kwargs):
    """:func:`solve_newton_X0` on ``b``: its trace and the blocks, centred
    and scaled, that it made each graph frame of."""
    seen, make = [], riccati._graph_frame

    def recording(blocks, x, *args):
        seen.append(blocks)
        return make(blocks, x, *args)

    with mock.patch.object(riccati, "_graph_frame", recording):
        _, trace = solve_newton_X0(b, **kwargs)
    return trace, seen


def _eigh_A_rounding(blocks):
    """``norm_F(V1* A1 V1 - L1) + norm_F(L0 - V0* A0 V0)`` over ``eigh_A``
    and its a-priori bound ``KERNEL_PROOF_ROUNDING dim eps pq``."""
    (lam0, v0), (lam1, v1) = blocks.eigh_A
    measured = np.linalg.norm(v1.conj().T @ blocks.A1 @ v1 - np.diag(lam1))
    measured += np.linalg.norm(np.diag(lam0) - v0.conj().T @ blocks.A0 @ v0)
    pq = np.linalg.norm(blocks.A1) + np.linalg.norm(blocks.A0)
    return measured, riccati.KERNEL_PROOF_ROUNDING * blocks.dim * np.finfo(float).eps * pq


@PROPERTY
@given(
    seeds, st.integers(1, 12), st.integers(1, 12), st.floats(0.1, 4.0),
    st.floats(-1e6, 1e6),
)
def test_eigh_A_rounding_is_within_the_x0_frames_a_priori_bound(
    seed, n0, n1, coupling, s
):
    """The frame at X = 0 forms no e1 and e0: its gates take the bound
    ``KERNEL_PROOF_ROUNDING dim eps (norm_F(A1) + norm_F(A0))`` for
    ``norm_F(V1* A1 V1 - L1) + norm_F(L0 - V0* A0 V0)`` over ``eigh_A``.
    The measured value never exceeds it: on shifted ``random_case`` blocks
    and on the centred, power-of-two-scaled blocks Newton runs on."""
    b = random_case(n0, n1, gap=1.0, coupling=coupling, seed=seed).block
    shifted = BlockMatrix(b.A0 + s * np.eye(n0), b.A1 + s * np.eye(n1), b.W0, b.W1)
    _, seen = _newton_blocks(shifted, max_iter=1)
    for blocks in (shifted, *seen):
        measured, bound = _eigh_A_rounding(blocks)
        assert measured <= bound


def test_x0_frame_declines_on_spectra_touching_within_its_rounding_bound():
    """Negative control of the a-priori bound: diagonal blocks whose spectra
    come within the bound (A1's g against A0's 0). ``eigh_A`` of diagonal
    blocks is exact, so a gate on the measured e1, e0 would pass; the frame
    at X = 0 declines, and with the separation tolerance below the gap the
    step is the Schur step. At the default tolerance both routes refuse."""
    g = 1e-14
    w0 = np.full((3, 3), 0.1)
    w0[0, 2] = 0.0  # no coupling across the touching pair
    b = BlockMatrix(np.diag([-1.0, -0.5, 0.0]), np.diag([g, 0.5, 1.0]), w0, w0.T.copy())
    with pytest.raises(SylvesterSingularError):
        solve_newton_X0(b)
    with mock.patch.object(riccati, "SYLVESTER_SEPARATION_TOL", 1e-17):
        trace, (scaled,) = _newton_blocks(b, max_iter=1)
        assert trace.schur_steps == 1 and trace.sweeps == 0
        measured, bound = _eigh_A_rounding(scaled)
        frame = riccati._graph_frame(scaled, np.zeros((3, 3), complex), scaled.W0)
        assert measured < 0.5 * np.min(np.abs(frame.delta)) < bound
        assert riccati._frame_solve(scaled, frame) == (None, 0)


@PROPERTY
@given(
    seeds, st.integers(1, 9), st.integers(1, 9),
    st.sampled_from([0.1, 0.5, 1.0, 2.0, 4.0]),
)
def test_frame_equation_is_the_transformed_graph_equation(seed, n0, n1, coupling):
    """In the frame made at X', at any ``X = X' + t1 Z t0inv``, the frame's
    Riccati equation reads ``Phi(Z) = V1* F(X) V0`` with F formed from the
    blocks, and the separation gate's scale ``pq + 2 kappa norm_F(Z)
    norm(V)`` bounds ``norm_F(P(X)) + norm_F(Q(X))``, with kappa at least
    ``norm(t1) norm(t0inv)``. Z is the frame solve's first iterate
    ``-c / delta`` and a random matrix of its size."""
    rng = np.random.default_rng(seed)
    b = random_case(n0, n1, gap=1.0, coupling=coupling, seed=seed).block
    norm = np.linalg.norm
    x, f = _second_step(b)
    frame = riccati._graph_frame(b, x, f)
    t1, t0inv = frame.t1, frame.t0inv
    v1h, v0 = np.linalg.inv(t1), np.linalg.inv(t0inv)
    assert norm(t1, 2) * norm(t0inv, 2) <= frame.kappa * (1 + 1e-12)
    first = -frame.c / frame.delta
    for z in (first, _cmat(rng, n1, n0) * norm(first)):
        phi = frame.c + frame.delta * z + (frame.e1 - z @ frame.m) @ z + z @ frame.e0
        x_z = x + t1 @ z @ t0inv
        f_z = residual_X0(b, x_z).residual
        terms = norm(b.A1) * norm(x_z) + norm(x_z) ** 2 * norm(b.W1) + norm(f)
        rounding = 64 * np.finfo(float).eps * (n0 + n1) * frame.kappa**2 * terms
        assert norm(phi - v1h @ f_z @ v0) <= rounding
        pq = norm(b.A1 - x_z @ b.W1) + norm(b.A0 + b.W1 @ x_z)
        assert pq <= (frame.pq + 2 * frame.kappa * norm(z) * b.norm_V) * (1 + 1e-12)


@PROPERTY
@given(
    seeds, st.integers(1, 9), st.integers(1, 9), st.floats(0.1, 4.0),
    st.floats(-1e6, 1e6), st.sampled_from([1, 2, 3, 25]),
    st.sampled_from(["hermitian", "nearly"]),
)
def test_last_trace_entry_is_the_residual_of_the_returned_x(
    seed, n0, n1, coupling, s, max_iter, kind
):
    """The last entry of the trace, which decides ``converged``, is
    :func:`residual_X0` of the returned X on the caller's blocks, whether
    the run converged or ran out of steps, and whichever route took the
    steps."""
    b = random_case(n0, n1, gap=1.0, coupling=coupling, seed=seed).block
    a0 = b.A0 + s * np.eye(n0) + (1e-15j * np.eye(n0) if kind == "nearly" else 0)
    b = BlockMatrix(a0, b.A1 + s * np.eye(n1), b.W0, b.W1)
    x, trace = solve_newton_X0(b, max_iter=max_iter)
    true = residual_X0(b, x).rel_norm
    assert trace.iterates[-1] == pytest.approx(true, rel=1e-12, abs=0.0)
    assert trace.converged == (true <= 1e-12)
    assert len(trace.iterates) == trace.iterations + 1


@PROPERTY
@given(
    seeds, st.integers(1, 9), st.integers(1, 9),
    st.sampled_from([0.1, 0.5, 1.0, 2.0]), st.sampled_from(["m", "c"]),
)
def test_perturbed_frame_coordinates_never_report_false_convergence(
    seed, n0, n1, coupling, field
):
    """Negative control: with each generalized frame's ``m`` or ``c``
    perturbed by 1e-6 relative, the frame solves a wrong equation and lands
    off the solution. The run never reports ``converged`` with a true
    residual above tol, and still ends within 1e-12 of the all-Schur X
    (both at tol 1e-14, so that X is resolved to 1e-12)."""
    b = random_case(n0, n1, gap=1.0, coupling=coupling, seed=seed).block
    centred = BlockMatrix(*riccati._centred_A(b), b.W0, b.W1)
    x_ref, _ = _schur_newton(centred, tol=1e-14)
    make = riccati._graph_frame

    def perturbed(*args):
        frame = make(*args)
        if frame is None or frame.m is None:
            return frame
        return frame._replace(**{field: getattr(frame, field) * (1 + 1e-6)})

    with mock.patch.object(riccati, "_graph_frame", perturbed):
        x, trace = solve_newton_X0(b, tol=1e-14)
    assert trace.converged
    assert residual_X0(centred, x).rel_norm <= 1e-14
    assert np.linalg.norm(x - x_ref) <= 1e-12 * max(np.linalg.norm(x_ref), 1e-300)


def test_perturbed_frame_is_refreshed_at_the_final_check():
    """The negative control is not vacuous: on this problem the perturbed
    c makes the frame solve land on an X whose true residual does not pass
    tol, and the run takes one more frame and one more step than the
    unperturbed one."""
    b = random_case(7, 6, gap=1.0, coupling=0.5, seed=15).block
    _, reference = solve_newton_X0(b)
    make = riccati._graph_frame

    def perturbed(*args):
        frame = make(*args)
        return frame if frame.m is None else frame._replace(c=frame.c * (1 + 1e-6))

    with mock.patch.object(riccati, "_graph_frame", perturbed):
        _, trace = solve_newton_X0(b)
    assert trace.converged and reference.converged
    assert trace.frames == reference.frames + 1
    assert trace.iterations == reference.iterations + 1


# --- the graph certificate of riccati-solve ----------------------------------


def _g_plus_g_star(seed, n0, n1):
    """``g + g*`` for a random complex g: Hermitian, with the spectra of the
    diagonal blocks interlaced, where Newton from X = 0 mostly converges to
    a solution of the graph equation that is not the spectral one."""
    rng = np.random.default_rng(seed)
    n = n0 + n1
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = g + g.conj().T
    return BlockMatrix(h[:n0, :n0], h[n0:, n0:], h[n0:, :n0], h[:n0, n0:])


def _oracle_distance(b, x):
    """``norm_F(X - X0) / (1 + norm(X0))`` against the spectral X0 of a
    50-digit ``mpmath`` eigendecomposition of B."""
    import mpmath

    with mpmath.workdps(50):
        full = mpmath.matrix(b.full.tolist())
        q = mpmath.eigh(full)[1]
        n0, n1 = b.n0, b.n1
        v0 = mpmath.matrix([[q[i, j] for j in range(n0)] for i in range(n0)])
        v1 = mpmath.matrix([[q[n0 + i, j] for j in range(n0)] for i in range(n1)])
        x0 = v1 * mpmath.inverse(v0)
        norm_x0 = mpmath.sqrt(max(mpmath.eigh(x0.H * x0)[0]))
        dist = mpmath.mnorm(mpmath.matrix(x.tolist()) - x0, "f")
        return float(dist / (1 + norm_x0))


@settings(max_examples=60, deadline=None)
@given(
    seeds,
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from(["gapped", "interlaced"]),
    st.floats(0.05, 3.0),
    st.sampled_from([0.0, 1e-12, 1e-10, 1e-9]),
)
def test_x0_forward_error_bound_bounds_the_distance_to_the_spectral_x0(
    seed, n0, n1, kind, coupling, tilt
):
    """Whenever the gate passes, its value is at least the distance of
    Newton's X, or of X moved by ``tilt``, from the spectral X0, measured as
    the former cross-check did, against a 50-digit X0: it is never looser
    than that oracle."""
    if kind == "gapped":
        b = random_case(n0, n1, gap=1.0, coupling=coupling, seed=seed % 2**16).block
    else:
        b = _g_plus_g_star(seed, n0, n1)
    try:
        x, trace = solve_newton_X0(b)
    except SylvesterSingularError:
        assume(False)
    assume(trace.converged)
    x = x + tilt * np.random.default_rng(seed).standard_normal(x.shape)
    bound = riccati.x0_forward_error_bound(b, x)
    assert bound > 1e-8 or bound >= _oracle_distance(b, x)


def test_x0_forward_error_bound_refuses_a_frame_whose_ends_interlace():
    """The first interlaced case: Newton converges, to a solution that is
    not spectral, and the certificate refuses it outright."""
    b = _g_plus_g_star(0, 4, 4)
    x, trace = solve_newton_X0(b)
    assert trace.converged
    assert _oracle_distance(b, x) > 1e-2
    assert riccati.x0_forward_error_bound(b, x) == np.inf


def test_x0_forward_error_bound_certifies_the_hermitian_part_with_its_slack():
    """Input that is Hermitian only to tolerance is stored as its Hermitian
    part ``H = (B + B*) / 2``, here bitwise the neighbour it was made from,
    and the certificate runs on H with the stored slack
    ``norm_F(B - H) = norm_F(B - B*) / 2``, in the units of the blocks it
    scales by 2^-k; on bitwise Hermitian input the slack is 0."""
    b = random_case(5, 4, gap=1.0, coupling=0.5, seed=3).block
    raw = b.A0 + 1e-12j * np.eye(5)
    nearly = BlockMatrix(raw, b.A1, b.W0, b.W1)
    assert nearly.hermitian and np.array_equal(nearly.full, b.full)
    defect = frobenius_norm(raw - raw.conj().T)
    assert nearly.slack == pytest.approx(defect / 2, rel=1e-15) and b.slack == 0.0
    slacks = []
    original = riccati.frame_angle_bound

    def recorded(*args):
        slacks.append(args[-1])
        return original(*args)

    with mock.patch.object(riccati, "frame_angle_bound", recorded):
        bounds = [riccati.x0_forward_error_bound(m, solve_newton_X0(m)[0]) for m in (b, nearly)]
    h = b.assemble()
    h -= np.trace(h).real / h.shape[0] * np.eye(h.shape[0])
    k = np.frexp(np.max(np.abs(h.view(np.float64))))[1]
    assert slacks == [0.0, np.ldexp(nearly.slack, -k)]
    assert bounds[0] < bounds[1] <= 1e-8


def test_x0_forward_error_bound_refuses_non_hermitian_input():
    from blockdiag.errors import HypothesisError

    b = random_case(4, 4, gap=1.0, coupling=0.5, seed=0).block
    general = BlockMatrix(b.A0, b.A1, b.W0 + 1e-3, b.W1)
    assert not general.hermitian
    with pytest.raises(HypothesisError, match="requires Hermitian B"):
        riccati.x0_forward_error_bound(general, solve_newton_X0(b)[0])


def test_x0_forward_error_bound_refuses_a_given_mu_outside_its_ends():
    from blockdiag.errors import HypothesisError

    b = random_case(4, 4, gap=1.0, coupling=0.5, seed=0).block
    x = solve_newton_X0(b)[0]
    assert riccati.x0_forward_error_bound(b, x, 0.0) <= 1e-8
    with pytest.raises(HypothesisError, match="not between the Ritz values"):
        riccati.x0_forward_error_bound(b, x, 5.0)
