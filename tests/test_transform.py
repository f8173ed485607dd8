import numpy as np
import pytest

from blockdiag import (
    BlockMatrix,
    diagonalize_left,
    diagonalize_right,
    form_pair,
    random_case,
    run_theorem,
    triangularize,
    verify_extended_identity,
    verify_resolvent_invariance,
    verify_spectral_identity,
)
from blockdiag.angular import GraphBase, GraphSubspace
from blockdiag.errors import ResolventError
from blockdiag.riccati import residual_X0
from blockdiag.transform import match_spectra
from blockdiag.spectral import eigenvalues
from conftest import random_block

SKEW_ANALYTIC = form_pair([[1 - np.sqrt(2)]], [[np.sqrt(2) - 1]])


def _zero_pair(n0, n1):
    return form_pair(np.zeros((n1, n0)), np.zeros((n0, n1)))


def _contractive_pair(rng, n0, n1, norm=0.4):
    x0 = rng.standard_normal((n1, n0)) + 1j * rng.standard_normal((n1, n0))
    x1 = rng.standard_normal((n0, n1)) + 1j * rng.standard_normal((n0, n1))
    return form_pair(
        norm * x0 / np.linalg.norm(x0, 2), norm * x1 / np.linalg.norm(x1, 2)
    )


def test_diagonalize_left_trivial():
    b = BlockMatrix(np.diag([1.0, 2.0]), np.diag([3.0]), np.zeros((1, 2)), np.zeros((2, 1)))
    res = diagonalize_left(b, _zero_pair(2, 1))
    np.testing.assert_allclose(res.transformed, b.diagonal_part(), atol=1e-14)
    assert res.offdiag_rel_norm == 0.0
    assert res.conditioning == pytest.approx(1.0)


def test_diagonalize_left_analytic(analytic):
    res = diagonalize_left(analytic, SKEW_ANALYTIC)
    expected = np.diag([1 - np.sqrt(2), 1 + np.sqrt(2)]).astype(complex)
    np.testing.assert_allclose(res.transformed, expected, atol=1e-12)
    np.testing.assert_allclose(res.diag_blocks[0], [[1 - np.sqrt(2)]], atol=1e-12)
    np.testing.assert_allclose(res.diag_blocks[1], [[1 + np.sqrt(2)]], atol=1e-12)


def test_diagonalize_right_analytic(analytic):
    res = diagonalize_right(analytic, SKEW_ANALYTIC)
    expected = np.diag([1 - np.sqrt(2), 1 + np.sqrt(2)]).astype(complex)
    np.testing.assert_allclose(res.transformed, expected, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_pipeline_offdiag_small_on_gapped_cases(seed):
    pf = random_case(5, 5, gap=1.0, coupling=0.7, seed=seed)
    result = run_theorem(pf.block, mu=0.0)
    for res in result.diag_results:
        assert res.offdiag_rel_norm <= 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_left_right_spectra_agree(seed):
    """Both conjugations are similarities, so their spectra match B's."""
    rng = np.random.default_rng(seed)
    b = random_block(rng, 3, 2)
    p = _contractive_pair(rng, 3, 2)
    full_spec = eigenvalues(b.assemble())
    left = diagonalize_left(b, p)
    right = diagonalize_right(b, p)
    scale = max(np.linalg.norm(b.assemble(), 2), 1.0)
    assert match_spectra(full_spec, eigenvalues(left.transformed)) <= 1e-9 * scale
    assert match_spectra(full_spec, eigenvalues(right.transformed)) <= 1e-9 * scale


def test_extended_identity_zero_pair():
    # Y = 0 solves the block equation only when V = 0; then both sides are A
    b = BlockMatrix(np.diag([1.0]), np.diag([2.0]), [[0.0]], [[0.0]])
    p = _zero_pair(1, 1)
    res = verify_extended_identity(b, p, diagonalize_right(b, p))
    assert res.identity == 0.0
    assert res.right_form == 0.0


def test_extended_identity_analytic(analytic):
    right = diagonalize_right(analytic, SKEW_ANALYTIC)
    res = verify_extended_identity(analytic, SKEW_ANALYTIC, right)
    assert res.identity <= 1e-12
    assert res.right_form <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_extended_identity_tracks_riccati_residual(seed):
    """For an arbitrary complementary pair the identity defect is controlled
    by the block equation residual (observed constant well under 1e2)."""
    rng = np.random.default_rng(seed)
    b = random_block(rng, 2, 2)
    p = _contractive_pair(rng, 2, 2, norm=0.3)
    from blockdiag.riccati import residual_block

    r = residual_block(b, p).rel_norm
    res = verify_extended_identity(b, p, diagonalize_right(b, p))
    assert res.identity <= 1e2 * max(r, 1e-15)
    assert res.right_form <= 1e2 * max(r, 1e-15)


def test_triangularize_zero_x0(analytic):
    res = triangularize(analytic, [[0.0]])
    np.testing.assert_array_equal(res.transformed, analytic.assemble())
    # lower-left block is exactly W0
    np.testing.assert_array_equal(res.transformed[1:, :1], analytic.W0)


def test_triangularize_analytic(analytic):
    res = triangularize(analytic, [[1 - np.sqrt(2)]])
    expected = np.array([[1 - np.sqrt(2), 1.0], [0.0, 1 + np.sqrt(2)]], dtype=complex)
    np.testing.assert_allclose(res.transformed, expected, atol=1e-12)
    assert res.lower_left_rel_norm <= 1e-13


@pytest.mark.parametrize("seed", range(6))
def test_triangularize_lower_left_is_riccati_residual(seed):
    rng = np.random.default_rng(seed)
    b = random_block(rng, 3, 2)
    x0 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    res = triangularize(b, x0)
    expected = residual_X0(b, x0).residual
    scale = np.linalg.norm(b.assemble(), 2) * (1 + np.linalg.norm(x0, 2)) ** 2
    assert np.max(np.abs(res.transformed[3:, :3] - expected)) <= 1e-12 * scale


@pytest.mark.parametrize("seed", range(6))
def test_triangularize_diag_blocks(seed):
    rng = np.random.default_rng(40 + seed)
    b = random_block(rng, 2, 3)
    x0 = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    res = triangularize(b, x0)
    scale = max(np.linalg.norm(b.assemble(), 2), 1.0) * (1 + np.linalg.norm(x0, 2)) ** 2
    np.testing.assert_allclose(
        res.transformed[:2, :2], res.diag_blocks[0], atol=1e-10 * scale
    )
    np.testing.assert_allclose(
        res.transformed[2:, 2:], res.diag_blocks[1], atol=1e-10 * scale
    )


def test_resolvent_invariance_decoupled():
    b = BlockMatrix(np.diag([1.0, 2.0]), np.diag([3.0]), np.zeros((1, 2)), np.zeros((2, 1)))
    g = GraphSubspace(base=GraphBase.H0, X=np.zeros((1, 2)))
    assert verify_resolvent_invariance(b, g, 1j) <= 1e-12


def test_resolvent_invariance_analytic_eigenspace(analytic):
    g = GraphSubspace(base=GraphBase.H0, X=[[1 - np.sqrt(2)]])
    assert verify_resolvent_invariance(b=analytic, g=g, lam=0.0) <= 1e-12


def test_resolvent_invariance_negative_control(analytic):
    # H0 itself is not invariant since W0 = 1 != 0
    g = GraphSubspace(base=GraphBase.H0, X=[[0.0]])
    assert verify_resolvent_invariance(analytic, g, 0.0) >= 1e-2


def test_resolvent_shift_near_spectrum_rejected(analytic):
    with pytest.raises(ResolventError):
        verify_resolvent_invariance(
            analytic, GraphSubspace(base=GraphBase.H0, X=[[0.0]]), 1 + np.sqrt(2)
        )


@pytest.mark.parametrize("seed", range(4))
def test_resolvent_invariance_shift_independent(seed):
    """Once the pair decomposes B, the defect is tiny for any valid shift."""
    pf = random_case(5, 5, gap=1.0, coupling=0.6, seed=seed)
    b = pf.block
    result = run_theorem(b, mu=0.0)
    g = GraphSubspace(base=GraphBase.H0, X=result.X)
    scale = np.linalg.norm(b.assemble(), 2)
    rng = np.random.default_rng(seed)
    spec = np.linalg.eigvalsh(b.assemble())
    checked = 0
    while checked < 5:
        lam = complex(rng.uniform(-2, 2) * scale, rng.uniform(0.2, 2) * scale)
        if np.min(np.abs(spec - lam)) < 1e-4 * scale:
            continue
        assert verify_resolvent_invariance(b, g, lam) / scale <= 1e-8
        checked += 1


def test_spectral_identity_decoupled():
    b = BlockMatrix(np.diag([1.0, 2.0]), np.diag([5.0]), np.zeros((1, 2)), np.zeros((2, 1)))
    rep = verify_spectral_identity(b, _zero_pair(2, 1), tol=1e-10)
    assert rep.ok
    assert rep.left_distance == 0.0


def test_spectral_identity_analytic(analytic):
    rep = verify_spectral_identity(analytic, SKEW_ANALYTIC, tol=1e-10)
    assert rep.ok
    assert rep.left_distance <= 1e-12
    assert rep.right_distance <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_spectral_identity_random_gapped(seed):
    pf = random_case(6, 6, gap=1.0, coupling=0.5, seed=seed)
    result = run_theorem(pf.block, mu=0.0)
    pair = form_pair(result.X, -result.X.conj().T)
    assert verify_spectral_identity(pf.block, pair, tol=1e-8).ok


def test_spectral_identity_detects_wrong_pair(analytic):
    wrong = form_pair([[0.3]], [[0.1]])
    rep = verify_spectral_identity(analytic, wrong, tol=1e-8)
    assert not rep.ok


def test_match_spectra_sorted_pairs():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([3.0 + 1e-12, 1.0, 2.0])
    assert match_spectra(a, b) <= 1e-11


@pytest.mark.parametrize("delta", [1e-6, 1e-4])
def test_invariance_defect_controls_offdiag(delta):
    """Perturbing an exact pair by delta moves both the graph invariance
    residuals and the conjugation's off-diagonal defect by O(delta)."""
    from blockdiag.angular import from_graph
    from blockdiag.spectral import invariance_residual

    pf = random_case(4, 4, gap=1.0, coupling=0.5, seed=8)
    b = pf.block
    exact = run_theorem(b, mu=0.0).X
    noisy = exact + delta * np.ones_like(exact)
    pair = form_pair(noisy, -noisy.conj().T)
    full = b.assemble()
    scale = np.linalg.norm(full, 2)
    eps = max(
        invariance_residual(full, from_graph(GraphSubspace(base="H0", X=pair.X0))),
        invariance_residual(full, from_graph(GraphSubspace(base="H1", X=pair.X1))),
    ) / scale
    offdiag = diagonalize_left(b, pair).offdiag_rel_norm
    assert eps > 0
    assert offdiag <= 1e2 * eps


@pytest.mark.parametrize("seed", range(3))
def test_non_hermitian_route_end_to_end(seed):
    """Sorted-Schur extraction feeds the whole transform stack for
    diagonally dominant non-Hermitian problems."""
    from blockdiag.cli import _spectral_route, choose_split_mu
    from blockdiag.riccati import residual_X0, residual_X1

    rng = np.random.default_rng(seed)
    a0 = np.diag([-2.0 + 0.5j, -1.5 - 0.3j]) + 0.05 * rng.standard_normal((2, 2))
    a1 = np.diag([1.0 + 1j, 2.0 - 0.2j]) + 0.05 * rng.standard_normal((2, 2))
    w0 = 0.1 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    w1 = 0.1 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    b = BlockMatrix(a0, a1, w0, w1)
    pair = _spectral_route(b, choose_split_mu(b))
    assert residual_X0(b, pair.X0).rel_norm <= 1e-12
    assert residual_X1(b, pair.X1).rel_norm <= 1e-12
    assert diagonalize_left(b, pair).offdiag_rel_norm <= 1e-12
    assert diagonalize_right(b, pair).offdiag_rel_norm <= 1e-12
    assert verify_spectral_identity(b, pair, tol=1e-8).ok


def test_zero_offdiag_forces_invariance():
    """An (numerically) exact block diagonalization certifies invariance."""
    from blockdiag.angular import from_graph
    from blockdiag.spectral import invariance_residual

    pf = random_case(5, 5, gap=1.0, coupling=0.7, seed=21)
    b = pf.block
    x = run_theorem(b, mu=0.0).X
    pair = form_pair(x, -x.conj().T)
    assert diagonalize_left(b, pair).offdiag_rel_norm <= 1e-10
    full = b.assemble()
    scale = np.linalg.norm(full, 2)
    for base, op in (("H0", pair.X0), ("H1", pair.X1)):
        g = from_graph(GraphSubspace(base=base, X=op))
        assert invariance_residual(full, g) / scale <= 1e-9
