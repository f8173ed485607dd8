import numpy as np
import pytest

from blockdiag import subordinated
from blockdiag import (
    BlockMatrix,
    check_subordination,
    choose_mu,
    random_case,
    run_theorem,
)
from blockdiag.errors import HypothesisError, TheoremViolationError
from blockdiag.spectral import Subspace
from conftest import containment, eigvecs, kernel_pieces, kernel_split_dims


def test_check_subordination_gapped():
    b = BlockMatrix(np.diag([-1.0, 0.0]), np.diag([1.0, 2.0]), np.zeros((2, 2)), np.zeros((2, 2)))
    check = check_subordination(b, 0.5)
    assert check.subordinated
    assert check.gap == pytest.approx(1.0)


def test_check_subordination_analytic(analytic):
    check = check_subordination(analytic, 1.0)
    assert check.subordinated
    assert check.gap == pytest.approx(2.0)
    assert check.symmetric_V


def test_check_subordination_violated():
    b = BlockMatrix([1.0], [0.0], [0.0], [0.0])
    for mu in (-1.0, 0.5, 2.0):
        assert not check_subordination(b, mu).subordinated


def test_check_subordination_needs_hermitian_diagonal():
    b = BlockMatrix([[1j]], [[0.0]], [[0.0]], [[0.0]])
    with pytest.raises(HypothesisError):
        check_subordination(b, 0.0)


def test_choose_mu_midpoint(analytic):
    assert choose_mu(analytic) == pytest.approx(1.0)


def test_choose_mu_touching(one_point):
    assert choose_mu(one_point) == pytest.approx(0.0)


def test_kernel_split_decoupled():
    b = BlockMatrix([0.0], [2.0], [0.0], [0.0])
    assert subordinated._kernel_split(b, 0.0)
    assert kernel_split_dims(b, 0.0) == (1, 1, 0)


def test_kernel_split_one_point(one_point):
    assert subordinated._kernel_split(one_point, 0.0)
    assert kernel_split_dims(one_point, 0.0) == (2, 1, 1)
    # the kernel of B - mu, from numpy's eigh, is the direct sum of the
    # pieces and lies in the kernel of the diagonal part
    k = eigvecs(one_point, lambda w, band: np.abs(w) <= band).basis
    k0, k1 = kernel_pieces(one_point, 0.0)
    direct = np.block([[k0, np.zeros((2, 1))], [np.zeros((2, 1)), k1]])
    assert np.linalg.norm(k - direct @ (direct.conj().T @ k)) <= 1e-10
    assert np.linalg.norm(one_point.diagonal_part() @ k) <= 1e-10 * one_point.norm_A


def test_kernel_split_trivial_kernel():
    pf = random_case(4, 4, gap=1.0, coupling=0.3, seed=1)
    assert subordinated._kernel_split(pf.block, 0.0)
    assert kernel_split_dims(pf.block, 0.0)[0] == 0


@pytest.mark.parametrize("kernel_dim", [1, 2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_kernel_split_planted(kernel_dim, seed):
    pf = random_case(5, 5, gap=0.0, coupling=0.4, seed=seed, kernel_dim=kernel_dim)
    assert subordinated._kernel_split(pf.block, 0.0)
    assert kernel_split_dims(pf.block, 0.0) == (
        kernel_dim, (kernel_dim + 1) // 2, kernel_dim // 2
    )


@pytest.mark.parametrize("shift", [3.0, -1e4])
def test_kernel_split_planted_at_a_shifted_mu(shift):
    """``B + sI`` at ``mu = s`` has the kernel planted in B at 0, split the
    same way: the containment is measured against ``A_i - mu``."""
    b = random_case(5, 5, gap=0.0, coupling=0.4, seed=0, kernel_dim=2).block
    eye = shift * np.eye(5)
    shifted = BlockMatrix(b.A0 + eye, b.A1 + eye, b.W0, b.W1)
    assert subordinated._kernel_split(shifted, shift)
    assert kernel_split_dims(shifted, shift) == (2, 1, 1)


def _refused_before(monkeypatch, step):
    """run_theorem on asymmetric coupling, with ``step`` made to fail."""

    def unreachable(*args):
        raise AssertionError(f"{step} ran before the hypotheses were checked")

    monkeypatch.setattr(subordinated, step, unreachable)
    b = BlockMatrix([-1.0], [1.0], [0.5], [0.2])
    with pytest.raises(HypothesisError):
        run_theorem(b, mu=0.0)


def test_kernel_split_requires_symmetric_coupling(monkeypatch):
    # the private step checks no hypotheses; run_theorem checks them first
    _refused_before(monkeypatch, "_kernel_split")


def test_build_L_requires_symmetric_coupling(monkeypatch):
    _refused_before(monkeypatch, "_reducing_subspace")


def test_build_L_analytic(analytic):
    sub = run_theorem(analytic, mu=1.0).L
    assert sub.dim == 1
    expected = np.array([1.0, 1 - np.sqrt(2)])
    expected /= np.linalg.norm(expected)
    assert abs(np.vdot(expected, sub.basis[:, 0])) == pytest.approx(1.0, abs=1e-12)


def test_build_L_decoupled_is_h0():
    b = BlockMatrix(np.diag([-2.0, -1.0]), np.diag([1.0, 2.0]), np.zeros((2, 2)), np.zeros((2, 2)))
    sub = run_theorem(b, mu=0.0).L
    assert sub.dim == 2
    assert np.max(np.abs(sub.basis[2:, :])) <= 1e-12


def test_build_L_one_point(one_point):
    sub = run_theorem(one_point, mu=0.0).L
    assert sub.dim == 2
    # contains e1 (kernel in H0) and the eigenvector of the inner 2x2 block
    e1 = np.zeros((4, 1))
    e1[0, 0] = 1.0
    assert containment(Subspace(basis=e1), sub) <= 1e-10
    lam = (1 - np.sqrt(13)) / 2
    vec = np.zeros(4, dtype=complex)
    vec[1] = 1.0
    vec[3] = 1.0 + lam
    vec /= np.linalg.norm(vec)
    assert containment(Subspace(basis=vec[:, None]), sub) <= 1e-9


def test_run_theorem_analytic(analytic):
    result = run_theorem(analytic, mu=1.0)
    assert result.X[0, 0].real == pytest.approx(1 - np.sqrt(2), abs=1e-12)
    assert result.norm_X == pytest.approx(np.sqrt(2) - 1, abs=1e-12)
    assert result.norm_X < 1
    assert result.adjointness_residual <= 1e-12
    assert result.reduces_ok and result.kernel_split_ok


def test_run_theorem_decoupled_gap():
    b = BlockMatrix(np.diag([-2.0, -1.0]), np.diag([1.0, 2.0]), np.zeros((2, 2)), np.zeros((2, 2)))
    result = run_theorem(b)
    assert not result.X.any()
    assert result.norm_X == 0.0


def test_run_theorem_one_point(one_point):
    result = run_theorem(one_point, mu=0.0)
    expected = np.diag([0.0, (3 - np.sqrt(13)) / 2]).astype(complex)
    np.testing.assert_allclose(result.X, expected, atol=1e-10)
    assert result.norm_X == pytest.approx((np.sqrt(13) - 3) / 2, abs=1e-10)


def test_run_theorem_skew_pair_exact(one_point):
    result = run_theorem(one_point, mu=0.0)
    from blockdiag import form_pair

    pair = form_pair(result.X, -result.X.conj().T)
    y = pair.Y
    np.testing.assert_array_equal(y.conj().T, -y)


def test_run_theorem_rejects_bad_hypotheses():
    not_subordinated = BlockMatrix([1.0], [0.0], [0.3], [0.3])
    with pytest.raises(HypothesisError):
        run_theorem(not_subordinated, mu=0.5)
    asymmetric = BlockMatrix([-1.0], [1.0], [0.5], [0.2])
    with pytest.raises(HypothesisError):
        run_theorem(asymmetric, mu=0.0)


@pytest.mark.parametrize("coupling", [0.1, 0.5, 2.0])
@pytest.mark.parametrize("seed", range(5))
def test_run_theorem_random_contraction(coupling, seed):
    pf = random_case(6, 6, gap=1.0, coupling=coupling, seed=seed)
    result = run_theorem(pf.block, mu=0.0)
    assert result.norm_X < 1.0
    assert result.adjointness_residual <= 1e-10
    assert result.reduces_ok


@pytest.mark.parametrize("seed", range(3))
def test_run_theorem_planted_kernel(seed):
    pf = random_case(6, 6, gap=0.0, coupling=0.4, seed=seed, kernel_dim=2)
    result = run_theorem(pf.block, mu=0.0)
    assert result.kernel_split_ok
    assert result.norm_X <= 1.0 + 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_sandwich_inclusions(seed):
    """Strictly-below subspace inside L inside non-strictly-below subspace."""
    pf = random_case(5, 5, gap=0.0, coupling=0.3, seed=seed, kernel_dim=1)
    b = pf.block
    sub = run_theorem(b, mu=0.0).L
    below = eigvecs(b, lambda w, band: w < -band)
    below_eq = eigvecs(b, lambda w, band: w <= band)
    assert containment(below, sub) <= 1e-9
    assert containment(sub, below_eq) <= 1e-9


def test_sandwich_strict_on_one_point(one_point):
    sub = run_theorem(one_point, mu=0.0).L
    below = eigvecs(one_point, lambda w, band: w < -band)
    below_eq = eigvecs(one_point, lambda w, band: w <= band)
    assert below.dim < sub.dim < below_eq.dim
    assert containment(below, sub) <= 1e-9
    assert containment(sub, below_eq) <= 1e-9


def test_build_L_dimension_failure_detected():
    # mu below the whole spectrum cannot produce an n0-dimensional subspace;
    # run_theorem refuses such a mu earlier, as not subordinated
    b = BlockMatrix(np.diag([-2.0, -1.0]), np.diag([1.0, 2.0]), np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(TheoremViolationError):
        subordinated._reducing_subspace(b, -10.0)


@pytest.mark.parametrize("s", [1e6, 1e8, 1e9, 1e10])
def test_run_theorem_invariant_under_diagonal_shift(s):
    """``A0, A1 + sI`` at ``mu = s`` is the same problem. The band that
    classifies eigenvalues as equal to mu scales with ``norm(B - mu)``, not
    with ``norm(B)``, so a large shift keeps the kernel split and X, up to
    the rounding of an ``eigh`` at scale s."""
    b = random_case(4, 4, gap=1.0, coupling=0.5, seed=0).block
    x = run_theorem(b, mu=0.0).X
    shifted = BlockMatrix(b.A0 + s * np.eye(4), b.A1 + s * np.eye(4), b.W0, b.W1)
    result = run_theorem(shifted, mu=s)
    assert result.kernel_split_ok and result.reduces_ok
    assert np.linalg.norm(result.X - x) <= 4e-15 * s


def test_mu_band_no_wider_than_norm_b_near_the_spectrum_end():
    """With mu near the top of the spectrum ``norm(B - mu)`` is nearly
    ``2 norm(B)``; the band stays ``MU_BAND_TOL * norm(B)``, so an
    eigenvalue 1.5 band widths above mu is not routed as equal to it, and
    its eigenvector is not formed."""
    zero = np.zeros((2, 2))
    b = BlockMatrix(np.diag([-1.0, -0.5]), np.diag([0.5, 1.0]), zero, zero)
    mu = 1.0 - 1.5 * subordinated.MU_BAND_TOL
    v, below, at = subordinated._eigh_classified(b, mu)
    assert not at.any()
    assert list(below) == [True, True, True] and v.shape == (4, 3)


@pytest.mark.parametrize("s", [0.0, 1e10])
def test_subordination_band_invariant_under_diagonal_shift(s):
    """``A0, A1 + sI`` with mu shifted alike is the same problem: mu 0.12
    below sup spec(A0) is refused at every shift, and mu = sup spec(A0)
    is accepted, up to the rounding of the block spectra at scale s."""
    b = random_case(4, 4, gap=1.0, coupling=0.5, seed=0).block
    sup0 = float(b.eigvalsh_A[0][-1])
    shifted = BlockMatrix(b.A0 + s * np.eye(4), b.A1 + s * np.eye(4), b.W0, b.W1)
    assert not check_subordination(shifted, sup0 - 0.12 + s).subordinated
    with pytest.raises(HypothesisError):
        run_theorem(shifted, mu=sup0 - 0.12 + s)
    assert check_subordination(shifted, sup0 + s).subordinated


def test_subordination_band_no_wider_than_block_scale():
    """With mu near one end of the block spectra ``max|e - mu|`` is about
    ``2 max|e|``; the band stays ``DEFAULT_TOL * max|e|``, so mu 1.5 band
    widths below sup spec(A0) is refused."""
    zero = np.zeros((2, 2))
    b = BlockMatrix(np.diag([-1.0, -0.5]), np.diag([0.5, 1.0]), zero, zero)
    mu = -0.5 - 1.5 * subordinated.DEFAULT_TOL
    assert not check_subordination(b, mu).subordinated
