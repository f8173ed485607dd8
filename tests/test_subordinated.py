import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdiag import subordinated
from blockdiag import (
    BlockMatrix,
    ProblemFile,
    SubordinationCheck,
    check_subordination,
    choose_mu,
    random_case,
    run_theorem,
    save_problem,
)
from blockdiag.cli import main
from blockdiag.errors import HypothesisError, TheoremViolationError
from blockdiag.spectral import Subspace
from conftest import (
    containment,
    diagonal_part,
    eigvecs,
    kernel_pieces,
    kernel_split_dims,
    kernel_splits,
)


def test_check_subordination_gapped():
    b = BlockMatrix(np.diag([-1.0, 0.0]), np.diag([1.0, 2.0]), np.zeros((2, 2)), np.zeros((2, 2)))
    check = check_subordination(b, 0.5)
    assert check.subordinated
    assert check.gap == pytest.approx(1.0)


def test_check_subordination_analytic(analytic):
    check = check_subordination(analytic, 1.0)
    assert check.subordinated
    assert check.gap == pytest.approx(2.0)
    # the coupling hypothesis is B's own Hermiticity, which run_theorem reads
    assert analytic.hermitian


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
    assert run_theorem(b, mu=0.0).kernel_split_ok
    assert kernel_split_dims(b, 0.0) == (1, 1, 0)


def test_kernel_split_one_point(one_point):
    assert run_theorem(one_point, mu=0.0).kernel_split_ok
    assert kernel_split_dims(one_point, 0.0) == (2, 1, 1)
    # the kernel of B - mu, from numpy's eigh, is the direct sum of the
    # pieces and lies in the kernel of the diagonal part
    k = eigvecs(one_point, lambda w, band: np.abs(w) <= band).basis
    k0, k1 = kernel_pieces(one_point, 0.0)
    direct = np.block([[k0, np.zeros((2, 1))], [np.zeros((2, 1)), k1]])
    assert np.linalg.norm(k - direct @ (direct.conj().T @ k)) <= 1e-10
    assert np.linalg.norm(diagonal_part(one_point) @ k) <= 1e-10 * one_point.norm_A


def test_kernel_split_trivial_kernel():
    pf = random_case(4, 4, gap=1.0, coupling=0.3, seed=1)
    assert run_theorem(pf.block, mu=0.0).kernel_split_ok
    assert kernel_split_dims(pf.block, 0.0)[0] == 0


@pytest.mark.parametrize("kernel_dim", [1, 2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_kernel_split_planted(kernel_dim, seed):
    pf = random_case(5, 5, gap=0.0, coupling=0.4, seed=seed, kernel_dim=kernel_dim)
    assert run_theorem(pf.block, mu=0.0).kernel_split_ok
    assert kernel_split_dims(pf.block, 0.0) == (
        kernel_dim, (kernel_dim + 1) // 2, kernel_dim // 2
    )


@pytest.mark.parametrize("shift", [3.0, -1e4])
def test_kernel_split_planted_at_a_shifted_mu(shift):
    """``B + sI`` at ``mu = s`` has the kernel planted in B at 0, split the
    same way: the pieces are the null spaces of ``[A_i - mu; W]``."""
    b = random_case(5, 5, gap=0.0, coupling=0.4, seed=0, kernel_dim=2).block
    eye = shift * np.eye(5)
    shifted = BlockMatrix(b.A0 + eye, b.A1 + eye, b.W0, b.W1)
    assert run_theorem(shifted, mu=shift).kernel_split_ok
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
    # the kernel band checks no hypotheses; run_theorem checks them first
    _refused_before(monkeypatch, "_eigh_classified")


def _exact_case(seed, n0, n1, kernel_dim, gapped, coupling, shift, k):
    """A subordinated problem with an exact kernel of ``kernel_dim`` at 0
    (touching blocks; gapped input has none), shifted to ``mu = shift`` and
    scaled by ``2^k`` with its mu."""
    kernel_dim = min(kernel_dim, n0, n1)
    pf = random_case(
        n0, n1, gap=float(gapped), coupling=coupling, seed=seed,
        kernel_dim=0 if gapped else kernel_dim,
    )
    b, s = pf.block, 2.0**k
    eye0, eye1 = shift * np.eye(n0), shift * np.eye(n1)
    shifted = BlockMatrix(s * (b.A0 + eye0), s * (b.A1 + eye1), s * b.W0, s * b.W1)
    return shifted, s * shift


exact_cases = st.builds(
    _exact_case,
    seed=st.integers(0, 2**32 - 1),
    # at least two rows each, so that the kernel leaves some coupling
    n0=st.integers(2, 5),
    n1=st.integers(2, 5),
    kernel_dim=st.integers(0, 3),
    gapped=st.booleans(),
    coupling=st.floats(0.1, 4.0),
    shift=st.sampled_from([0.0, 3.0, -1e2, 1e4, -1e4]),
    k=st.integers(-60, 60),
)


@settings(max_examples=150, deadline=None)
@given(exact_cases)
def test_kernel_split_agrees_with_the_null_space_oracle(case):
    """On exact kernels at mu, touching or gapped, shifted and scaled, the
    split read off the rotated kernel basis holds, as the two null-space
    SVDs of ``[A_i - mu; W]`` say it does."""
    b, mu = case
    result = run_theorem(b, mu=mu)
    assert result.kernel_split_ok == kernel_splits(b, mu)
    assert result.kernel_split_ok


def _band_edge_mixed_kernel():
    """An exactly subordinated problem at mu = 0 whose mu band holds
    ``[e0; 0]`` and an eigenvector at +1.5e-9 mixed about evenly over H0
    and H1 (the band is about 2e-9 wide; the eigenvalue -2.5e-9 beside it
    lies below it)."""
    w1 = np.zeros((3, 2))
    w1[1, 0] = np.sqrt(3.75) * 1e-9
    w1[2, 1] = 0.3
    return BlockMatrix(np.diag([0.0, -1e-9, -1.0]), np.diag([0.0, 2.0]), w1.T, w1)


def test_band_edge_mixed_kernel_fails_the_split(tmp_path):
    b = _band_edge_mixed_kernel()
    result = run_theorem(b, mu=0.0)
    assert not kernel_splits(b, 0.0)
    assert not result.kernel_split_ok
    # the mixed vector's weights 1.936 : 2.5 put 0.612 of it on H0
    assert result.kernel_split_residual == pytest.approx(np.sqrt(0.375), rel=1e-6)
    assert max(result.invariance_residuals) <= 1e-12
    path, out = tmp_path / "mixed.json", tmp_path / "mixed.report.json"
    save_problem(path, ProblemFile(block=b, mu=0.0))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["subordinated", str(path), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["flags"] == {"kernel_split_ok": False}
    assert all(v <= 1e-12 for v in report["residuals"].values())
    assert report["verdict"] == {
        "decided_by": "kernel_split_ok",
        "margin": subordinated.KERNEL_SPLIT_TOL - result.kernel_split_residual,
    }


def _haar(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _both_near(seed):
    """Both block spectra 1e-11 from mu = 0, eigenvectors off Ker W."""
    rng = np.random.default_rng(seed)
    q0, q1 = _haar(rng, 4), _haar(rng, 3)
    a0 = (q0 * [-1e-11, -0.5, -1.0, -2.0]) @ q0.conj().T
    a1 = (q1 * [1e-11, 0.5, 1.5]) @ q1.conj().T
    w1 = 0.5 * (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
    hermitian = [0.5 * (a + a.conj().T) for a in (a0, a1)]
    return BlockMatrix(*hermitian, w1.conj().T, w1)


@pytest.mark.parametrize("case", ["gapped", "kernel", "near", "nearly_hermitian"])
def test_run_theorem_takes_no_full_height_svd(monkeypatch, case):
    """No SVD of n0 + n1 rows: the kernel split is read off the one SVD
    of the kernel basis's n1 x k H1 rows that builds L, and gapped input,
    with an empty band, takes none of that shape."""
    if case == "gapped":
        b = random_case(6, 5, gap=1.0, coupling=0.5, seed=4).block
    elif case == "kernel":
        b = random_case(5, 4, gap=0.0, coupling=0.5, seed=1, kernel_dim=2).block
    elif case == "near":
        b = _both_near(3)
    else:
        gapped = random_case(5, 4, gap=1.0, coupling=0.5, seed=1).block
        b = BlockMatrix(gapped.A0 + 1e-15j * np.eye(5), gapped.A1, gapped.W0, gapped.W1)
        assert b.hermitian_A and b.slack > 0.0
    shapes, svd = [], np.linalg.svd

    def recorded(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    result = run_theorem(b, mu=0.0)
    assert result.kernel_split_ok
    # the kernel basis's H1 rows, then the values-only SVD of X (to_graph)
    assert shapes == ([(b.n1, 2)] if case == "kernel" else []) + [(b.n1, b.n0)]


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


def _nearly_symmetric(seed, n0, n1, coupling, a_scale, rel):
    """A gapped case with A scaled by ``a_scale`` and ``W0 = W1* + δE``,
    ``norm_F(E) = 1`` and ``δ = rel norm_F(W1)``."""
    b = random_case(n0, n1, gap=1.0, coupling=coupling, seed=seed).block
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((n1, n0)) + 1j * rng.standard_normal((n1, n0))
    w0 = b.W1.conj().T + rel * np.linalg.norm(b.W1) * e / np.linalg.norm(e)
    return BlockMatrix(a_scale * b.A0, a_scale * b.A1, w0, b.W1)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n0=st.integers(1, 5),
    n1=st.integers(1, 5),
    coupling=st.floats(0.05, 5.0),
    a_scale=st.sampled_from([1.0, 1e-3]),
    rel=st.one_of(st.just(0.0), st.floats(-16.0, -6.0).map(lambda e: 10.0**e)),
)
def test_the_coupling_hypothesis_is_the_stored_hermiticity(seed, n0, n1, coupling, a_scale, rel):
    """Hermitian A and a coupling ``W0 = W1* + δE`` with ``δ / norm_F(W1)``
    from 0 to 1e-6: ``run_theorem`` returns exactly when the stored B is
    Hermitian and otherwise refuses with its check as the report,
    ``subordinated`` exits 0 or 2 to match, and ``check`` reports
    ``symmetric_offdiag`` as ``W0 = W1*`` bitwise of the stored blocks."""
    b = _nearly_symmetric(seed, n0, n1, coupling, a_scale, rel)
    try:
        run_theorem(b)
    except HypothesisError as exc:
        assert not b.hermitian and isinstance(exc.report, SubordinationCheck)
        assert exc.report.subordinated
    else:
        assert b.hermitian
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "problem.json", Path(tmp) / "report.json"
        save_problem(path, ProblemFile(block=b))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["subordinated", str(path)]) == (0 if b.hermitian else 2)
            main(["check", str(path), "--out", str(out)])
        flags = json.loads(out.read_text())["flags"]
    assert flags["symmetric_offdiag"] is np.array_equal(b.W0, b.W1.conj().T)


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
