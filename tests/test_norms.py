"""Norms by role: cheap gates are never looser than their exact 2-norm forms,
cached quantities are exact, and each expensive quantity is computed once.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdiag import (
    BlockMatrix,
    Subspace,
    diagonalize_left,
    diagonalize_right,
    form_pair,
    is_hermitian,
    is_symmetric_offdiag,
    random_case,
    residual_X0,
    run_theorem,
    triangularize,
)
from blockdiag import dirac, subordinated
from blockdiag.cli import main
from blockdiag.io import ProblemFile, save_problem
from blockdiag.errors import StructuralError
from blockdiag.spectral import invariance_residual
from conftest import random_block

PROPERTY = settings(max_examples=60, deadline=None)

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 8)
log_eps = st.floats(-17.0, -5.0)
log_scale = st.floats(-3.0, 3.0)
tols = st.sampled_from([1e-12, 1e-10, 1e-8, 1e-6])


def _norm2(m) -> float:
    return float(np.linalg.norm(m, 2)) if np.size(m) else 0.0


def _cmat(rng, r, c):
    return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))


def _hermitian(rng, n):
    m = _cmat(rng, n, n)
    return 0.5 * (m + m.conj().T)


def _hermitian_block(rng, n0, n1, scale=1.0):
    w1 = scale * _cmat(rng, n0, n1)
    return BlockMatrix(
        scale * _hermitian(rng, n0), scale * _hermitian(rng, n1), w1.conj().T, w1
    )


# --- gates imply their exact 2-norm counterparts --------------------------


# defects within a factor 10 of the tolerance, where the gates decide
near_tol = st.floats(-1.0, 1.0)
GATE = settings(max_examples=300, deadline=None)


def _unitary(rng, n):
    q, _ = np.linalg.qr(_cmat(rng, n, n))
    return q


def _defect(rng, r, c, rank_one):
    """Random perturbation of unit Frobenius norm, rank one or generic."""
    e = _cmat(rng, r, 1) @ _cmat(rng, 1, c) if rank_one else _cmat(rng, r, c)
    return e / np.linalg.norm(e)


@GATE
@given(seeds, dims, near_tol, log_scale, tols, st.booleans())
def test_is_hermitian_gate_implies_exact_test(seed, n, lr, ls, tol, rank_one):
    # flat spectra and rank-one defects make the Frobenius and 2-norm
    # quotients differ most, so a looser gate would show here
    rng = np.random.default_rng(seed)
    q = _unitary(rng, n)
    h = (q * rng.choice([-1.0, 1.0], n)) @ q.conj().T
    m = 10.0**ls * (h + 10.0**lr * tol * _defect(rng, n, n, rank_one))
    exact = _norm2(m - m.conj().T) <= tol * max(_norm2(m), 1.0)
    assert exact or not is_hermitian(m, tol)


@GATE
@given(seeds, dims, near_tol, log_scale, tols, st.booleans())
def test_is_symmetric_offdiag_gate_implies_exact_test(seed, n, lr, ls, tol, rank_one):
    rng = np.random.default_rng(seed)
    w1 = 10.0**ls * _unitary(rng, n)
    w0 = w1.conj().T + 10.0**ls * 10.0**lr * tol * _defect(rng, n, n, rank_one)
    b = BlockMatrix(np.eye(n), np.eye(n), w0, w1)
    exact = _norm2(b.W0 - b.W1.conj().T) <= tol * (1.0 + _norm2(b.W1))
    assert exact or not is_symmetric_offdiag(b, tol)


@PROPERTY
@given(seeds, dims, log_eps)
def test_orthonormality_gate_implies_exact_defect(seed, n, le):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(_cmat(rng, n + 2, n))
    q = q + 10.0**le * _cmat(rng, n + 2, n)
    try:
        Subspace(basis=q)
    except StructuralError:
        return
    assert _norm2(q.conj().T @ q - np.eye(n)) <= 1e-12


# --- Frobenius residuals bound their 2-norm values ------------------------


def _at_least(frobenius: float, exact: float) -> bool:
    return frobenius >= exact * (1.0 - 1e-12)


@PROPERTY
@given(seeds, dims, dims)
def test_invariance_residual_bounds_exact(seed, n, k):
    rng = np.random.default_rng(seed)
    m = _cmat(rng, n + k, n + k)
    q, _ = np.linalg.qr(_cmat(rng, n + k, k))
    mq = m @ q
    exact = _norm2(mq - q @ (q.conj().T @ mq))
    assert _at_least(invariance_residual(m, Subspace(basis=q)), exact)


@PROPERTY
@given(seeds, dims, dims, log_scale)
def test_riccati_rel_norm_bounds_exact(seed, n0, n1, ls):
    rng = np.random.default_rng(seed)
    b = random_block(rng, n0, n1)
    x = 10.0**ls * _cmat(rng, n1, n0)
    res = residual_X0(b, x)
    denom = (_norm2(b.diagonal_part()) + _norm2(b.offdiagonal_part())) * (
        1.0 + _norm2(x)
    ) ** 2
    assert _at_least(res.rel_norm, _norm2(res.residual) / denom)


@PROPERTY
@given(seeds, dims, dims, st.floats(0.0, 3.0))
def test_transform_residuals_bound_exact(seed, n0, n1, size):
    rng = np.random.default_rng(seed)
    b = random_block(rng, n0, n1)
    x0 = size * _cmat(rng, n1, n0)
    pair = form_pair(x0, -x0.conj().T)
    scale = _norm2(b.assemble())
    for result in (diagonalize_left(b, pair), diagonalize_right(b, pair)):
        t = result.transformed
        off = t.copy()
        off[:n0, :n0] = 0.0
        off[n0:, n0:] = 0.0
        assert _at_least(result.offdiag_rel_norm, _norm2(off) / scale)
    tri = triangularize(b, x0)
    exact = _norm2(tri.transformed[n0:, :n0]) / scale
    assert _at_least(tri.lower_left_rel_norm, exact)


@PROPERTY
@given(seeds, dims, dims, st.floats(0.1, 2.0))
def test_theorem_residuals_bound_exact(seed, n0, n1, coupling):
    b = random_case(n0, n1, gap=1.0, coupling=coupling, seed=seed % 2**16).block
    result = run_theorem(b, mu=0.0)
    full = b.assemble()
    scale = _norm2(full)
    left, right = result.diag_results
    d_left = np.zeros_like(full)
    d_right = np.zeros_like(full)
    d_left[:n0, :n0], d_left[n0:, n0:] = left.diag_blocks
    d_right[:n0, :n0], d_right[n0:, n0:] = right.diag_blocks
    exact = _norm2(d_right.conj().T - d_left) / scale
    assert _at_least(result.adjointness_residual, exact)
    q = result.L.basis
    mq = full @ q
    exact = _norm2(mq - q @ (q.conj().T @ mq)) / scale
    assert _at_least(result.invariance_residuals[0], exact)
    assert result.norm_X == pytest.approx(_norm2(result.X), rel=1e-12, abs=1e-15)


# --- cached norms are exact -----------------------------------------------


def _close(value: float, exact: float) -> bool:
    return abs(value - exact) <= 1e-12 * max(exact, 1e-300)


@PROPERTY
@given(seeds, dims, dims, log_scale, st.booleans(), st.booleans())
def test_cached_norms_match_exact(seed, n0, n1, ls, hermitian, eigh_first):
    rng = np.random.default_rng(seed)
    if hermitian:
        b = _hermitian_block(rng, n0, n1, 10.0**ls)
    else:
        b = random_block(rng, n0, n1, 10.0**ls)
    if eigh_first:
        _ = b.eigh
    assert _close(b.norm, _norm2(b.assemble()))
    assert _close(b.norm_A, _norm2(b.diagonal_part()))
    assert _close(b.norm_V, _norm2(b.offdiagonal_part()))


@PROPERTY
@given(seeds, dims, dims, st.floats(0.0, 10.0))
def test_closed_form_condition_matches_svd(seed, n0, n1, size):
    rng = np.random.default_rng(seed)
    b = random_block(rng, n0, n1)
    x0 = size * _cmat(rng, n1, n0)
    pair = form_pair(x0, -x0.conj().T)
    eye = np.eye(n0 + n1)
    for result, t in (
        (diagonalize_left(b, pair), eye - pair.Y),
        (diagonalize_right(b, pair), eye + pair.Y),
    ):
        assert result.conditioning == pytest.approx(np.linalg.cond(t, 2), rel=1e-10)


def test_condition_of_general_pair_uses_svd():
    rng = np.random.default_rng(3)
    b = random_block(rng, 3, 2)
    pair = form_pair(_cmat(rng, 2, 3), _cmat(rng, 3, 2))
    t = np.eye(5) - pair.Y
    assert diagonalize_left(b, pair).conditioning == pytest.approx(
        np.linalg.cond(t, 2), rel=1e-10
    )


# --- caches ----------------------------------------------------------------


def test_cached_arrays_are_read_only():
    b = random_case(4, 3, gap=1.0, coupling=0.5, seed=0).block
    w, v = b.eigh
    pair = form_pair(np.ones((3, 4)), -np.ones((4, 3)))
    for cached in (b.full, w, v, b.eigvals, pair.singular_values_X0):
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 0.0
    assert b.full is b.full and b.eigh is b.eigh and b.eigvals is b.eigvals
    fresh = b.assemble()
    assert fresh.flags.writeable
    fresh[0, 0] = 99.0
    assert b.full[0, 0] != 99.0


def test_swapped_and_new_blocks_do_not_share_caches():
    b = random_case(4, 3, gap=1.0, coupling=0.5, seed=1).block
    full, (w, v), norm = b.full, b.eigh, b.norm
    swapped = b.swapped()
    again = BlockMatrix(A0=b.A0, A1=b.A1, W0=b.W0, W1=b.W1)
    for other in (swapped, again):
        assert not {"full", "eigh", "norm"} & set(vars(other))
        assert other.full is not full and other.eigh[1] is not v
    perm = np.r_[4:7, 0:4]
    np.testing.assert_array_equal(swapped.full, full[np.ix_(perm, perm)])
    np.testing.assert_allclose(swapped.eigh[0], w, atol=1e-12)
    assert swapped.norm == pytest.approx(norm, rel=1e-12)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("kernel_dim,gap,mu", [(0, 1.0, 0.0), (4, 0.0, 0.0), (0, 1.0, None)])
def test_run_theorem_factors_once(monkeypatch, kernel_dim, gap, mu):
    b = random_case(6, 6, gap=gap, coupling=0.5, seed=2, kernel_dim=kernel_dim).block
    eigh_calls = _count_calls(monkeypatch, np.linalg, "eigh")
    checks = _count_calls(monkeypatch, subordinated, "check_subordination")
    result = run_theorem(b, mu=mu)
    assert result.kernel_split_ok and result.reduces_ok
    assert len(eigh_calls) == 1
    assert len(checks) == 1


@pytest.mark.parametrize(
    "kernel_dim,gap,mu_args", [(0, 1.0, []), (4, 0.0, []), (0, 1.0, ["--mu", "0"])]
)
def test_subordinated_command_checks_subordination_once(
    tmp_path, monkeypatch, capsys, kernel_dim, gap, mu_args
):
    b = random_case(6, 6, gap=gap, coupling=0.5, seed=2, kernel_dim=kernel_dim).block
    path = tmp_path / "problem.json"
    # no mu in the file, so without --mu the command chooses one
    save_problem(path, ProblemFile(block=b))
    checks = _count_calls(monkeypatch, subordinated, "check_subordination")
    choices = _count_calls(monkeypatch, subordinated, "choose_mu")
    spectra = _count_calls(monkeypatch, np.linalg, "eigvalsh")
    assert main(["subordinated", str(path), *mu_args]) == 0
    assert len(checks) == 1
    assert len(choices) == (0 if mu_args else 1)
    # one values-only spectrum per block serves choose_mu, the subordination
    # check and norm(A)
    assert len(spectra) <= 2


def test_dirac_pipeline_builds_operators_once(monkeypatch):
    problem = dirac.DiracProblem(
        grid=dirac.GridSpec(n=4), potential=dirac.ImpurityPotential(amplitude=0.05)
    )
    calls = _count_calls(monkeypatch, dirac, "build_operators")
    result = dirac.run_dirac_pipeline(problem)
    assert len(calls) == 1
    direct = dirac.check_subordination_split(problem)
    assert direct == result.split


def test_dirac_pipeline_reads_each_block_spectrum_once(monkeypatch):
    problem = dirac.DiracProblem(
        grid=dirac.GridSpec(n=4), potential=dirac.ImpurityPotential(amplitude=0.05)
    )
    spectra = _count_calls(monkeypatch, np.linalg, "eigvalsh")
    result = dirac.run_dirac_pipeline(problem)
    assert len(spectra) == 2
    bm = dirac.fw_transform(problem)
    for got, block in zip(result.block_eigenvalues, (bm.A0, bm.A1)):
        assert np.array_equal(got, np.linalg.eigvalsh(block))


def test_dirac_subordination_failure_builds_operators_once(tmp_path, monkeypatch):
    problem = dirac.DiracProblem(
        grid=dirac.GridSpec(n=4), potential=dirac.ImpurityPotential(amplitude=5.0)
    )
    expected = dirac.check_subordination_split(problem)
    assert not expected.subordinated
    calls = _count_calls(monkeypatch, dirac, "build_operators")
    out = tmp_path / "report.json"
    assert main(["dirac", "--n", "4", "--amplitude", "5", "--out", str(out)]) == 2
    assert len(calls) == 1
    report = json.loads(out.read_text())
    assert report["flags"] == {"subordinated": False}
    assert report["certificates"]["subordination"] == {
        "sup_spec_A1": expected.sup_spec_A1,
        "inf_spec_A0": expected.inf_spec_A0,
        "margin": expected.margin,
        "u_inf": expected.u_inf,
        "k_min": expected.k_min,
        "block_identity_residual": expected.block_identity_residual,
    }
