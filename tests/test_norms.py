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
    diagonalize,
    form_pair,
    is_hermitian,
    is_symmetric_offdiag,
    random_case,
    residual_X0,
    run_theorem,
    spectral_pair,
    triangularize,
)
from blockdiag import dirac, from_graph, subordinated
from blockdiag.angular import GraphBase, GraphSubspace
from blockdiag.cli import main
from blockdiag.core import DEFAULT_TOL
from blockdiag.io import ProblemFile, save_problem
from blockdiag.errors import StructuralError
from blockdiag.spectral import invariance_residual
from conftest import offdiagonal_part, random_block, split_report, staged_eigh_calls

PROPERTY = settings(max_examples=60, deadline=None)

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 8)
log_eps = st.floats(-17.0, -5.0)
log_scale = st.floats(-3.0, 3.0)


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
@given(seeds, dims, near_tol, log_scale, st.booleans())
def test_is_hermitian_gate_implies_exact_test(seed, n, lr, ls, rank_one):
    # flat spectra and rank-one defects make the Frobenius and 2-norm
    # quotients differ most, so a looser gate would show here
    rng = np.random.default_rng(seed)
    q = _unitary(rng, n)
    h = (q * rng.choice([-1.0, 1.0], n)) @ q.conj().T
    m = 10.0**ls * (h + 10.0**lr * DEFAULT_TOL * _defect(rng, n, n, rank_one))
    exact = _norm2(m - m.conj().T) <= DEFAULT_TOL * _norm2(m)
    assert exact or not is_hermitian(m)


@GATE
@given(seeds, dims, near_tol, log_scale, st.booleans())
def test_is_symmetric_offdiag_gate_implies_exact_test(seed, n, lr, ls, rank_one):
    rng = np.random.default_rng(seed)
    w1 = 10.0**ls * _unitary(rng, n)
    w0 = w1.conj().T + 10.0**ls * 10.0**lr * DEFAULT_TOL * _defect(rng, n, n, rank_one)
    b = BlockMatrix(np.eye(n), np.eye(n), w0, w1)
    exact = _norm2(b.W0 - b.W1.conj().T) <= DEFAULT_TOL * _norm2(b.W1)
    assert exact or not is_symmetric_offdiag(b)


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
    denom = (_norm2(b.diagonal_part()) + _norm2(offdiagonal_part(b))) * (
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
    full = b.assemble()
    scale = _norm2(full)
    # the literal conjugations (I - Y) B (I - Y)^{-1} and (I + Y)^{-1} B (I + Y)
    minus, plus = np.eye(b.dim) - pair.Y, np.eye(b.dim) + pair.Y
    literal = (minus @ full @ np.linalg.inv(minus), np.linalg.solve(plus, full @ plus))
    for result, t in zip(diagonalize(b, pair), literal):
        off = t.copy()
        off[:n0, :n0] = 0.0
        off[n0:, n0:] = 0.0
        assert _at_least(result.offdiag_rel_norm, _norm2(off) / scale)
    tri = triangularize(b, x0)
    # the literal U B U^{-1} for U = [[I, 0], [-X0, I]], U^{-1} = 2 I - U
    u = np.eye(b.dim, dtype=complex)
    u[n0:, :n0] = -x0
    lower_left = (u @ full @ (2 * np.eye(b.dim) - u))[n0:, :n0]
    assert _at_least(tri.lower_left_rel_norm, _norm2(lower_left) / scale)


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


@PROPERTY
@given(seeds, dims, dims, st.floats(0.1, 2.0))
def test_theorem_complement_residual_bounds_exact(seed, n0, n1, coupling):
    b = random_case(n0, n1, gap=1.0, coupling=coupling, seed=seed % 2**16).block
    result = run_theorem(b, mu=0.0)
    # the exact defect of graph(-X*), from an independent QR basis
    exact = _dense_defect(b.assemble(), GraphBase.H1, -result.X.conj().T)
    assert _at_least(result.invariance_residuals[1], exact)


def _dense_defect(full, base, x) -> float:
    """``norm_F((I - P) B P) / norm(B)`` for P onto graph(x), from a QR basis."""
    q = from_graph(GraphSubspace(base=base, X=x)).basis
    mq = full @ q
    return np.linalg.norm(mq - q @ (q.conj().T @ mq)) / _norm2(full)


@pytest.mark.parametrize("size", [1e-6, 1e-3])
@pytest.mark.parametrize("seed", range(3))
def test_theorem_residuals_fail_on_a_perturbed_angular_operator(
    tmp_path, monkeypatch, seed, size
):
    """Negative control: ``run_theorem`` sees ``X + E``.

    The frame residuals then read the defect of graph(X + E) and of its
    complement; ``invariance_residuals[0]`` also carries its distance term
    ``2 norm_F(Q1 - (X + E) Q0)``, of the size of E, because it bounds the
    defect of the eigenvector basis L, which E does not move.
    """
    problem = random_case(6, 5, gap=1.0, coupling=0.5, seed=seed)
    b = problem.block
    rng = np.random.default_rng(seed)
    e = _cmat(rng, 5, 6)
    e *= size / np.linalg.norm(e)
    extract = subordinated.to_graph

    def perturbed(u, base):
        return GraphSubspace(base=base, X=extract(u, base).X + e)

    monkeypatch.setattr(subordinated, "to_graph", perturbed)
    result = run_theorem(b, mu=0.0)
    full = b.assemble()
    x = result.X
    d = _dense_defect(full, GraphBase.H0, x)
    assert d == pytest.approx(
        _dense_defect(full, GraphBase.H1, -x.conj().T), rel=1e-6
    )
    res_l, res_perp = result.invariance_residuals
    left, right = result.diag_results
    for value in (res_perp, left.offdiag_rel_norm, right.offdiag_rel_norm):
        assert d / 2 <= value <= 2 * d
    q = result.L.basis
    distance = np.linalg.norm(q[6:] - x @ q[:6])
    assert d <= res_l and d / 2 <= res_l - 2 * distance <= 2 * d
    assert not result.reduces_ok
    path = tmp_path / "problem.json"
    save_problem(path, problem)
    assert main(["subordinated", str(path), "--mu", "0"]) == 1


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
    assert _close(b.norm_V, _norm2(offdiagonal_part(b)))


@PROPERTY
@given(seeds, dims, dims, st.floats(0.0, 10.0))
def test_closed_form_condition_matches_svd(seed, n0, n1, size):
    rng = np.random.default_rng(seed)
    b = random_block(rng, n0, n1)
    x0 = size * _cmat(rng, n1, n0)
    pair = form_pair(x0, -x0.conj().T)
    eye = np.eye(n0 + n1)
    left, right = diagonalize(b, pair)
    for result, t in ((left, eye - pair.Y), (right, eye + pair.Y)):
        assert result.conditioning == pytest.approx(np.linalg.cond(t, 2), rel=1e-10)


def test_condition_of_general_pair_uses_svd():
    rng = np.random.default_rng(3)
    b = random_block(rng, 3, 2)
    pair = form_pair(_cmat(rng, 2, 3), _cmat(rng, 3, 2))
    t = np.eye(5) - pair.Y
    assert diagonalize(b, pair)[0].conditioning == pytest.approx(
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
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("kernel_dim,gap,mu", [(0, 1.0, 0.0), (4, 0.0, 0.0), (0, 1.0, None)])
def test_run_theorem_factors_once(monkeypatch, kernel_dim, gap, mu):
    """One staged eigensolve of B, which back-transforms only the
    eigenvectors the theorem reads: those below mu and in its kernel."""
    b = random_case(6, 6, gap=gap, coupling=0.5, seed=2, kernel_dim=kernel_dim).block
    w = np.linalg.eigvalsh(b.assemble())
    stages = staged_eigh_calls(monkeypatch)
    numpy_eigh_calls = _count_calls(monkeypatch, np.linalg, "eigh")
    checks = _count_calls(monkeypatch, subordinated, "check_subordination")
    result = run_theorem(b, mu=mu)
    assert result.kernel_split_ok and result.reduces_ok
    assert stages["zhetrd"] == [(b.dim, b.dim)] and stages["dstevd"] == [b.dim]
    # the eigenvalues are 0.4 or more from mu, or in the kernel at mu = 0:
    # n0 - kernel_dim / 2 below mu and kernel_dim at it
    read = int(np.count_nonzero(w < result.mu + 1e-6))
    assert stages["zunmqr"] == [(b.dim, read)] and read == b.n0 + kernel_dim // 2
    assert stages["zheevd"] == [] and numpy_eigh_calls == []
    assert len(checks) == 1


def test_scale_of_a_fresh_hermitian_block_forms_no_eigenvector(monkeypatch):
    """``norm(B)`` of a bitwise-Hermitian B is read off its eigenvalues, so
    the library calls that need only that scale, ``triangularize(b, X0)``
    and ``diagonalize(b, pair)`` with a caller's pair, back-transform no
    eigenvector. The tridiagonal solve (``dstevd``) still forms its own."""
    ref = random_case(6, 5, gap=1.0, coupling=0.5, seed=4).block
    pair = spectral_pair(ref, 0.0)
    stages = staged_eigh_calls(monkeypatch)
    assert BlockMatrix(ref.A0, ref.A1, ref.W0, ref.W1).norm == ref.norm
    triangularize(BlockMatrix(ref.A0, ref.A1, ref.W0, ref.W1), pair.X0)
    diagonalize(BlockMatrix(ref.A0, ref.A1, ref.W0, ref.W1), pair)
    assert stages["zhetrd"] == [(ref.dim, ref.dim)] * 3
    assert stages["zunmqr"] == [] and stages["zheevd"] == []


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
    direct = split_report(problem)
    assert direct == result.split


def test_dirac_pipeline_reads_each_block_spectrum_once(monkeypatch):
    problem = dirac.DiracProblem(
        grid=dirac.GridSpec(n=4), potential=dirac.ImpurityPotential(amplitude=0.05)
    )
    spectra = _count_calls(monkeypatch, np.linalg, "eigvalsh")
    result = dirac.run_dirac_pipeline(problem)
    bm = dirac.fw_transform(problem)
    # A0 and A1 once each, and nothing else: the angle certificate reads
    # the theorem's frame and takes no eigvalsh
    arguments = [args[0] for args in spectra]
    for block in (bm.A0, bm.A1):
        assert sum(np.array_equal(a, block) for a in arguments) == 1
    assert len(arguments) == 2
    for got, block in zip(result.block_eigenvalues, (bm.A0, bm.A1)):
        assert np.array_equal(got, np.linalg.eigvalsh(block))


def test_dirac_subordination_failure_builds_operators_once(tmp_path, monkeypatch):
    problem = dirac.DiracProblem(
        grid=dirac.GridSpec(n=4), potential=dirac.ImpurityPotential(amplitude=5.0)
    )
    expected = split_report(problem)
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
