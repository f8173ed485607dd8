"""Fast paths against the general paths they replace.

Bitwise-Hermitian input reads spectra, shift scales and resolvent norms off
cached eigendecompositions; every other input keeps the general
factorization. Each fast path must agree with its general form, and the
count tests pin which factorizations a command runs.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blockdiag import (
    BlockMatrix,
    check_complementary,
    diagonalize_left,
    diagonalize_right,
    estimate_relative_bound,
    form_pair,
    random_case,
    resolvent_norm,
    run_theorem,
    save_problem,
    solve_newton_X0,
)
from blockdiag import angular, dirac, subordinated
from blockdiag.angular import GraphBase, to_graph
from blockdiag.cli import _spectral_route, main
from blockdiag.errors import IllPosedRegionError
from blockdiag.io import ProblemFile
from blockdiag.spectral import invariant_subspace_by_region
from conftest import random_block

PROPERTY = settings(max_examples=60, deadline=None)

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 7)
log_scale = st.floats(-3.0, 3.0)
#: how the diagonal blocks are built: bitwise Hermitian, Hermitian up to a
#: rounding-size defect (tolerance test passes, bitwise test fails), generic
kinds = st.sampled_from(["hermitian", "nearly", "general"])


def _cmat(rng, r, c):
    return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))


def _hermitian(rng, n):
    m = _cmat(rng, n, n)
    return 0.5 * (m + m.conj().T)


def _block(rng, n0, n1, kind, scale=1.0):
    if kind == "general":
        return random_block(rng, n0, n1, scale)
    a0, a1 = _hermitian(rng, n0), _hermitian(rng, n1)
    w1 = _cmat(rng, n0, n1)
    w0 = w1.conj().T
    if kind == "nearly":
        a0 = a0 + 1e-15 * _cmat(rng, n0, n0)
        w0 = w0 + 1e-15 * _cmat(rng, n1, n0)
    return BlockMatrix(scale * a0, scale * a1, scale * w0, scale * w1)


def _norm2(m) -> float:
    return float(np.linalg.norm(m, 2))


def _sigma_min_svd(m) -> float:
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def _shift(rng, b, near):
    """Random complex shift, at about the spectral scale or beyond it."""
    r = (1.0 if near else 3.0) * max(b.norm, 1e-300)
    return complex(r * rng.uniform(-1, 1), r * rng.uniform(-1, 1))


# --- fast paths run only on bitwise-Hermitian input -----------------------


@PROPERTY
@given(seeds, dims, dims, kinds)
def test_fast_paths_select_on_bitwise_hermitian(seed, n0, n1, kind):
    b = _block(np.random.default_rng(seed), n0, n1, kind)
    full = b.assemble()
    assert b.bitwise_hermitian == np.array_equal(full, full.conj().T)
    assert b.bitwise_hermitian == (kind == "hermitian")
    assert (b.eigh_A is None) == (kind != "hermitian")


# --- equivalences ---------------------------------------------------------


@PROPERTY
@given(seeds, dims, dims, kinds, log_scale, st.booleans())
def test_eigvals_match_general_eigvals(seed, n0, n1, kind, ls, eigh_first):
    b = _block(np.random.default_rng(seed), n0, n1, kind, 10.0**ls)
    if eigh_first:
        _ = b.eigh
    w = np.linalg.eigvals(b.assemble())
    ref = w[np.lexsort((w.imag, w.real))]
    assert b.eigvals.dtype == np.complex128
    assert np.max(np.abs(b.eigvals - ref)) <= 1e-12 * b.norm
    if kind == "hermitian":
        assert np.all(b.eigvals.imag == 0.0)
        assert np.all(np.diff(b.eigvals.real) >= 0.0)


@PROPERTY
@given(seeds, dims, dims, kinds, log_scale, st.booleans())
def test_shifted_sigma_min_matches_svd(seed, n0, n1, kind, ls, near):
    rng = np.random.default_rng(seed)
    b = _block(rng, n0, n1, kind, 10.0**ls)
    lam = _shift(rng, b, near)
    eye = np.eye(b.dim)
    bound = 1e-12 * (b.norm + abs(lam))
    assert abs(b.sigma_min_shifted(lam) - _sigma_min_svd(b.assemble() - lam * eye)) <= bound
    exact_a = _sigma_min_svd(b.diagonal_part() - lam * eye)
    assert abs(b.sigma_min_shifted_A(lam) - exact_a) <= bound


@PROPERTY
@given(seeds, dims, dims, kinds, log_scale, st.booleans())
def test_resolvent_norm_matches_solve_and_svd(seed, n0, n1, kind, ls, near):
    rng = np.random.default_rng(seed)
    b = _block(rng, n0, n1, kind, 10.0**ls)
    lam = _shift(rng, b, near)
    a = b.diagonal_part()
    shifted = a - lam * np.eye(b.dim)
    # keep the shift well inside the resolvent set, where both forms are
    # accurate to rounding
    assume(_sigma_min_svd(shifted) >= 1e-2 * b.norm_A)
    product = np.linalg.solve(shifted.conj().T, b.offdiagonal_part().conj().T).conj().T
    assert resolvent_norm(b, lam) == pytest.approx(_norm2(product), rel=1e-12)


def _reference_route(b, mu):
    """The two ``invariant_subspace_by_region`` calls the route replaced."""
    full = b.assemble()
    below = invariant_subspace_by_region(full, lambda z: z.real < mu, hermitian=True)
    above = invariant_subspace_by_region(full, lambda z: z.real >= mu, hermitian=True)
    x0 = to_graph(below.with_partition(b.n0), GraphBase.H0).X
    x1 = to_graph(above.with_partition(b.n0), GraphBase.H1).X
    return x0, x1


@PROPERTY
@given(seeds, dims, dims, st.floats(0.05, 2.0))
def test_spectral_route_matches_region_subspaces(seed, n0, n1, coupling):
    b = random_case(n0, n1, gap=1.0, coupling=coupling, seed=seed % 2**16).block
    x0, x1 = _reference_route(b, 0.0)
    pair = _spectral_route(b, 0.0)
    np.testing.assert_allclose(pair.X0, x0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(pair.X1, x1, rtol=0, atol=1e-12)


def test_spectral_route_checks_both_subspaces(monkeypatch):
    from blockdiag import spectral

    b = random_case(4, 3, gap=1.0, coupling=0.5, seed=6).block
    gaps = _record_shapes(monkeypatch, spectral, "_check_region_gap")
    residuals = _record_shapes(monkeypatch, spectral, "invariance_residual")
    _spectral_route(b, 0.0)
    assert len(gaps) == 2 and residuals == [(7, 7), (7, 7)]


def test_spectral_route_keeps_the_region_gap_check():
    # eigenvalues 1 and 1 + 1e-12 on either side of mu: ill-posed both ways
    b = BlockMatrix(np.diag([-1.0, 1.0]), [[1.0 + 1e-12]], np.zeros((1, 2)), np.zeros((2, 1)))
    mu = 1.0 + 5e-13
    with pytest.raises(IllPosedRegionError):
        _reference_route(b, mu)
    with pytest.raises(IllPosedRegionError):
        _spectral_route(b, mu)


def _condition_svd(t) -> float:
    """The former per-transform condition number: one SVD of ``t`` itself."""
    s = np.linalg.svd(t, compute_uv=False)
    return float("inf") if s[-1] == 0.0 else float(s[0] / s[-1])


@PROPERTY
@given(seeds, dims, dims, st.floats(0.0, 3.0))
def test_shared_i_plus_y_matches_per_transform_svd(seed, n0, n1, size):
    rng = np.random.default_rng(seed)
    b = random_block(rng, n0, n1)
    pair = form_pair(size * _cmat(rng, n1, n0), size * _cmat(rng, n0, n1))
    eye = np.eye(n0 + n1)
    minus, plus = eye - pair.Y, eye + pair.Y
    assert diagonalize_left(b, pair).conditioning == pytest.approx(
        _condition_svd(minus), rel=1e-10
    )
    assert diagonalize_right(b, pair).conditioning == pytest.approx(
        _condition_svd(plus), rel=1e-10
    )
    comp = check_complementary(pair)
    assert comp.sigma_min == _sigma_min_svd(plus)
    assert comp.sigma_min == pytest.approx(_sigma_min_svd(minus), rel=1e-10, abs=1e-15)
    assert comp.norm_Y == pytest.approx(_norm2(pair.Y), rel=1e-12, abs=1e-300)


# --- factorization counts -------------------------------------------------


def _record_shapes(monkeypatch, owner, name):
    shapes = []
    original = getattr(owner, name)

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return shapes


def _kernels(monkeypatch):
    return {
        "eigh": _record_shapes(monkeypatch, np.linalg, "eigh"),
        "eigvals": _record_shapes(monkeypatch, np.linalg, "eigvals"),
        "svd": _record_shapes(monkeypatch, np.linalg, "svd"),
        "schur": _record_shapes(monkeypatch, scipy.linalg, "schur"),
        "qr": _record_shapes(monkeypatch, np.linalg, "qr"),
    }


def _check_file(tmp_path, block):
    path = tmp_path / "problem.json"
    save_problem(path, ProblemFile(block=block, mu=0.0))
    return str(path)


def test_check_factors_a_hermitian_matrix_once(tmp_path, monkeypatch):
    b = random_case(6, 5, gap=1.0, coupling=0.5, seed=4).block
    path = _check_file(tmp_path, b)
    calls = _kernels(monkeypatch)
    assert main(["check", path, "--lambdas", "4"]) == 0
    full = (b.dim, b.dim)
    assert calls["eigh"].count(full) == 1
    assert full not in calls["eigvals"]
    assert calls["schur"] == []
    # sigma_min(I + Y) is the one full-size SVD; no shift takes one
    assert calls["svd"].count(full) == 1
    # each graph basis is orthonormalized once, not once per shift
    assert calls["qr"] == [(b.dim, b.n0), (b.dim, b.n1)]


def test_check_of_non_hermitian_matrix_takes_schur_route(tmp_path, monkeypatch):
    rng = np.random.default_rng(2)
    block = BlockMatrix(
        np.diag([-2.0 + 0.5j, -1.5 - 0.3j]),
        np.diag([1.0 + 1j, 2.0 - 0.2j]),
        0.1 * _cmat(rng, 2, 2),
        0.1 * _cmat(rng, 2, 2),
    )
    path = _check_file(tmp_path, block)
    calls = _kernels(monkeypatch)
    assert main(["check", path, "--lambdas", "3"]) == 0
    assert calls["eigh"] == []
    assert calls["schur"] == [(4, 4), (4, 4)]
    assert calls["eigvals"].count((4, 4)) == 1
    # the two region scales, I + Y, norm(B), and one per shift
    assert calls["svd"].count((4, 4)) == 2 + 1 + 1 + 3


def test_check_of_nearly_hermitian_matrix_keeps_general_spectra(tmp_path, monkeypatch):
    b = random_case(4, 4, gap=1.0, coupling=0.5, seed=1).block
    nearly = BlockMatrix(b.A0 + 1e-15 * np.eye(4) * 1j, b.A1, b.W0, b.W1)
    assert nearly.hermitian and not nearly.bitwise_hermitian
    path = _check_file(tmp_path, nearly)
    calls = _kernels(monkeypatch)
    assert main(["check", path, "--lambdas", "2"]) == 0
    assert calls["eigh"].count((8, 8)) == 1
    assert calls["eigvals"].count((8, 8)) == 1
    assert calls["svd"].count((8, 8)) == 1 + 1 + 2  # I + Y, norm(B), shifts


def test_relative_bound_sweep_runs_no_general_eigvals(monkeypatch):
    b = random_case(5, 4, gap=0.0, coupling=0.5, seed=3, kernel_dim=2).block
    calls = _kernels(monkeypatch)
    estimate_relative_bound(b, [1.0, 10.0, 100.0])
    assert calls["eigvals"] == []
    assert calls["eigh"] == [(5, 5), (4, 4)]
    assert (b.dim, b.dim) not in calls["svd"]


def test_relative_bound_sweep_of_nearly_hermitian_blocks_solves_per_half(monkeypatch):
    b = random_case(5, 4, gap=1.0, coupling=0.5, seed=3).block
    nearly = BlockMatrix(b.A0 + 1e-15j * np.eye(5), b.A1, b.W0, b.W1)
    calls = _kernels(monkeypatch)
    taus = [1.0, 10.0]
    estimate_relative_bound(nearly, taus)
    assert nearly.eigh_A is None
    assert (nearly.dim, nearly.dim) not in calls["eigvals"]
    assert calls["eigvals"].count((5, 5)) == len(taus)
    assert calls["eigh"] == []


def _graph_extractions(monkeypatch):
    """SVDs per :func:`to_graph` call, and every ``lstsq`` call."""
    svds, per_call, lstsq = [], [], []
    svd, extract = np.linalg.svd, angular.to_graph

    def recorded_svd(*args, **kwargs):
        svds.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    def counted_extract(*args, **kwargs):
        before = len(svds)
        result = extract(*args, **kwargs)
        per_call.append(len(svds) - before)
        return result

    monkeypatch.setattr(np.linalg, "svd", recorded_svd)
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: lstsq.append(a))
    for owner in (angular, subordinated):
        monkeypatch.setattr(owner, "to_graph", counted_extract)
    return per_call, lstsq


@pytest.mark.parametrize("entry", ["check", "run_theorem", "run_dirac_pipeline"])
def test_graph_extraction_runs_one_svd_and_no_lstsq(tmp_path, monkeypatch, entry):
    b = random_case(6, 5, gap=1.0, coupling=0.5, seed=4).block
    path = _check_file(tmp_path, b)
    per_call, lstsq = _graph_extractions(monkeypatch)
    if entry == "check":
        assert main(["check", path, "--lambdas", "2"]) == 0
    elif entry == "run_theorem":
        assert run_theorem(b, mu=0.0).reduces_ok
    else:
        problem = dirac.DiracProblem(
            grid=dirac.GridSpec(n=4), potential=dirac.ImpurityPotential(amplitude=0.05)
        )
        dirac.run_dirac_pipeline(problem)
    assert per_call == [1] * (2 if entry == "check" else 1)
    assert lstsq == []


@pytest.mark.parametrize("nearly", [False, True])
def test_newton_factors_each_coefficient_once_per_step(monkeypatch, nearly):
    b = random_case(6, 5, gap=1.0, coupling=0.5, seed=2).block
    if nearly:
        b = BlockMatrix(b.A0 + 1e-15j * np.eye(6), b.A1, b.W0, b.W1)
    calls = _kernels(monkeypatch)
    eigh, schur, eigvals = calls["eigh"], calls["schur"], calls["eigvals"]
    sylvester = _record_shapes(monkeypatch, scipy.linalg, "solve_sylvester")
    _, trace = solve_newton_X0(b)
    assert trace.converged and trace.iterations >= 2
    assert eigvals == [] and sylvester == []
    assert len(eigh) + len(schur) == 2 * trace.iterations
    # the first step's coefficients are A1 and A0 themselves; eigh only
    # for a bitwise-Hermitian one
    assert eigh == ([(5, 5)] if nearly else [(5, 5), (6, 6)])
    assert schur.count((6, 6)) == trace.iterations - (0 if nearly else 1)
