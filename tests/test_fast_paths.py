"""Fast paths against the general paths they replace.

Bitwise-Hermitian input reads spectra, shift scales and resolvent norms off
cached eigendecompositions; every other input keeps the general
factorization. Each fast path must agree with its general form, and the
count tests pin which factorizations a command runs.
"""

import dataclasses
import functools
import json
import pathlib
import tempfile
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blockdiag import (
    BlockMatrix,
    check_complementary,
    diagonalize,
    estimate_relative_bound,
    form_pair,
    random_case,
    resolvent_norm,
    run_theorem,
    save_problem,
    solve_newton_X0,
    spectral_pair,
    triangularize,
    verify_extended_identity,
    verify_resolvent_invariance,
    verify_spectral_identity,
)
from blockdiag import angular, dirac, spectral, subordinated, transform
from blockdiag.angular import GraphBase, to_graph
from blockdiag.cli import choose_split_mu, main
from blockdiag.errors import IllPosedRegionError, NotAGraphError
from blockdiag.core import DEFAULT_TOL
from blockdiag.io import PROBLEM_SCHEMA, ProblemFile, matrix_to_obj
from blockdiag.spectral import invariant_subspace
from blockdiag.transform import BLOCK_SOLVE_CONDITION_LIMIT, match_spectra
from conftest import diagonal_part, offdiagonal_part, random_block, staged_eigh_calls

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
    """The fast paths select on the stored matrix, bitwise. Input Hermitian
    only to tolerance is stored as its Hermitian part, moved by its slack,
    so it selects them as bitwise-Hermitian input does."""
    b = _block(np.random.default_rng(seed), n0, n1, kind)
    full = b.assemble()
    assert b.hermitian == np.array_equal(full, full.conj().T)
    assert b.hermitian == (kind != "general")
    assert (b.eigh_A is None) == (kind == "general")
    assert (b.slack > 0.0) == (kind == "nearly")


# --- equivalences ---------------------------------------------------------


#: the commands whose exit codes and flags input Hermitian to tolerance
#: shares with its bitwise-Hermitian neighbour
NEIGHBOUR_COMMANDS = ("check", "diagonalize", "triangularize", "riccati-solve", "subordinated")


#: the blocks of a problem, in the order of the ``BlockMatrix`` arguments
NAMES = ("A0", "A1", "W0", "W1")


def _raw_file(path, blocks, mu=0.0) -> str:
    """A problem file of the blocks ``(A0, A1, W0, W1)`` as given, not as a
    :class:`BlockMatrix` would store them."""
    obj = {"schema": PROBLEM_SCHEMA, **dict(zip(NAMES, map(matrix_to_obj, blocks))), "mu": mu}
    path.write_text(json.dumps(obj))
    return str(path)


def _perturbed(b, rng, kind, size):
    """The blocks of ``B + E`` for Hermitian B, with E general or
    skew-Hermitian and ``norm_F(E - E*)`` at ``size`` times the bound of the
    Hermitian-to-tolerance test, ``DEFAULT_TOL norm_F(B) / sqrt(dim)``."""
    e = _cmat(rng, b.dim, b.dim)
    if kind == "skew":
        e = e - e.conj().T
    bound = DEFAULT_TOL * np.linalg.norm(b.full) / np.sqrt(b.dim)
    e *= size * bound / np.linalg.norm(e - e.conj().T)
    m, n0 = b.full + e, b.n0
    return m[:n0, :n0], m[n0:, n0:], m[n0:, :n0], m[:n0, n0:]


def _verdicts(path, tmp) -> dict:
    """Exit code and report flags of each neighbour command on a file."""
    out = {}
    for command in NEIGHBOUR_COMMANDS:
        report = tmp / f"{command}.report.json"
        code = main([command, path, "--out", str(report)])
        out[command] = code, json.loads(report.read_text()).get("flags")
    return out


@PROPERTY
@given(seeds, dims, dims, st.floats(0.05, 2.0), st.sampled_from(["general", "skew"]),
       st.floats(-3.0, -0.01))
def test_hermitian_to_tolerance_input_gives_its_neighbours_verdicts(
    seed, n0, n1, coupling, kind, log_size
):
    """``B + E``, with E general or skew-Hermitian and Hermitian to
    tolerance, is stored as Hermitian: every command gives B's exit code
    and flags, and its X0 is within ``(norm_F(E) + slack + rounding) / gap``
    of B's, times the ``1 + norm(X0)^2`` that turns a subspace angle into a
    distance of angular operators."""
    b = random_case(n0, n1, gap=1.0, coupling=coupling, seed=seed % 2**16).block
    blocks = _perturbed(b, np.random.default_rng(seed), kind, 10.0**log_size)
    nearly = BlockMatrix(*blocks)
    assert nearly.hermitian and nearly.slack > 0.0
    x0, near_x0 = spectral_pair(b, 0.0).X0, spectral_pair(nearly, 0.0).X0
    w = b.eigh[0]
    gap = w[n0] - w[n0 - 1]
    # norm_F(E), the distance of the input from B
    distance = np.linalg.norm([np.linalg.norm(m - getattr(b, n)) for m, n in zip(blocks, NAMES)])
    rounding = 64 * b.dim * np.finfo(float).eps * b.norm
    bound = 2.0 * (1.0 + _norm2(x0) ** 2) * (distance + nearly.slack + rounding) / gap
    assert np.linalg.norm(near_x0 - x0) <= bound
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        inputs = ([getattr(b, n) for n in NAMES], blocks)
        verdicts = [_verdicts(_raw_file(tmp / f"{i}.json", m), tmp) for i, m in enumerate(inputs)]
    assert verdicts[0] == verdicts[1]


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
    exact_a = _sigma_min_svd(diagonal_part(b) - lam * eye)
    assert abs(b.sigma_min_shifted_A(lam) - exact_a) <= bound


@PROPERTY
@given(seeds, dims, dims, st.sampled_from(["mixed", "nonnormal"]), log_scale, log_scale)
def test_shifted_sigma_min_of_non_hermitian_blocks_matches_svd(
    seed, n0, n1, kind, ls, ratio
):
    """Without ``eigh_A`` the value is the smaller of the two blocks' own
    values. One block Hermitian and the other generic (``mixed``), or both
    triangular with a strict part far larger than their diagonal
    (``nonnormal``, singular values far from the eigenvalues), at block
    scales ``10^ratio`` apart so that either block can set the minimum."""
    rng = np.random.default_rng(seed)
    if kind == "mixed":
        a0, a1 = _hermitian(rng, n0), _cmat(rng, n1, n1)
    else:
        a0, a1 = (
            np.diag(np.diag(_cmat(rng, n, n))) + 10 * np.triu(_cmat(rng, n, n), 1)
            for n in (n0, n1)
        )
    scale = 10.0**ls
    w0, w1 = _cmat(rng, n1, n0), _cmat(rng, n0, n1)
    b = BlockMatrix(scale * a0, scale * 10.0**ratio * a1, w0, w1)
    assert b.eigh_A is None
    lam = _shift(rng, b, True)
    exact = _sigma_min_svd(diagonal_part(b) - lam * np.eye(b.dim))
    assert abs(b.sigma_min_shifted_A(lam) - exact) <= 1e-12 * (b.norm_A + abs(lam))


@PROPERTY
@given(seeds, dims, dims, kinds, log_scale, st.booleans())
def test_resolvent_norm_matches_solve_and_svd(seed, n0, n1, kind, ls, near):
    rng = np.random.default_rng(seed)
    b = _block(rng, n0, n1, kind, 10.0**ls)
    lam = _shift(rng, b, near)
    a = diagonal_part(b)
    shifted = a - lam * np.eye(b.dim)
    # keep the shift well inside the resolvent set, where both forms are
    # accurate to rounding
    assume(_sigma_min_svd(shifted) >= 1e-2 * b.norm_A)
    product = np.linalg.solve(shifted.conj().T, offdiagonal_part(b).conj().T).conj().T
    assert resolvent_norm(b, lam) == pytest.approx(_norm2(product), rel=1e-12)


def _reference_route(b, mu):
    """Both sides of mu from a fresh ``eigh`` of a freshly assembled B."""
    full = b.assemble()
    w, v = np.linalg.eigh(full)
    scale = _norm2(full)
    below, _ = invariant_subspace(full, (w, v), w < mu, scale)
    above, _ = invariant_subspace(full, (w, v), w >= mu, scale)
    x0 = to_graph(below.with_partition(b.n0), GraphBase.H0).X
    x1 = to_graph(above.with_partition(b.n0), GraphBase.H1).X
    return x0, x1


@PROPERTY
@given(seeds, dims, dims, st.floats(0.05, 2.0))
def test_spectral_route_matches_region_subspaces(seed, n0, n1, coupling):
    b = random_case(n0, n1, gap=1.0, coupling=coupling, seed=seed % 2**16).block
    x0, x1 = _reference_route(b, 0.0)
    pair = spectral_pair(b, 0.0)
    np.testing.assert_allclose(pair.X0, x0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(pair.X1, x1, rtol=0, atol=1e-12)


@PROPERTY
@given(seeds, dims, dims, st.floats(0.05, 2.0))
def test_spectral_pair_is_the_theorem_X_on_gapped_input(seed, n0, n1, coupling):
    b = random_case(n0, n1, gap=1.0, coupling=coupling, seed=seed).block
    mu = subordinated.choose_mu(b)
    x = run_theorem(b, mu=mu).X
    np.testing.assert_allclose(spectral_pair(b, mu).X0, x, rtol=0, atol=1e-12)


def test_spectral_route_checks_one_subspace_with_tightened_gate(monkeypatch):
    """A bitwise-Hermitian B checks the side below mu only; the complement
    graph(-X0*) inherits its gap and its invariance residual."""
    b = random_case(4, 3, gap=1.0, coupling=0.5, seed=6).block
    gaps = _record_shapes(monkeypatch, spectral, "_check_region_gap")
    residuals = _record_shapes(monkeypatch, spectral, "invariance_residual")
    pair = spectral_pair(b, 0.0)
    assert len(gaps) == 1 and residuals == [(7, 7)]
    assert pair.skew


def test_spectral_route_keeps_the_region_gap_check():
    # eigenvalues 1 and 1 + 1e-12 on either side of mu: ill-posed both ways
    b = BlockMatrix(np.diag([-1.0, 1.0]), [[1.0 + 1e-12]], np.zeros((1, 2)), np.zeros((2, 1)))
    mu = 1.0 + 5e-13
    with pytest.raises(IllPosedRegionError):
        _reference_route(b, mu)
    with pytest.raises(IllPosedRegionError):
        spectral_pair(b, mu)


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
    left, right = diagonalize(b, pair)
    assert left.conditioning == pytest.approx(_condition_svd(minus), rel=1e-10)
    assert right.conditioning == pytest.approx(_condition_svd(plus), rel=1e-10)
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
        "eigvalsh": _record_shapes(monkeypatch, np.linalg, "eigvalsh"),
        # values-only eigensolves of a pencil
        "scipy_eigh": _record_shapes(monkeypatch, scipy.linalg, "eigh"),
        # core.StagedEigh, of B and of the half-size matrices: the shapes of
        # "zhetrd", the sizes of "dstevd" and the (order, columns) that
        # "zunmqr" back-transforms; "zheevd", which no path runs; and
        # core.hermitian_eigh of a pencil
        **staged_eigh_calls(monkeypatch),
        "zhegvd": _record_shapes(monkeypatch, scipy.linalg.lapack, "zhegvd"),
        "cholesky": _record_shapes(monkeypatch, np.linalg, "cholesky"),
        "eigvals": _record_shapes(monkeypatch, np.linalg, "eigvals"),
        "svd": _record_shapes(monkeypatch, np.linalg, "svd"),
        "schur": _record_shapes(monkeypatch, scipy.linalg, "schur"),
        "qr": _record_shapes(monkeypatch, np.linalg, "qr"),
        "solve": _record_shapes(monkeypatch, np.linalg, "solve"),
        # first arguments: the selection mask, and T11
        "trsen": _record_shapes(monkeypatch, scipy.linalg.lapack, "ztrsen"),
        "trsyl": _record_shapes(monkeypatch, scipy.linalg.lapack, "ztrsyl"),
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
    # one staged eigensolve of B: the spectral route forms the n0 columns
    # below mu, the resolvent sweep and the certificate the rest
    assert calls["zhetrd"] == [full] and calls["zheevd"] == [] and calls["eigh"] == []
    assert calls["zunmqr"] == [(b.dim, b.n0), (b.dim, b.n1)]
    assert calls["schur"] == []
    # the skew pair reads sigma(I + Y) off sigma(X0), no shift takes an SVD
    assert full not in calls["svd"]
    # the skew pair's graphs are orthonormalized by Cholesky factors, no QR
    assert calls["qr"] == []
    # the resolvent sweep reads the cached eigh: no B - lambda is solved
    assert full not in calls["solve"]
    # the spectral identity is certified from the eigh: no block takes eigvals
    assert calls["eigvals"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["check"], ["diagonalize"], ["triangularize"], ["riccati-solve"], ["subordinated"],
        ["neumann", "--lambda", "0,3"], ["relbound", "--tau-grid", "1,10"],
    ],
)
def test_no_command_takes_a_full_eigensolve_of_a_hermitian_matrix(tmp_path, monkeypatch, argv):
    """On bitwise-Hermitian B every command factors B at most once, in
    stages, and back-transforms no column of it twice: no ``zheevd`` runs."""
    b = random_case(6, 5, gap=1.0, coupling=0.5, seed=4).block
    path = _check_file(tmp_path, b)
    calls = _kernels(monkeypatch)
    assert main([argv[0], path, *argv[1:]]) == 0
    full = (b.dim, b.dim)
    assert calls["zheevd"] == [] and full not in calls["eigh"]
    assert calls["zhetrd"].count(full) <= 1
    assert sum(k for n, k in calls["zunmqr"] if n == b.dim) <= b.dim


@pytest.mark.parametrize(
    "argv",
    [
        ["check"], ["diagonalize"], ["triangularize"], ["riccati-solve"], ["subordinated"],
        ["neumann", "--lambda", "0,3"], ["relbound", "--tau-grid", "1,10"],
    ],
)
def test_no_input_takes_both_a_schur_form_and_an_eigensolve_of_b(tmp_path, monkeypatch, argv):
    """No input, bitwise Hermitian, Hermitian to tolerance or general, takes
    both a dim-size Schur form and a staged eigensolve of B. Input Hermitian
    only to tolerance, here a general perturbation of half the test's bound,
    takes exactly the kernel calls of its bitwise neighbour, and its exit
    code."""
    b = random_case(6, 5, gap=1.0, coupling=0.5, seed=4).block
    general = _general_block(0, 6, 5)
    inputs = {
        "hermitian": (b.A0, b.A1, b.W0, b.W1),
        "nearly": _perturbed(b, np.random.default_rng(0), "general", 0.5),
        "general": (general.A0, general.A1, general.W0, general.W1),
    }
    full = (b.dim, b.dim)
    calls, codes = {}, {}
    for kind, blocks in inputs.items():
        path = _raw_file(tmp_path / f"{kind}.json", blocks)
        recorded = _kernels(monkeypatch)
        codes[kind] = main([argv[0], path, *argv[1:]])
        # copied, as the recorders of a later run call this run's ones
        calls[kind] = {name: list(shapes) for name, shapes in recorded.items()}
        assert not (full in calls[kind]["schur"] and full in calls[kind]["zhetrd"])
    assert calls["nearly"] == calls["hermitian"] and codes["nearly"] == codes["hermitian"] == 0


@pytest.mark.parametrize("mu", [0.0, None])
def test_hermitian_riccati_solve_factors_no_matrix_of_the_full_dimension(
    tmp_path, monkeypatch, mu
):
    """Newton and the graph certificate of its X, with or without mu in the
    file: no eigensolve, Schur form or SVD of B. The certificate takes one
    values-only generalized ``eigh`` per compression of B at X, and no
    other factorization: its norm is a Frobenius norm, and its definiteness
    tests call LAPACK ``zpotrf`` itself."""
    b = random_case(6, 5, gap=1.0, coupling=0.5, seed=4).block
    path = tmp_path / "problem.json"
    save_problem(path, ProblemFile(block=b, mu=mu))
    calls = _kernels(monkeypatch)
    assert main(["riccati-solve", str(path)]) == 0
    full = (b.dim, b.dim)
    names = ("eigh", "zheevd", "zhetrd", "zhegvd", "scipy_eigh", "eigvalsh", "eigvals", "schur",
             "svd")
    for name in names:
        assert full not in calls[name], name
    assert calls["scipy_eigh"][-2:] == [(6, 6), (5, 5)]
    assert calls["eigvalsh"] == [] and calls["cholesky"] == []


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
    assert calls["eigh"] == calls["zheevd"] == calls["zhetrd"] == []
    # one Schur form of B, reordered once; the side above mu by one ztrsyl
    assert calls["schur"] == [(4, 4)]
    assert calls["trsen"] == [(4,)] and calls["trsyl"] == [(2, 2)]
    # spec(B) is read off the Schur form, no shift solves with B - lambda
    assert (4, 4) not in calls["eigvals"] and (4, 4) not in calls["solve"]
    # I + Y and norm(B) (shared by the region gates); no SVD per shift
    assert calls["svd"].count((4, 4)) == 1 + 1


def test_check_of_nearly_hermitian_matrix_keeps_general_spectra(tmp_path, monkeypatch):
    """A file whose A0 is Hermitian only to tolerance is loaded as its
    Hermitian part: ``check`` reads the bitwise route's spectra, with its
    kernel counts (:func:`test_check_factors_a_hermitian_matrix_once`)."""
    b = random_case(4, 4, gap=1.0, coupling=0.5, seed=1).block
    path = _raw_file(tmp_path / "nearly.json", (b.A0 + 1e-15j * np.eye(4), b.A1, b.W0, b.W1))
    calls = _kernels(monkeypatch)
    assert main(["check", path, "--lambdas", "2"]) == 0
    # one staged eigensolve of B, no Schur form and no reordering
    assert calls["zhetrd"] == [(8, 8)] and calls["zunmqr"] == [(8, 4), (8, 4)]
    assert calls["eigh"] == calls["zheevd"] == calls["schur"] == calls["trsen"] == []
    assert calls["trsyl"] == [] and calls["qr"] == []
    # no SVD, solve or eigvals of B, and the spectral identity is certified
    assert (8, 8) not in calls["svd"] and (8, 8) not in calls["solve"]
    assert calls["eigvals"] == []


def _general_block(seed, n0=6, n1=6):
    """``A_i = Q_i T_i Q_i*`` with upper-triangular T_i near -2 and +2 and a
    small general coupling: a non-normal B with n0 eigenvalues left of 0."""
    rng = np.random.default_rng(seed)
    blocks = []
    for n, centre in ((n0, -2.0), (n1, 2.0)):
        q, _ = np.linalg.qr(_cmat(rng, n, n))
        t = np.diag(centre + 0.25 * _cmat(rng, n, 1)[:, 0]) + 0.05 * np.triu(_cmat(rng, n, n), 1)
        blocks.append(q @ t @ q.conj().T)
    return BlockMatrix(*blocks, 0.1 * _cmat(rng, n1, n0), 0.1 * _cmat(rng, n0, n1))


@pytest.mark.parametrize("command", ["check", "diagonalize", "triangularize"])
def test_general_input_is_factored_once(tmp_path, monkeypatch, command):
    """Every command reads one unsorted Schur form of a general B, reordered
    once by ``ztrsen``; the side above mu takes one ``ztrsyl``, which
    ``triangularize``, reading X0 only, does not. No eigvals of B, no solve
    with B - lambda, and the only dim-size SVDs are norm(B) and, for a
    pair, I + Y."""
    b = _general_block(0)
    assert not b.hermitian
    path = _check_file(tmp_path, b)
    calls = _kernels(monkeypatch)
    assert main([command, path]) == 0
    full = (b.dim, b.dim)
    assert calls["schur"] == [full] and calls["trsen"] == [(b.dim,)]
    assert calls["trsyl"] == ([] if command == "triangularize" else [(b.n0, b.n0)])
    assert calls["eigh"] == calls["zheevd"] == calls["zhetrd"] == []
    assert full not in calls["eigvals"] and full not in calls["solve"]
    assert calls["svd"].count(full) == (1 if command == "triangularize" else 2)
    # the side above mu takes one QR; check's sweep one per graph
    qr = [(b.dim, b.n1)] + ([(b.dim, b.n0), (b.dim, b.n1)] if command == "check" else [])
    assert calls["qr"] == ([] if command == "triangularize" else qr)


@pytest.mark.parametrize("skew", [False, True])
def test_transforms_solve_only_block_sized_systems(monkeypatch, skew):
    """Both diagonalizations solve with the n0 x n0 and n1 x n1 blocks of
    ``I - Y^2`` for a well-conditioned pair, skew or not, each factored
    once on the pair: by Cholesky for a skew pair, by LU otherwise. The
    extended identity and triangularization solve nothing. No system is
    solved by ``np.linalg.solve``."""
    rng = np.random.default_rng(5)
    n0, n1 = 3, 5
    b = random_block(rng, n0, n1)
    x0 = (0.3 if skew else 0.05) * _cmat(rng, n1, n0)
    pair = form_pair(x0, -x0.conj().T if skew else 0.05 * _cmat(rng, n0, n1))
    assert _condition_svd(np.eye(b.dim) - pair.Y) <= BLOCK_SOLVE_CONDITION_LIMIT
    shapes = _record_shapes(monkeypatch, np.linalg, "solve")
    cholesky = _record_shapes(monkeypatch, np.linalg, "cholesky")
    lu = _record_shapes(monkeypatch, scipy.linalg, "lu_factor")
    left, right = diagonalize(b, pair)
    verify_extended_identity(b, pair, right)
    assert [m.shape for m in left.offdiag_blocks] == [(n0, n1), (n1, n0)]
    assert shapes == []
    assert (cholesky if skew else lu) == [(n0, n0), (n1, n1)]
    assert (lu if skew else cholesky) == []
    triangularize(b, x0)
    assert shapes == []


def test_hermitian_check_factors_each_block_of_i_minus_y2_once(tmp_path, monkeypatch):
    """``diagonalize`` and the resolvent sweep of a Hermitian ``check``
    share one Cholesky factor of each S_i, cached on the pair: S0 and S1
    are never solved by LU."""
    b = random_case(6, 5, gap=1.0, coupling=0.5, seed=4).block
    x0 = spectral_pair(b, 0.0).X0
    s_blocks = (np.eye(6) + x0.conj().T @ x0, np.eye(5) + x0 @ x0.conj().T)
    path = _check_file(tmp_path, b)
    cholesky = _record_shapes(monkeypatch, np.linalg, "cholesky")
    lu = _record_shapes(monkeypatch, scipy.linalg, "lu_factor")
    solved, solve = [], np.linalg.solve
    monkeypatch.setattr(
        np.linalg, "solve", lambda a, *args: solved.append(a) or solve(a, *args)
    )
    assert main(["check", path, "--lambdas", "4"]) == 0
    assert cholesky == [(6, 6), (5, 5)]
    assert lu == []
    # the graph extraction and the spectral-identity certificate solve
    # with eigenvector blocks of these sizes; none of them is an S_i
    assert solved and not any(
        m.shape == s.shape and np.allclose(m, s) for m in solved for s in s_blocks
    )


def test_ill_conditioned_pair_that_is_not_skew_solves_with_i_minus_y(monkeypatch):
    rng = np.random.default_rng(5)
    n0, n1 = 3, 5
    b = random_block(rng, n0, n1)
    pair = form_pair(0.5 * _cmat(rng, n1, n0), 0.5 * _cmat(rng, n0, n1))
    assert _condition_svd(np.eye(b.dim) - pair.Y) > BLOCK_SOLVE_CONDITION_LIMIT
    shapes = _record_shapes(monkeypatch, np.linalg, "solve")
    diagonalize(b, pair)
    assert shapes == [(b.dim, b.dim)] * 2


def test_relative_bound_sweep_runs_no_general_eigvals(monkeypatch):
    b = random_case(5, 4, gap=0.0, coupling=0.5, seed=3, kernel_dim=2).block
    calls = _kernels(monkeypatch)
    estimate_relative_bound(b, [1.0, 10.0, 100.0])
    assert calls["eigvals"] == []
    assert calls["zhetrd"] == [(5, 5), (4, 4)] and calls["eigh"] == []
    assert calls["zheevd"] == []
    assert (b.dim, b.dim) not in calls["svd"]


def test_relative_bound_sweep_of_nearly_hermitian_blocks_solves_per_half(monkeypatch):
    """Blocks Hermitian only to tolerance are stored as their Hermitian
    parts: the sweep reads ``eigh_A``, one staged eigensolve per block, and
    solves nothing, as on bitwise-Hermitian blocks."""
    b = random_case(5, 4, gap=1.0, coupling=0.5, seed=3).block
    nearly = BlockMatrix(b.A0 + 1e-15j * np.eye(5), b.A1, b.W0, b.W1)
    calls = _kernels(monkeypatch)
    taus = [1.0, 10.0]
    estimate_relative_bound(nearly, taus)
    assert nearly.eigh_A is not None
    assert calls["zhetrd"] == [(5, 5), (4, 4)]
    assert calls["eigvals"] == calls["solve"] == calls["eigh"] == calls["zheevd"] == []
    # per shift the two column-scaled halves W Q, then norm(V) = norm(W1)
    assert calls["svd"] == [(5, 4), (4, 5)] * len(taus) + [(5, 4)]


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
    # check's Hermitian pair is (X0, -X0*): one extraction, as in the others
    assert per_call == [1]
    assert lstsq == []


@pytest.mark.parametrize("entry", ["run_theorem", "run_dirac_pipeline"])
def test_theorem_frame_runs_no_qr_and_factors_each_block_once(monkeypatch, entry):
    """On bitwise-Hermitian input both invariance residuals come from the
    Cholesky frame of the diagonalizations: no QR,
    no dense invariance product, one values-only SVD per graph extraction,
    and one factorization of each block of ``I - Y^2``."""
    b = random_case(6, 5, gap=1.0, coupling=0.5, seed=4).block
    qr = _record_shapes(monkeypatch, np.linalg, "qr")
    residuals = _record_shapes(monkeypatch, spectral, "invariance_residual")
    cholesky = _record_shapes(monkeypatch, np.linalg, "cholesky")
    lu = _record_shapes(monkeypatch, scipy.linalg, "lu_factor")
    solves = _record_shapes(monkeypatch, np.linalg, "solve")
    svds, per_call = [], []
    svd, extract = np.linalg.svd, subordinated.to_graph

    def recorded_svd(a, *args, **kwargs):
        svds.append(kwargs.get("compute_uv", args[1] if len(args) > 1 else True))
        return svd(a, *args, **kwargs)

    def counted_extract(*args, **kwargs):
        before = len(svds)
        result = extract(*args, **kwargs)
        per_call.append(svds[before:])
        return result

    monkeypatch.setattr(np.linalg, "svd", recorded_svd)
    monkeypatch.setattr(subordinated, "to_graph", counted_extract)
    if entry == "run_theorem":
        result = run_theorem(b, mu=0.0)
        n0, n1 = 6, 5
    else:
        problem = dirac.DiracProblem(
            grid=dirac.GridSpec(n=4), potential=dirac.ImpurityPotential(amplitude=0.05)
        )
        result = dirac.run_dirac_pipeline(problem).theorem
        n1, n0 = result.X.shape
    assert result.reduces_ok
    assert qr == [] and residuals == []
    assert per_call == [[False]]
    assert cholesky == [(n0, n0), (n1, n1)] and lu == []
    # the extraction's LU solve is the only one
    assert solves == [(n0, n0)]
    if entry == "run_theorem":
        assert svds == [False]


def _record_returns(monkeypatch, owner, name):
    """What each call of ``owner.name`` returned."""
    returned = []
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        returned.append(original(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(owner, name, recorded)
    return returned


def _record_rhs(monkeypatch, owner, name):
    """Shapes of the right-hand sides ``b`` of ``owner.name(a, b, ...)``."""
    shapes = []
    original = getattr(owner, name)

    def recorded(a, rhs, *args, **kwargs):
        shapes.append(np.shape(rhs))
        return original(a, rhs, *args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return shapes


@pytest.mark.parametrize(
    "entry", ["run_theorem", "run_dirac_pipeline", "diagonalize", "extended_identity"]
)
def test_pipelines_form_no_dim_size_array_until_a_dense_form_is_read(
    tmp_path, monkeypatch, entry
):
    """On bitwise-Hermitian input the pipelines read the diagonalizations'
    norms, closed-form blocks and frame defects, never a dense form: no
    ``cho_solve``, no triangular solve with a right-hand side larger than
    n_i x n_j, and no dim x dim ``from_blocks`` in ``transform``: the
    results hold no dense form to read. ``run_theorem`` makes no triangular solve
    outside its diagonalizations. ``check``'s extended identity solves
    nothing: no ``solve``, ``cho_solve``, ``lu_solve`` or triangular solve."""
    b = random_case(6, 5, gap=1.0, coupling=0.5, seed=4).block
    path = _check_file(tmp_path, b)
    cho = [_record_rhs(monkeypatch, o, "cho_solve") for o in (scipy.linalg, transform)]
    triangular = _record_rhs(monkeypatch, scipy.linalg, "solve_triangular")
    monkeypatch.setattr(
        transform, "_lower", functools.partial(scipy.linalg.solve_triangular, lower=True)
    )
    assembled = _record_returns(monkeypatch, transform, "from_blocks")
    framed = _record_returns(monkeypatch, subordinated, "diagonalize")
    inside, framed_diagonalize = [], subordinated.diagonalize

    def counted(*args, **kwargs):
        before = len(triangular)
        result = framed_diagonalize(*args, **kwargs)
        inside.append(len(triangular) - before)
        return result

    monkeypatch.setattr(subordinated, "diagonalize", counted)
    plain = _record_returns(monkeypatch, transform, "diagonalize")
    if entry == "run_theorem":
        run_theorem(b, mu=0.0)
        # the complement graph(-X*) gets no basis: no triangular solve but
        # the diagonalizations'
        assert len(triangular) == sum(inside) > 0
    elif entry == "run_dirac_pipeline":
        problem = dirac.DiracProblem(
            grid=dirac.GridSpec(n=4), potential=dirac.ImpurityPotential(amplitude=0.05)
        )
        dirac.run_dirac_pipeline(problem)
    elif entry == "diagonalize":
        assert main(["diagonalize", path]) == 0
    else:  # as check runs them
        pair = spectral_pair(b, 0.0)
        right = transform.diagonalize(b, pair)[1]
        solved = len(triangular)
        owners = ((np.linalg, "solve"), (scipy.linalg, "lu_solve"), (transform, "lu_solve"))
        others = [_record_rhs(monkeypatch, o, name) for o, name in owners]
        transform.verify_extended_identity(b, pair, right)
        assert len(triangular) == solved and others == [[], [], []]
    ((left, right),) = framed + plain
    n0, n1 = (d.shape[0] for d in left.diag_blocks)
    assert cho[0] + cho[1] == []
    assert triangular and all(r in (n0, n1) and c in (n0, n1) for r, c in triangular)
    dense = (n0 + n1, n0 + n1)
    assert dense not in [m.shape for m in assembled]
    # the left form is the right one's adjoint, and holds no blocks of its own
    assert left.offdiag_blocks is None and right.offdiag_blocks is not None


@pytest.mark.parametrize("nearly", [False, True])
def test_newton_factors_each_coefficient_once_per_step(monkeypatch, nearly):
    b = random_case(6, 5, gap=1.0, coupling=0.5, seed=2).block
    if nearly:
        b = BlockMatrix(b.A0 + 1e-15j * np.eye(6), b.A1, b.W0, b.W1)
    calls = _kernels(monkeypatch)
    eigh, schur, eigvals = calls["zhetrd"], calls["schur"], calls["eigvals"]
    sylvester = _record_shapes(monkeypatch, scipy.linalg, "solve_sylvester")
    generalized = calls["zhegvd"]
    _, trace = solve_newton_X0(b)
    assert trace.converged and trace.iterations >= 2
    assert eigvals == [] and sylvester == []
    assert calls["eigh"] == calls["scipy_eigh"] == calls["zheevd"] == []
    # the first step reads eigh_A of the centred blocks, the second solves
    # in one frame: one generalized eigh per compression of B. Input
    # Hermitian only to tolerance is stored as Hermitian and does the same.
    assert trace.schur_steps == 0 and schur == []
    assert eigh == [(6, 6), (5, 5)]
    assert trace.frames == 1
    assert generalized == [(6, 6), (5, 5)] * trace.frames


def test_newton_on_hermitian_input_takes_no_schur_step():
    _, trace = solve_newton_X0(random_case(8, 8, gap=1.0, coupling=0.5, seed=0).block)
    assert trace.converged and trace.iterations == 2
    assert trace.schur_steps == 0


@pytest.mark.parametrize("kind", ["nearly", "general"])
def test_newton_on_non_hermitian_input_takes_schur_steps(kind):
    """Non-Hermitian input takes a Schur step per iteration. A coupling
    Hermitian only to tolerance (``nearly``) is stored as Hermitian and
    takes none, as bitwise-Hermitian input does."""
    b = random_case(8, 8, gap=1.0, coupling=0.5, seed=0).block
    if kind == "nearly":
        b = BlockMatrix(b.A0, b.A1, b.W0 + 1e-15, b.W1)
        _, trace = solve_newton_X0(b)
        assert trace.converged and trace.iterations == 2 and trace.schur_steps == 0
        return
    b = BlockMatrix(b.A0 + 0.1j * np.eye(8), b.A1, b.W0, b.W1)
    _, trace = solve_newton_X0(b)
    assert trace.converged and trace.iterations >= 3
    assert trace.schur_steps == trace.iterations


# --- metamorphic properties of the spectral route ---------------------------


@PROPERTY
@given(seeds, dims, dims, st.floats(0.05, 2.0), st.floats(-0.4, 0.4))
def test_spectral_route_of_negated_swapped_problem(seed, n0, n1, coupling, mu):
    """``-B`` with H0 and H1 exchanged, split at ``-mu``, has the angular pair
    ``(X1, X0)``: its eigenvectors below ``-mu`` are B's above mu."""
    b = random_case(n0, n1, gap=1.0, coupling=coupling, seed=seed).block
    assume(np.min(np.abs(b.eigh[0] - mu)) >= 0.05)
    pair = spectral_pair(b, mu)
    mirrored = BlockMatrix(-b.A1, -b.A0, -b.W1, -b.W0)
    mirrored_pair = spectral_pair(mirrored, -mu)
    scale = 1.0 + _norm2(pair.Y)
    assert np.linalg.norm(mirrored_pair.X0 - pair.X1) <= 1e-12 * scale
    assert np.linalg.norm(mirrored_pair.X1 - pair.X0) <= 1e-12 * scale


# --- the Hermitian check on its one eigensolve ------------------------------


def _dense_resolvent_defects(b, graphs, lam):
    """Reference: one dense solve with ``B - lam`` per graph basis."""
    shifted = b.assemble() - lam * np.eye(b.dim)
    out = []
    for g in graphs:
        q = g.subspace.basis
        r = np.linalg.solve(shifted, q)
        out.append(np.linalg.norm(r - q @ (q.conj().T @ r)))
    return out


@PROPERTY
@given(seeds, st.integers(0, 7), st.integers(0, 7), st.floats(0.0, 3.0))
def test_skew_pair_singular_values_of_i_plus_y_match_svd(seed, n0, n1, size):
    assume(n0 + n1 > 0)
    x0 = size * _cmat(np.random.default_rng(seed), n1, n0)
    pair = form_pair(x0, -x0.conj().T)
    assert pair.skew
    reference = np.linalg.svd(np.eye(n0 + n1) + pair.Y, compute_uv=False)
    fast = pair.singular_values_I_plus_Y
    assert fast.shape == reference.shape == (n0 + n1,)
    np.testing.assert_allclose(fast, reference, rtol=1e-12, atol=0)
    assert pair.norm_Y == pytest.approx(_norm2(pair.Y) if pair.Y.size else 0.0, rel=1e-12)


@PROPERTY
@given(seeds, dims, dims, st.floats(0.05, 2.0))
def test_left_spectrum_of_skew_pair_matches_left_block_eigvals(seed, n0, n1, coupling):
    b = random_case(n0, n1, gap=1.0, coupling=coupling, seed=seed).block
    pair = spectral_pair(b, 0.0)
    assert b.hermitian and pair.skew
    report = verify_spectral_identity(b, pair, 1e-8)
    left = report.left_spectrum
    blocks = (b.A0 - pair.X1 @ b.W0, b.A1 - pair.X0 @ b.W1)
    explicit = [np.linalg.eigvals(m) for m in blocks]
    assert match_spectra(left[:n0], explicit[0]) <= 1e-10 * b.norm
    assert match_spectra(left[n0:], explicit[1]) <= 1e-10 * b.norm


def test_perturbed_check_takes_the_general_pair_paths(tmp_path, monkeypatch):
    """Negative control: ``--perturb-x0`` breaks the skew structure, so
    sigma(I + Y) takes its SVD, the four blocks their own eigvals and the
    resolvent sweep orthonormalizes both graphs by QR (in the eigenbasis
    of the one ``eigh``, with no solve with B - lambda), and the verdict
    fails."""
    b = random_case(6, 5, gap=1.0, coupling=0.5, seed=4).block
    path = _check_file(tmp_path, b)
    calls = _kernels(monkeypatch)
    assert main(["check", path, "--perturb-x0", "1e-3", "--lambdas", "3"]) == 1
    full = (b.dim, b.dim)
    assert calls["svd"].count(full) == 1
    assert sorted(calls["eigvals"]) == [(b.n1, b.n1)] * 2 + [(b.n0, b.n0)] * 2
    assert calls["zhetrd"] == [full] and calls["zheevd"] == [] and calls["eigh"] == []
    assert sum(k for _, k in calls["zunmqr"]) == b.dim
    assert calls["schur"] == []
    assert calls["qr"] == [(b.dim, b.n0), (b.dim, b.n1)]
    assert full not in calls["solve"]


# --- certificates from the one eigh ------------------------------------------


@PROPERTY
@given(
    seeds,
    st.integers(1, 12),
    st.integers(1, 12),
    st.floats(0.1, 4.0),
    st.floats(-1e6, 1e6),
)
def test_spectral_identity_bound_is_at_least_the_measured_distance(
    seed, n0, n1, coupling, shift
):
    b = random_case(n0, n1, gap=1.0, coupling=coupling, seed=seed).block
    b = BlockMatrix(b.A0 + shift * np.eye(n0), b.A1 + shift * np.eye(n1), b.W0, b.W1)
    try:
        pair = spectral_pair(b, choose_split_mu(b))
    except (IllPosedRegionError, NotAGraphError):
        assume(False)
    assert b.hermitian and pair.skew
    bound = transform._spectral_identity_bound(b, pair)
    # certified at the default --tol
    assert bound <= 1e-8 * b.norm
    spectra = [
        (b.A0 + b.W1 @ pair.X0, b.A1 + b.W0 @ pair.X1),
        (b.A0 - pair.X1 @ b.W0, b.A1 - pair.X0 @ b.W1),
    ]
    for blocks in spectra:
        union = np.concatenate([np.linalg.eigvals(m) for m in blocks])
        assert match_spectra(b.eigvals, union) <= bound
    report = verify_spectral_identity(b, pair, 1e-8)
    assert report.ok and report.left_distance == report.right_distance == bound


def test_perturbed_skew_pair_fails_the_certificate_and_takes_eigvals(
    tmp_path, monkeypatch
):
    """Negative control: the skew pair ``(X0 + d, -(X0 + d)*)`` is not
    certified, its four blocks take eigvals, and check exits 1."""
    b = random_case(6, 5, gap=1.0, coupling=0.5, seed=4).block
    x0 = spectral_pair(b, 0.0).X0 + 1e-3 * np.ones((5, 6))
    perturbed = form_pair(x0, -x0.conj().T)
    assert b.hermitian and perturbed.skew
    report = verify_spectral_identity(b, perturbed, 1e-8)
    threshold = 1e-8 * b.norm
    assert transform._spectral_identity_bound(b, perturbed) > threshold
    assert not report.ok
    assert min(report.left_distance, report.right_distance) > threshold
    path = _check_file(tmp_path, b)
    monkeypatch.setattr(angular, "spectral_pair", lambda *_: perturbed)
    calls = _kernels(monkeypatch)
    assert main(["check", path]) == 1
    assert sorted(calls["eigvals"]) == [(b.n1, b.n1)] * 2 + [(b.n0, b.n0)] * 2


@PROPERTY
@given(seeds, dims, dims, log_scale, st.floats(0.0, 1.0))
def test_skew_pair_resolvent_defects_match_dense_solves(seed, n0, n1, ls, size):
    rng = np.random.default_rng(seed)
    b = _block(rng, n0, n1, "hermitian", 10.0**ls)
    # norm(X0) <= 1 keeps kappa(I + Y) <= sqrt(2), on the Cholesky route
    x0 = _cmat(rng, n1, n0)
    x0 *= size / _norm2(x0)
    pair = form_pair(x0, -x0.conj().T)
    scale = max(b.norm, 1.0)
    lams = [
        complex(rng.uniform(-2, 2) * scale, rng.uniform(0.2, 2) * scale)
        for _ in range(3)
    ]
    with mock.patch.object(
        transform, "_outside_part", wraps=transform._outside_part
    ) as route, mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr:
        sweep = verify_resolvent_invariance(b, pair, lams)
    # the closed-form projectors W1 W1* and W0 W0*: no graph takes a QR
    assert route.call_count == 2 * len(lams) and qr.call_count == 0
    assert all(call.args[2] is not None for call in route.call_args_list)
    graphs = (
        angular.GraphSubspace(base=GraphBase.H0, X=pair.X0),
        angular.GraphSubspace(base=GraphBase.H1, X=pair.X1),
    )
    for lam, defects in zip(lams, sweep):
        # the sweep's defects are relative to the resolvent's norm 1 / sigma
        sigma = b.sigma_min_shifted(lam)
        reference = _dense_resolvent_defects(b, graphs, lam)
        assert len(defects) == 2
        for fast, dense in zip(defects, reference):
            assert abs(fast - sigma * dense) <= 1e-12


@pytest.mark.parametrize("case", ["ill_conditioned", "not_skew", "nearly"])
def test_other_pairs_orthonormalize_their_graphs_by_qr(monkeypatch, case):
    rng = np.random.default_rng(6)
    b = _block(rng, 3, 4, "nearly" if case == "nearly" else "hermitian")
    x0 = (1.0 if case == "ill_conditioned" else 0.1) * _cmat(rng, 4, 3)
    x1 = 0.1 * _cmat(rng, 3, 4) if case == "not_skew" else -x0.conj().T
    pair = form_pair(x0, x1)
    if case == "ill_conditioned":
        assert transform._pair_condition(pair) > BLOCK_SOLVE_CONDITION_LIMIT
    complements = []
    outside = transform._outside_part
    monkeypatch.setattr(
        transform,
        "_outside_part",
        lambda w, r, k: complements.append(k) or outside(w, r, k),
    )
    qr = _record_shapes(monkeypatch, np.linalg, "qr")
    verify_resolvent_invariance(b, pair, [2j * max(b.norm, 1.0)])
    if case == "nearly":
        # Hermitian only to tolerance, so stored as Hermitian: the skew
        # pair's closed-form projectors, and no QR
        assert b.hermitian and all(k is not None for k in complements)
        assert qr == []
        return
    # no closed-form projector: each graph is orthonormalized by its QR
    assert complements == [None, None]
    assert qr == [(7, 3), (7, 4)]


def _held_arrays(obj, seen):
    """Every ndarray that ``obj`` keeps alive: through tuples, lists,
    dataclass fields and cached properties, the closure cells of callables,
    and the base of each view."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        yield from _held_arrays(obj.base, seen)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _held_arrays(item, seen)
    elif dataclasses.is_dataclass(obj):
        for value in vars(obj).values():
            yield from _held_arrays(value, seen)
    elif callable(obj):
        for cell in getattr(obj, "__closure__", None) or ():
            yield from _held_arrays(cell.cell_contents, seen)


@pytest.mark.parametrize(
    "entry", ["run_theorem", "hermitian_skew", "block_route", "dense_route", "triangularize"]
)
def test_results_hold_no_dim_by_dim_array(entry):
    """The results of ``run_theorem``, ``diagonalize`` and ``triangularize``
    keep blocks, never an array of the assembled size: not as a field, not
    in a closure, not as the base of a view. The dense route solves with
    ``I -/+ Y`` of that size and keeps only copies of its off-diagonal
    blocks."""
    rng = np.random.default_rng(5)
    b = random_case(6, 5, gap=1.0, coupling=0.5, seed=4).block
    pair = spectral_pair(b, 0.0)
    if entry == "run_theorem":
        result = run_theorem(b, mu=0.0)
    elif entry == "triangularize":
        result = triangularize(b, pair.X0)
    else:
        if entry == "block_route":
            pair = form_pair(pair.X0, 0.5 * pair.X1)
        elif entry == "dense_route":
            pair = form_pair(0.5 * _cmat(rng, 5, 6), 0.5 * _cmat(rng, 6, 5))
        result = diagonalize(b, pair)
        dense = entry == "dense_route"
        assert (result[0].conditioning > BLOCK_SOLVE_CONDITION_LIMIT) == dense
        assert pair.skew == (entry == "hermitian_skew")
    shapes = [a.shape for a in _held_arrays(result, set())]
    assert (6, 6) in shapes and (5, 5) in shapes
    assert (b.dim, b.dim) not in shapes
