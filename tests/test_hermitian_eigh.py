"""``core.hermitian_eigh``: the Hermitian eigensolver with every eigenvector,
of a matrix (``core.StagedEigh``) and of a pencil (LAPACK ``zhegvd``),
checked against ``numpy.linalg.eigh`` and ``scipy.linalg.eigh``; and
``core.StagedEigh``, the eigensolve in the stages of LAPACK ``zheevd`` with
only the leading eigenvectors formed, checked against ``zheevd``."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdiag import BlockMatrix, random_case, solve_newton_X0
from blockdiag.core import StagedEigh, frobenius_norm, hermitian_eigh
from blockdiag.dirac import DiracProblem, GridSpec, ImpurityPotential, build_operators
from blockdiag.dirac import fw_transform
from conftest import dirac_hamiltonians

EPS = np.finfo(float).eps

#: Sizes 0-150 cross LAPACK's block sizes (32 and 64) and its divide and
#: conquer threshold (25).
SIZES = st.integers(min_value=0, max_value=150)


def _gaussian(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _hermitian(rng, n, kind):
    if kind == "repeated":
        # a diagonal of few distinct values: eigenvalues of high multiplicity
        return np.diag(rng.choice([-1.0, 0.0, 2.0], size=n)).astype(np.complex128)
    g = _gaussian(rng, n)
    return g + g.conj().T


def _zheevd(m):
    """``(w, v)`` of LAPACK ``zheevd`` with the blocked back-transform's
    workspace: the reference the staged eigensolve matches bitwise."""
    n = len(m)
    w, v, info = scipy.linalg.lapack.zheevd(m, lower=1, lwork=n * n + 66 * n + 65 * 64)
    assert info == 0
    return w, v


def _check_eigensystem(m, w, v, s=None):
    """Residual and orthonormality of ``(w, v)`` at ``16 n eps`` of the scale."""
    n = len(m)
    scale = frobenius_norm(m)
    gram_scale = 1.0 if s is None else frobenius_norm(s)
    sv = v if s is None else s @ v
    assert np.all(np.diff(w) >= 0.0)
    assert frobenius_norm(m @ v - sv * w) <= 16 * n * EPS * scale * gram_scale
    assert frobenius_norm(v.conj().T @ sv - np.eye(n)) <= 16 * n * EPS * gram_scale


@settings(max_examples=60, deadline=None)
@given(
    n=SIZES,
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["random", "repeated"]),
    exponent=st.sampled_from([0, 600, -600]),
)
def test_eigensystem_matches_numpy(n, seed, kind, exponent):
    m = _hermitian(np.random.default_rng(seed), n, kind) * 2.0**exponent
    w, v = hermitian_eigh(m)
    assert w.shape == (n,) and v.shape == (n, n)
    w_ref = np.linalg.eigh(m)[0]
    assert np.max(np.abs(w - w_ref), initial=0.0) <= 4 * n * EPS * frobenius_norm(m)
    _check_eigensystem(m, w, v)


@settings(max_examples=40, deadline=None)
@given(
    n=SIZES,
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["random", "repeated"]),
    exponent=st.sampled_from([0, 600, -600]),
)
def test_pencil_eigensystem_matches_scipy(n, seed, kind, exponent):
    """The pencil of a graph frame: ``S = I + X* X`` with a contraction X."""
    rng = np.random.default_rng(seed)
    m = _hermitian(rng, n, kind) * 2.0**exponent
    x = _gaussian(rng, n)
    x *= 0.5 / max(np.linalg.norm(x, 2), 1.0) if n else 0.0
    s = np.eye(n) + x.conj().T @ x
    w, v = hermitian_eigh(m, s)
    assert w.shape == (n,) and v.shape == (n, n)
    if n:
        w_ref = scipy.linalg.eigh(m, s, eigvals_only=True)
        assert np.max(np.abs(w - w_ref)) <= 4 * n * EPS * frobenius_norm(m)
    _check_eigensystem(m, w, v, s)


def test_dirac_matrix_matches_numpy():
    grid = GridSpec(n=4, length=2 * np.pi)
    potential = ImpurityPotential(amplitude=0.05, profile="disk", radius=np.pi / 4)
    ops = build_operators(DiracProblem(grid=grid, potential=potential))
    h = dirac_hamiltonians(ops)[1]
    w, v = hermitian_eigh(h)
    w_ref = np.linalg.eigh(h)[0]
    assert np.max(np.abs(w - w_ref)) <= 4 * len(h) * EPS * frobenius_norm(h)
    _check_eigensystem(h, w, v)


def test_only_the_lower_triangle_is_read():
    """Like ``numpy.linalg.eigh``: a nearly-Hermitian matrix is solved as the
    Hermitian matrix of its lower triangle."""
    rng = np.random.default_rng(1)
    h = _hermitian(rng, 70, "random")
    skewed = np.tril(h) + np.triu(_gaussian(rng, 70), 1)
    s = np.eye(70) + 0.1 * h @ h
    for args, skewed_args in (((h,), (skewed,)), ((h, s), (skewed, np.tril(s)))):
        for got, want in zip(hermitian_eigh(*skewed_args), hermitian_eigh(*args)):
            np.testing.assert_array_equal(got, want)


def test_empty_matrix_and_pencil_give_empty_arrays():
    empty = np.zeros((0, 0), np.complex128)
    for args in ((empty,), (empty, empty)):
        w, v = hermitian_eigh(*args)
        assert w.shape == (0,) and v.shape == (0, 0)


def test_indefinite_pencil_raises_linalg_error():
    m = _hermitian(np.random.default_rng(2), 5, "random")
    with pytest.raises(np.linalg.LinAlgError):
        hermitian_eigh(m, np.diag([1.0, 1.0, -1.0, 1.0, 1.0]).astype(np.complex128))


@pytest.mark.parametrize("which", [0, 1])
def test_non_finite_pencil_raises_value_error(which):
    pencil = [_hermitian(np.random.default_rng(3), 5, "random"), np.eye(5, dtype=complex)]
    pencil[which][2, 1] = np.nan
    with pytest.raises(ValueError):
        hermitian_eigh(*pencil)


def test_every_call_site_passes_the_blocked_back_transform_workspace(monkeypatch):
    """The staged eigensolves take the workspace LAPACK's own queries
    return, and ``zhegvd`` its minimum workspace plus the blocked
    ``zunmtr``'s at block size 64. With the default workspace the
    back-transform runs unblocked, slower but with the same answers, so
    only this test sees a return to it."""
    lworks = []

    def recording(name, size, lwork):
        original = getattr(scipy.linalg.lapack, name)

        def recorded(*args, **kwargs):
            lworks.append((name, size(args), lwork(args, kwargs)))
            return original(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, name, recorded)

    keyword = lambda args, kwargs: kwargs.get("lwork", 0)
    recording("zhegvd", lambda args: len(args[0]), keyword)
    recording("zhetrd", lambda args: len(args[0]), keyword)
    # side, trans, reflectors, tau, columns, lwork: the columns' row count
    recording("zunmqr", lambda args: len(args[4]), lambda args, kwargs: args[5])
    b = random_case(6, 5, gap=1.0, coupling=0.5, seed=4).block
    nearly = BlockMatrix(b.A0, b.A1, b.W0 + 1e-15, b.W1)
    _ = b.schur, nearly.eigh
    _, trace = solve_newton_X0(b)
    assert trace.frames == 1
    # the staged eigensolves of B, of nearly and of both blocks for eigh_A
    # (each a back-transform's query, then the back-transform of the rows
    # 1..n-1 the reflectors act on), then one frame
    staged = lambda n: [("zhetrd", n), ("zunmqr", n - 1), ("zunmqr", n - 1)]
    assert [(name, n) for name, n, _ in lworks] == staged(11) * 2 + staged(6) + staged(5) + [
        ("zhegvd", 6), ("zhegvd", 5),
    ]
    for i in range(0, 12, 3):
        (_, n, trd), (_, _, query), (_, _, unmqr) = lworks[i : i + 3]
        assert trd == int(scipy.linalg.lapack.zhetrd_lwork(n, lower=1)[0].real) > n
        assert query == -1 and unmqr > (n - 1) * n
    assert all(lwork >= n * n + 66 * n + 4160 for name, n, lwork in lworks[12:])


# --- B's staged eigensolve ----------------------------------------------------


def _check_leading(m, w, v):
    """Residual and orthonormality of the leading columns ``v`` at ``16 n eps``."""
    n, k = len(m), v.shape[1]
    assert v.shape == (n, k)
    assert frobenius_norm(m @ v - v * w[:k]) <= 16 * n * EPS * frobenius_norm(m)
    assert frobenius_norm(v.conj().T @ v - np.eye(k)) <= 16 * n * EPS


@settings(max_examples=60, deadline=None)
@given(
    n=SIZES,
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["random", "repeated"]),
    exponent=st.sampled_from([0, 600, -600]),
    data=st.data(),
)
def test_staged_eigensolve_matches_zheevd(n, seed, kind, exponent, data):
    """The eigenvalues are ``zheevd``'s: bitwise on unscaled input, where
    the stages are ``zheevd``'s own, and within ``4 n eps norm_F(m)`` on
    input that the two scale differently. The leading k columns pass the
    residual and orthonormality tests, and asking for k2 > k1 columns after
    k1 keeps the k1 columns formed first."""
    m = _hermitian(np.random.default_rng(seed), n, kind) * 2.0**exponent
    staged = StagedEigh(m)
    w_ref = _zheevd(m)[0]
    assert staged.w.shape == (n,) and np.all(np.diff(staged.w) >= 0.0)
    if exponent == 0:
        np.testing.assert_array_equal(staged.w, w_ref)
    assert np.max(np.abs(staged.w - w_ref), initial=0.0) <= 4 * n * EPS * frobenius_norm(m)
    k1 = data.draw(st.integers(0, n), label="k1")
    k2 = data.draw(st.integers(k1, n), label="k2")
    first = staged.vectors(k1)
    _check_leading(m, staged.w, first)
    extended = staged.vectors(k2)
    np.testing.assert_array_equal(extended[:, :k1], first)
    _check_leading(m, staged.w, extended)
    # one request for k2 columns agrees to rounding: the BLAS may round a
    # column by where it falls in a call's column blocks
    once = StagedEigh(m).vectors(k2)
    assert frobenius_norm(once - extended) <= 16 * n * EPS * max(k2, 1) ** 0.5


def test_staged_eigensolve_is_bitwise_zheevd_on_the_benchmark_inputs():
    """B of the theorem, cli and Dirac workloads: ``zheevd``'s eigenvalues
    and, asked for at once, all its eigenvectors bitwise; on the theorem's
    and the Dirac demo's B, the leading columns the theorem reads (those
    below mu = 0) bitwise ``zheevd``'s too, so their answers are those of
    the full eigensolve; and on the newton workload's diagonal blocks,
    ``hermitian_eigh`` is bitwise ``zheevd``."""
    problem = DiracProblem(
        grid=GridSpec(n=16), potential=ImpurityPotential(amplitude=0.035, radius=0.785)
    )
    theorem = [random_case(200, 200, gap=1.0, coupling=0.5, seed=s).block.full for s in (0, 1)]
    theorem += [fw_transform(problem).swapped().full]
    cli = [
        random_case(150, 150, gap=1.0, coupling=0.5, seed=0).block.full,
        random_case(100, 100, gap=0.0, coupling=0.5, seed=0, kernel_dim=8).block.full,
    ]
    for m in theorem + cli:
        w, v = _zheevd(m)
        staged = StagedEigh(m)
        np.testing.assert_array_equal(staged.w, w)
        if any(m is t for t in theorem):
            k = int(np.count_nonzero(w < 0.0))
            assert k == len(m) // 2
            np.testing.assert_array_equal(staged.vectors(k), v[:, :k])
        np.testing.assert_array_equal(StagedEigh(m).vectors(len(m)), v)
    newton = random_case(200, 200, gap=1.0, coupling=0.5, seed=0).block
    for a in (newton.A0, newton.A1):
        for got, want in zip(hermitian_eigh(a), _zheevd(a)):
            np.testing.assert_array_equal(got, want)


def test_staged_dirac_matrix_matches_zheevd():
    grid = GridSpec(n=4, length=2 * np.pi)
    potential = ImpurityPotential(amplitude=0.05, profile="disk", radius=np.pi / 4)
    ops = build_operators(DiracProblem(grid=grid, potential=potential))
    h = dirac_hamiltonians(ops)[1]
    staged = StagedEigh(h)
    np.testing.assert_array_equal(staged.w, _zheevd(h)[0])
    _check_leading(h, staged.w, staged.vectors(len(h) // 2))
    _check_leading(h, staged.w, staged.vectors(len(h)))


def test_staged_empty_and_one_by_one_matrices():
    empty = StagedEigh(np.zeros((0, 0), np.complex128))
    assert empty.w.shape == (0,) and empty.vectors(0).shape == (0, 0)
    for value in (-3.5, 2.0**-1070, 1e308):
        one = StagedEigh(np.array([[value]], np.complex128))
        assert one.w.tolist() == [value]
        assert one.vectors(0).shape == (1, 0) and one.vectors(1).tolist() == [[1.0]]


@pytest.mark.parametrize("exponent", [1020, -1070])
def test_staged_eigensolve_at_the_ends_of_the_float_range(exponent):
    """Entries near the largest float, or subnormal, are factored at a power
    of two that brings them near 1: finite eigenvalues, the scaled ones of
    the same matrix near 1, and eigenvectors equal to that matrix's."""
    m = _hermitian(np.random.default_rng(5), 40, "random")
    m /= 2.0 ** math.frexp(np.max(np.abs(m.view(np.float64))))[1]
    scaled = StagedEigh(m * 2.0**exponent)
    unscaled = StagedEigh(m)
    assert np.all(np.isfinite(scaled.w))
    if exponent > 0:
        np.testing.assert_array_equal(scaled.w, unscaled.w * 2.0**exponent)
    else:
        tol = 4 * 40 * EPS * frobenius_norm(m) * 2.0**exponent + 2.0**-1074 * 40
        assert np.max(np.abs(scaled.w - unscaled.w * 2.0**exponent)) <= tol
    if exponent > 0:
        np.testing.assert_array_equal(scaled.vectors(40), unscaled.vectors(40))


def test_staged_eigensolve_drops_its_stages_once_every_column_is_formed():
    m = _hermitian(np.random.default_rng(6), 30, "random")
    staged = StagedEigh(m)
    staged.vectors(12)
    # no 30 x 30 complex array is held: the reflectors below the diagonal
    # of the 29 x 29 reflector block, packed, and the tridiagonal's
    # eigenvectors of the 18 columns not yet formed
    packed, _, z = staged._stages
    assert packed.shape == (29 * 28 // 2,) and z.shape == (30, 18)
    v = staged.vectors(30)
    assert staged._stages is None and not v.flags.writeable
    np.testing.assert_array_equal(staged.vectors(7), v[:, :7])


@pytest.mark.parametrize("stage", ["zhetrd", "dstevd", "zunmqr"])
def test_a_failed_stage_raises_linalg_error(monkeypatch, stage):
    original = getattr(scipy.linalg.lapack, stage)

    def failing(*args, **kwargs):
        *out, _ = original(*args, **kwargs)
        return (*out, 3)

    monkeypatch.setattr(scipy.linalg.lapack, stage, failing)
    m = _hermitian(np.random.default_rng(7), 8, "random")
    with pytest.raises(np.linalg.LinAlgError):
        StagedEigh(m).vectors(8)
