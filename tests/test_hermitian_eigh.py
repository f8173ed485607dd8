"""``core.hermitian_eigh``: the one Hermitian eigensolver with eigenvectors,
of a matrix (LAPACK ``zheevd``) and of a pencil (``zhegvd``), checked
against ``numpy.linalg.eigh`` and ``scipy.linalg.eigh``."""

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdiag import BlockMatrix, random_case, solve_newton_X0
from blockdiag.core import frobenius_norm, hermitian_eigh
from blockdiag.dirac import DiracProblem, GridSpec, ImpurityPotential, build_operators

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
    h = build_operators(DiracProblem(grid=grid, potential=potential)).h_full
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
    """``zheevd``'s minimum workspace plus the blocked ``zunmtr``'s at block
    size 64. With the default workspace the back-transform runs unblocked,
    slower but with the same answers, so only this test sees a return to it."""
    lworks = []

    def recording(name):
        original = getattr(scipy.linalg.lapack, name)

        def recorded(a, *args, **kwargs):
            lworks.append((name, len(a), kwargs.get("lwork", 0)))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, name, recorded)

    recording("zheevd")
    recording("zhegvd")
    b = random_case(6, 5, gap=1.0, coupling=0.5, seed=4).block
    nearly = BlockMatrix(b.A0, b.A1, b.W0 + 1e-15, b.W1)
    _ = b.schur, nearly.eigh
    _, trace = solve_newton_X0(b)
    assert trace.frames == 1
    # B's triangular form, nearly's eigh, eigh_A of both blocks, one frame
    assert [(name, n) for name, n, _ in lworks] == [
        ("zheevd", 11), ("zheevd", 11), ("zheevd", 6), ("zheevd", 5),
        ("zhegvd", 6), ("zhegvd", 5),
    ]
    assert all(lwork >= n * n + 66 * n + 4160 for _, n, lwork in lworks)
