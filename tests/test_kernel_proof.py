"""The kernel split's spectrum proof against the SVDs it stands in for.

On Hermitian blocks, ``subordinated._kernel_piece`` reads an
empty ``Ker(A_i - mu) ∩ Ker(W)`` off the cached block spectrum instead of
running ``null_space_basis``. It may only do so where the SVD would return
the same empty basis, so each piece must have the SVD route's column count
and the split its verdict, and the count tests pin which inputs take the
proof and which the SVD.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdiag import BlockMatrix, random_case, run_theorem
from blockdiag import subordinated
from blockdiag.spectral import null_space_basis
from conftest import kernel_pieces

PROPERTY = settings(max_examples=150, deadline=None)


def _svd_piece(a, w, coupling, mu):
    """The null-space SVD that every kernel piece took before the proof."""
    return null_space_basis(np.vstack([a - mu * np.eye(a.shape[0]), coupling]))


def _same_as_the_svd_route(b, mu) -> list[int]:
    """Assert that each piece has the SVD's column count and the split the
    SVD route's verdict; return the column counts."""
    counts = [k.shape[1] for k in kernel_pieces(b, mu)]
    assert counts == [k.shape[1] for k in kernel_pieces(b, mu, _svd_piece)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subordinated, "_kernel_piece", _svd_piece)
        by_svd = subordinated._kernel_split(b, mu)
    assert subordinated._kernel_split(b, mu) == by_svd
    return counts


def _record_pieces(monkeypatch):
    """Shapes of the stacked matrices handed to ``null_space_basis``."""
    shapes = []

    def recorded(m):
        shapes.append(np.shape(m))
        return null_space_basis(m)

    monkeypatch.setattr(subordinated, "null_space_basis", recorded)
    return shapes


def _haar(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitian(q, eigenvalues):
    m = (q * eigenvalues) @ q.conj().T
    return 0.5 * (m + m.conj().T)


def _case(seed, n0, n1, spectra, side, rel, in_ker_w, offset, coupling):
    """Bitwise-Hermitian blocks around ``mu = offset``.

    ``spectra`` is ``gapped`` (both block spectra at least 0.25 from mu),
    ``touching`` (an eigenvalue of the block on ``side`` exactly at mu) or
    ``near`` (that eigenvalue ``rel * (1 + coupling)`` away from mu, on the
    subordinated side). ``in_ker_w`` removes its eigenvector from the
    coupling, so that it is a kernel vector of the stacked matrix as well.
    """
    rng = np.random.default_rng(seed)
    lam0 = -rng.uniform(0.25, 2.0, size=n0)
    lam1 = rng.uniform(0.25, 2.0, size=n1)
    if spectra != "gapped":
        d = 0.0 if spectra == "touching" else rel * (1.0 + coupling)
        (lam0 if side == 0 else lam1)[0] = -d if side == 0 else d
    q0, q1 = _haar(rng, n0), _haar(rng, n1)
    w1 = rng.standard_normal((n0, n1)) + 1j * rng.standard_normal((n0, n1))
    if in_ker_w:
        if side == 0:
            v = q0[:, :1]
            w1 = w1 - v @ (v.conj().T @ w1)
        else:
            v = q1[:, :1]
            w1 = w1 - (w1 @ v) @ v.conj().T
    w1 = coupling * w1 / max(np.linalg.norm(w1, 2), 1e-300)
    a0 = _hermitian(q0, lam0 + offset)
    a1 = _hermitian(q1, lam1 + offset)
    return BlockMatrix(a0, a1, w1.conj().T, w1), float(offset)


cases = st.builds(
    _case,
    seed=st.integers(0, 2**32 - 1),
    n0=st.integers(1, 6),
    n1=st.integers(1, 6),
    spectra=st.sampled_from(["gapped", "touching", "near"]),
    side=st.integers(0, 1),
    rel=st.floats(-13.0, -6.0).map(lambda e: 10.0**e),
    in_ker_w=st.booleans(),
    offset=st.sampled_from([0.0, 1.0, -3.0, 1e4, -1e8]),
    coupling=st.floats(-2.0, 4.0).map(lambda e: 10.0**e),
)


@PROPERTY
@given(cases)
def test_kernel_split_report_equals_the_svd_route(case):
    b, mu = case
    assert b.hermitian_A
    _same_as_the_svd_route(b, mu)


def _near_kernel_case(coupling, delta):
    """A0 has eigenvalue ``-delta`` below mu = 0, its eigenvector in Ker W1*."""
    a0 = np.diag([-delta, -1.0, -2.0])
    a1 = np.diag([1.0, 2.0])
    w1 = np.zeros((3, 2))
    w1[1:, :] = coupling * np.array([[0.6, 0.0], [0.0, 0.8]])
    return BlockMatrix(a0, a1, w1.T, w1)


def test_large_coupling_raises_the_svd_threshold():
    # sigma_min(m) = 1e-8 is below DEFAULT_TOL * sigma_max(m) = 8e-7 only
    # because of the coupling: a bound over norm(A0 - mu) alone would call
    # this piece empty
    b = _near_kernel_case(coupling=1e4, delta=1e-8)
    assert _same_as_the_svd_route(b, 0.0) == [1, 0]


def _rounding_case():
    """Blocks where ``eigvalsh`` overstates dist(mu, spec A0) by far more
    than the SVD's sigma_min(A0 - mu), with the coupling sized so that the
    SVD threshold falls between the two.

    At ``mu = 1e10`` the eigenvalues of A0 are only known to about one ulp
    of 1e10 (2e-6), while ``A0 - mu`` is formed exactly and its SVD is
    accurate to ``eps * norm``. Only the rounding slack keeps the spectrum
    proof from calling this piece empty.
    """
    c = 1e10
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n0 = 8
        q = _haar(rng, n0)
        a0 = _hermitian(q, np.concatenate([[0.0], -rng.uniform(0.5, 2.0, n0 - 1)]))
        a0 = a0 + c * np.eye(n0)
        shifted = a0 - c * np.eye(n0)
        _, s, vh = np.linalg.svd(shifted)
        dist = float(np.min(np.abs(np.linalg.eigvalsh(a0) - c)))
        if dist > 100.0 * s[-1]:
            break
    else:
        pytest.fail("no seed in range(50) overstates the distance")
    # W1* annihilates the near-null vector; DEFAULT_TOL * norm(m) = sqrt(dist * s)
    y = vh[0].conj()  # a unit vector orthogonal to the near-null vector
    w1 = (np.sqrt(dist * s[-1]) / subordinated.DEFAULT_TOL) * y[:, None]
    a1 = np.array([[c + 1.0]])
    return BlockMatrix(a0, a1, w1.conj().T, w1), c


def test_rounding_slack_keeps_the_svd_decision():
    b, mu = _rounding_case()
    assert b.hermitian_A
    assert _same_as_the_svd_route(b, mu)[0] == 1


# --- which inputs take the proof, which the SVD ----------------------------


def test_gapped_case_takes_no_null_space_svd(monkeypatch):
    b = random_case(6, 5, gap=1.0, coupling=0.5, seed=4).block
    pieces = _record_pieces(monkeypatch)
    result = run_theorem(b)
    assert result.kernel_split_ok and result.reduces_ok
    assert pieces == []


def _nearly_hermitian(b):
    return BlockMatrix(b.A0 + 1e-15j * np.eye(b.n0), b.A1, b.W0, b.W1)


def _both_near(seed):
    """Both block spectra 1e-11 from mu = 0, eigenvectors off Ker W."""
    rng = np.random.default_rng(seed)
    q0, q1 = _haar(rng, 4), _haar(rng, 3)
    a0 = _hermitian(q0, np.array([-1e-11, -0.5, -1.0, -2.0]))
    a1 = _hermitian(q1, np.array([1e-11, 0.5, 1.5]))
    w1 = 0.5 * (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
    return BlockMatrix(a0, a1, w1.conj().T, w1)


@pytest.mark.parametrize("case", ["kernel", "near", "nearly_hermitian"])
def test_other_inputs_take_both_svds(monkeypatch, case):
    """A kernel at mu and block spectra near mu take both SVDs. Blocks
    Hermitian only to tolerance are stored as their Hermitian parts, so a
    gapped such input takes the proof, as its bitwise neighbour does."""
    if case == "kernel":
        b = random_case(5, 4, gap=0.0, coupling=0.5, seed=1, kernel_dim=2).block
    elif case == "near":
        b = _both_near(3)
    else:
        b = _nearly_hermitian(random_case(5, 4, gap=1.0, coupling=0.5, seed=1).block)
        assert b.hermitian_A and b.slack > 0.0
    pieces = _record_pieces(monkeypatch)
    run_theorem(b, mu=0.0)
    assert pieces == ([] if case == "nearly_hermitian" else [(b.dim, b.n0), (b.dim, b.n1)])
