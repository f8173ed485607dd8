"""Metamorphic properties of ``run_theorem``'s contraction X.

Three maps of the input whose effect on the graph operator of the
reducing subspace is known in closed form, checked across generated gapped
cases and the closed gap with a kernel planted at mu:

* a shift ``A_i + sI`` with ``mu + s`` leaves X unchanged;
* the block unitary ``diag(U0, U1)`` maps X to ``U1 X U0*``;
* ``-B`` with H0 and H1 exchanged, at ``-mu``, has the contraction ``-X*``
  (its reducing subspace is the complement graph(-X*) over H1).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdiag import BlockMatrix, choose_mu, random_case, run_theorem

PROPERTY = settings(max_examples=40, deadline=None)

TOL = 1e-10


def _problem(seed, n0, n1, gap, coupling, kernel_dim):
    """Gapped case, or (``kernel_dim > 0``) a kernel planted at mu = 0."""
    if kernel_dim:
        pf = random_case(n0, n1, gap=0.0, coupling=coupling, seed=seed, kernel_dim=kernel_dim)
        return pf.block, 0.0
    b = random_case(n0, n1, gap=gap, coupling=coupling, seed=seed).block
    return b, choose_mu(b)


problems = st.builds(
    _problem,
    seed=st.integers(0, 2**16),
    n0=st.integers(2, 6),
    n1=st.integers(2, 6),
    gap=st.floats(0.1, 2.0),
    coupling=st.floats(0.05, 2.0),
    kernel_dim=st.integers(0, 2),
)


def _haar(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitize(m):
    return 0.5 * (m + m.conj().T)


def _assert_close(x, ref):
    assert np.max(np.abs(x - ref), initial=0.0) <= TOL


@PROPERTY
@given(problems, st.floats(-10.0, 10.0))
def test_shift_leaves_x_unchanged(problem, s):
    b, mu = problem
    shifted = BlockMatrix(
        b.A0 + s * np.eye(b.n0), b.A1 + s * np.eye(b.n1), b.W0, b.W1
    )
    _assert_close(run_theorem(shifted, mu=mu + s).X, run_theorem(b, mu=mu).X)


@PROPERTY
@given(problems, st.integers(0, 2**32 - 1))
def test_block_unitary_conjugates_x(problem, seed):
    b, mu = problem
    rng = np.random.default_rng(seed)
    u0, u1 = _haar(rng, b.n0), _haar(rng, b.n1)
    w1 = u0 @ b.W1 @ u1.conj().T
    rotated = BlockMatrix(
        _hermitize(u0 @ b.A0 @ u0.conj().T),
        _hermitize(u1 @ b.A1 @ u1.conj().T),
        w1.conj().T,
        w1,
    )
    x = run_theorem(b, mu=mu).X
    _assert_close(run_theorem(rotated, mu=mu).X, u1 @ x @ u0.conj().T)


@PROPERTY
@given(problems)
def test_negated_swap_gives_minus_x_adjoint(problem):
    b, mu = problem
    mirrored = BlockMatrix(-b.A1, -b.A0, -b.W1, -b.W0)
    x = run_theorem(b, mu=mu).X
    _assert_close(run_theorem(mirrored, mu=-mu).X, -x.conj().T)
