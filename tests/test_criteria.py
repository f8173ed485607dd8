import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdiag import (
    BlockMatrix,
    estimate_relative_bound,
    form_pair,
    neumann_certificate,
    random_case,
    resolvent_norm,
)
from blockdiag.cli import RELBOUND_TAUS
from blockdiag.errors import ContractError, ResolventError, StructuralError
from conftest import diagonal_part, offdiagonal_part

NEUMANN_FIXTURE = BlockMatrix([0.0], [2.0], [1.0], [1.0])
SKEW_PAIR = form_pair([[1 - np.sqrt(2)]], [[np.sqrt(2) - 1]])


def test_resolvent_norm_zero_coupling():
    b = BlockMatrix([0.0], [2.0], [0.0], [0.0])
    assert resolvent_norm(b, 1 + 1j) == 0.0


def test_resolvent_norm_closed_form():
    # V (A - lam)^{-1} has entries 1/(2 - lam) and 1/(-lam) on the antidiagonal
    value = resolvent_norm(NEUMANN_FIXTURE, 1 + 1j)
    assert value == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_resolvent_norm_decays_on_imaginary_axis():
    tau = 1e6
    value = resolvent_norm(NEUMANN_FIXTURE, 1j * tau)
    assert value <= 1.0 / tau + 1e-18


def test_resolvent_norm_rejects_spectrum_point():
    with pytest.raises(ResolventError):
        resolvent_norm(NEUMANN_FIXTURE, 2.0)


@pytest.mark.parametrize("seed", range(4))
def test_resolvent_norm_distance_bound(seed):
    """For Hermitian A the norm is at most norm(V)/dist(lam, spec(A))."""
    rng = np.random.default_rng(seed)
    a0 = np.diag(rng.uniform(-2, -1, 3))
    a1 = np.diag(rng.uniform(1, 2, 3))
    w1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = BlockMatrix(a0, a1, w1.conj().T, w1)
    lam = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2))
    spec_a = np.concatenate([np.diag(a0), np.diag(a1)])
    dist = np.min(np.abs(spec_a - lam))
    norm_v = np.linalg.norm(offdiagonal_part(b), 2)
    assert resolvent_norm(b, lam) <= norm_v / dist * (1 + 1e-12)


def test_neumann_certificate_trivial():
    b = BlockMatrix([0.0], [2.0], [0.0], [0.0])
    cert = neumann_certificate(b, form_pair([[0.0]], [[0.0]]), 1j)
    assert cert.holds
    assert cert.product == 0.0
    assert cert.sigma_min_B > 0
    assert cert.sigma_min_AYV > 0


def test_neumann_certificate_holds_at_complex_shift():
    cert = neumann_certificate(NEUMANN_FIXTURE, SKEW_PAIR, 1 + 1j)
    assert cert.holds
    assert cert.norm_Y == pytest.approx(np.sqrt(2) - 1, abs=1e-12)
    assert cert.product == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert cert.sigma_min_B > 0
    assert cert.sigma_min_AYV > 0


def test_neumann_certificate_fails_on_real_axis():
    # (A - 1)^{-1} = diag(-1, 1), so the coupling product has norm exactly 1
    cert = neumann_certificate(NEUMANN_FIXTURE, SKEW_PAIR, 1.0)
    assert not cert.holds
    assert cert.product == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_neumann_distance_bound_with_slack(seed):
    """sigma_min(B - lam) >= sigma_min(A - lam) (1 - resolvent norm)."""
    rng = np.random.default_rng(seed)
    a0 = np.diag(rng.uniform(-2, -1, 2))
    a1 = np.diag(rng.uniform(1, 2, 2))
    w1 = 0.2 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    b = BlockMatrix(a0, a1, w1.conj().T, w1)
    lam = 0.5j
    nv = resolvent_norm(b, lam)
    eye = np.eye(4, dtype=complex)
    sigma_a = np.linalg.svd(diagonal_part(b) - lam * eye, compute_uv=False)[-1]
    sigma_b = np.linalg.svd(b.assemble() - lam * eye, compute_uv=False)[-1]
    assert sigma_b >= 0.9 * sigma_a * (1 - nv)


def test_relative_bound_zero_coupling():
    b = BlockMatrix(np.diag([1.0, -1.0]), np.diag([2.0]), np.zeros((1, 2)), np.zeros((2, 1)))
    est = estimate_relative_bound(b, [1.0, 10.0])
    assert est.a == 0.0
    assert est.b_star == 0.0


def test_relative_bound_bounded_coupling_decays():
    est = estimate_relative_bound(NEUMANN_FIXTURE, [1.0, 100.0, 1e6])
    assert est.b_star <= 1.0 / 1e6 + 1e-18
    assert est.a == pytest.approx(1.0, abs=1e-12)


def test_relative_bound_scaled_diagonal_plateau():
    """Coupling 0.3 * (swap) * A keeps the resolvent norm near 0.3 while the
    sweep stays well inside the spectral radius of A."""
    diag = np.array([1.0, 10.0, 100.0, 1000.0])
    a0 = np.diag(diag)
    a1 = -np.diag(diag)
    w1 = 0.3 * a1  # V = 0.3 * [[0, I], [I, 0]] diag(A0, A1)
    w0 = 0.3 * a0
    b = BlockMatrix(a0, a1, w0, w1)
    est = estimate_relative_bound(b, [1.0, 3.0, 10.0, 30.0, 100.0])
    assert est.b_star == pytest.approx(0.3, abs=0.02)


def test_relative_bound_monotone_under_grid_extension():
    grid = [1.0, 10.0]
    longer = [1.0, 10.0, 100.0, 1e4]
    short = estimate_relative_bound(NEUMANN_FIXTURE, grid)
    extended = estimate_relative_bound(NEUMANN_FIXTURE, longer)
    assert extended.b_star <= short.b_star + 1e-15


def _cmat(rng, r, c):
    return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 7),
    st.integers(1, 7),
    st.floats(-3.0, 3.0),
    st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=10, unique=True),
)
def test_relative_bound_sweep_is_nonincreasing_with_b_star_last(seed, n0, n1, ls, taus):
    """For Hermitian A, ``norm(W (A - i tau)^{-1})`` cannot grow with tau:
    each resolvent eigenvalue ``1 / (w - i tau)`` shrinks in modulus. So
    ``b_star`` is the value at the largest tau."""
    rng = np.random.default_rng(seed)
    a0, a1 = _cmat(rng, n0, n0), _cmat(rng, n1, n1)
    coupling = 10.0**ls
    b = BlockMatrix(
        a0 + a0.conj().T,
        a1 + a1.conj().T,
        coupling * _cmat(rng, n1, n0),
        coupling * _cmat(rng, n0, n1),
    )
    est = estimate_relative_bound(b, sorted(taus))
    values = [value for _, value in est.lambda_sweep]
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier * (1.0 + 1e-12)
    assert est.b_star <= values[-1] <= est.b_star * (1.0 + 1e-12)


def test_relative_bound_growth_products_bounded():
    est = estimate_relative_bound(NEUMANN_FIXTURE, [1.0, 10.0, 1e3, 1e6])
    # |i tau| * norm((A - i tau)^{-1}) stays bounded for Hermitian A
    assert all(value <= 1.0 + 1e-12 for _, value in est.resolvent_growth)


def test_relative_bound_validates_grid():
    with pytest.raises(StructuralError):
        estimate_relative_bound(NEUMANN_FIXTURE, [])
    with pytest.raises(StructuralError):
        estimate_relative_bound(NEUMANN_FIXTURE, [2.0, 1.0])
    with pytest.raises(StructuralError):
        estimate_relative_bound(NEUMANN_FIXTURE, [-1.0, 1.0])


def test_relative_bound_requires_hermitian_diagonal():
    b = BlockMatrix([[1j]], [[2.0]], [[0.0]], [[0.0]])
    with pytest.raises(ContractError):
        estimate_relative_bound(b, [1.0])


def test_sweep_accepts_non_hermitian_diagonal():
    """Resolvent norms at chosen shifts work for accretive-style diagonal parts."""
    b = BlockMatrix([[1.0 + 1j]], [[2.0 + 1j]], [[0.5]], [[0.5]])
    values = [resolvent_norm(b, lam) for lam in (-1.0, -10.0, -100.0)]
    assert values[0] > values[-1]
    assert values[-1] <= 0.5 / 100.0 * (1 + 1e-10)


@pytest.mark.parametrize(
    "grid", [[float("nan")], [1.0, float("nan")], [float("inf")], [1.0, float("inf")]]
)
def test_relative_bound_refuses_non_finite_shifts(grid):
    b = BlockMatrix(np.diag([1.0, -1.0]), np.diag([2.0]), np.ones((1, 2)), np.ones((2, 1)))
    with pytest.raises(StructuralError, match="finite"):
        estimate_relative_bound(b, grid)


@pytest.mark.parametrize("lam", [complex(float("nan"), 0.0), complex(0.0, float("inf"))])
def test_resolvent_norm_refuses_non_finite_shifts(lam):
    b = BlockMatrix(np.diag([1.0, -1.0]), np.diag([2.0]), np.ones((1, 2)), np.ones((2, 1)))
    with pytest.raises(StructuralError, match="not finite"):
        resolvent_norm(b, lam)


@pytest.mark.parametrize("seed", range(3))
def test_relative_bound_sweep_values_unchanged_by_shared_products(seed):
    """The sweep forms ``W1 Q1`` and ``W0 Q0`` once; every value is bitwise
    the per-shift formula ``max(norm(W1 Q1 D1), norm(W0 Q0 D0))``."""
    rng = np.random.default_rng(seed)
    a0, a1 = (0.5 * (m + m.conj().T) for m in (_cmat(rng, 5, 5), _cmat(rng, 4, 4)))
    w1 = _cmat(rng, 5, 4)
    b = BlockMatrix(a0, a1, w1.conj().T, w1)
    taus = list(np.logspace(0, 6, 13))
    (e0, q0), (e1, q1) = b.eigh_A
    expected = [
        max(
            np.linalg.svd((b.W1 @ q1) / (e1 - 1j * t), compute_uv=False)[0],
            np.linalg.svd((b.W0 @ q0) / (e0 - 1j * t), compute_uv=False)[0],
        )
        for t in taus
    ]
    sweep = [value for _, value in estimate_relative_bound(b, taus).lambda_sweep]
    assert sweep == expected
    assert sweep == [resolvent_norm(b, 1j * t) for t in taus]


def test_relative_bound_of_subnormal_blocks_is_not_flushed_to_zero():
    """The blocks of ``random_case(4, 4)`` scaled by 2^-1070: at tau = 1
    ``norm(V) / tau`` is about 4e-323. Each shift's resolvent norm is formed
    over the power of two of the larger of the blocks and that shift, so the
    largest shift of the default sweep does not flush the blocks of the
    smallest to zero."""
    b = random_case(4, 4, gap=1.0, coupling=0.5, seed=0).block
    blocks = (b.A0, b.A1, b.W0, b.W1)
    scaled = (np.ldexp(m.view(np.float64), -1070).view(np.complex128) for m in blocks)
    est = estimate_relative_bound(BlockMatrix(*scaled), RELBOUND_TAUS)
    (lam, value), *_ = est.lambda_sweep
    assert lam == 1j and value > 0.0
