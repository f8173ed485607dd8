import numpy as np
import pytest

from blockdiag import (
    BlockMatrix,
    estimate_relative_bound,
    form_pair,
    neumann_certificate,
    resolvent_norm,
)
from blockdiag.errors import ContractError, ResolventError, StructuralError

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
    norm_v = np.linalg.norm(b.offdiagonal_part(), 2)
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
    sigma_a = np.linalg.svd(b.diagonal_part() - lam * eye, compute_uv=False)[-1]
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
