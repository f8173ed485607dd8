import json
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdiag import (
    BlockMatrix,
    check_complementary,
    form_pair,
    from_graph,
    save_problem,
    to_graph,
)
from blockdiag import angular
from blockdiag.angular import GRAPH_SIGMA_TOL, GraphBase, GraphSubspace
from blockdiag.cli import main
from blockdiag.io import ProblemFile
from blockdiag.errors import NotAGraphError, StructuralError
from blockdiag.spectral import Subspace, invariant_subspace
from conftest import containment


def _basis_of(columns, n0):
    q = np.asarray(columns, dtype=complex)
    q, _ = np.linalg.qr(q)
    return Subspace(basis=q, n0=n0)


def _below(b, mu):
    """Span of the eigenvectors of B below mu, partitioned as B."""
    w, _ = b.schur
    return invariant_subspace(b.full, b.schur, w < mu, b.norm)[0].with_partition(b.n0)


def test_to_graph_of_h0_itself():
    u = _basis_of(np.vstack([np.eye(2), np.zeros((2, 2))]), n0=2)
    g = to_graph(u, GraphBase.H0)
    assert not g.X.any()


def test_to_graph_analytic(analytic):
    u = _below(analytic, 1.0)
    g = to_graph(u, GraphBase.H0)
    assert g.X.shape == (1, 1)
    assert g.X[0, 0].real == pytest.approx(1 - np.sqrt(2), abs=1e-12)
    assert abs(g.X[0, 0].imag) <= 1e-12


def test_to_graph_rejects_vertical_subspace():
    u = _basis_of(np.array([[0.0], [1.0]]), n0=1)
    with pytest.raises(NotAGraphError):
        to_graph(u, GraphBase.H0)


def test_to_graph_dimension_mismatch():
    # dim(u) = 2 but dim(H1) = 3 in a 2+3 partition
    u = _basis_of(np.vstack([np.eye(2), np.zeros((3, 2))]), n0=2)
    with pytest.raises(StructuralError):
        to_graph(u, GraphBase.H1)


def _unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def _graph_basis(rng, n0, n1, base, sigma_min):
    """Orthonormal basis of a graph over ``base`` with a prescribed gate value.

    The base-block component is ``U diag(c) W*`` with ``min(c) = sigma_min``
    and the other component ``U' diag(sqrt(1 - c^2)) W*``, so the columns
    are orthonormal and the angular operator has norm
    ``sqrt(1 - sigma_min^2) / sigma_min``.
    """
    k, m = (n0, n1) if base is GraphBase.H0 else (n1, n0)
    r = min(k, m)
    c = np.ones(k)
    c[:r] = np.exp(rng.uniform(np.log(sigma_min), 0.0, r))
    c[0] = sigma_min
    w = _unitary(rng, k)
    q_base = (_unitary(rng, k) * c) @ w.conj().T
    q_other = (_unitary(rng, m)[:, :r] * np.sqrt(1.0 - c[:r] ** 2)) @ w[:, :r].conj().T
    parts = [q_base, q_other] if base is GraphBase.H0 else [q_other, q_base]
    return Subspace(basis=np.vstack(parts), n0=n0)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 7),
    st.integers(1, 7),
    st.sampled_from(list(GraphBase)),
    st.floats(-6.0, 0.0),
)
def test_to_graph_matches_lstsq_and_spans_the_input(seed, n0, n1, base, log_sigma):
    sigma_min = 10.0**log_sigma
    u = _graph_basis(np.random.default_rng(seed), n0, n1, base, sigma_min)
    g = to_graph(u, base)
    if base is GraphBase.H0:
        q_base, q_other = u.basis[:n0], u.basis[n0:]
    else:
        q_base, q_other = u.basis[n0:], u.basis[:n0]
    ref = np.linalg.lstsq(q_base.T, q_other.T, rcond=None)[0].T
    # both solves are backward stable, so they differ like eps * cond(q_base)
    # = eps / sigma_min: the 1e-12 bound scales by 0.1 / sigma_min below 0.1
    tol = 1e-12 * max(1.0, 0.1 / sigma_min)
    assert np.linalg.norm(g.X - ref) <= tol * np.linalg.norm(ref)
    assert containment(g.subspace, u) <= tol


@pytest.mark.parametrize("base", list(GraphBase))
def test_to_graph_gate_at_the_tolerance(base):
    rng = np.random.default_rng(7)
    below = _graph_basis(rng, 3, 4, base, 0.5 * GRAPH_SIGMA_TOL)
    with pytest.raises(NotAGraphError) as info:
        to_graph(below, base)
    assert info.value.sigma_min == pytest.approx(0.5 * GRAPH_SIGMA_TOL, rel=1e-6)
    g = to_graph(_graph_basis(rng, 3, 4, base, 2.0 * GRAPH_SIGMA_TOL), base)
    assert np.linalg.norm(g.X, 2) == pytest.approx(0.5 / GRAPH_SIGMA_TOL, rel=1e-6)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 7),
    st.integers(1, 7),
    st.sampled_from(list(GraphBase)),
    st.floats(-9.0, 0.0),
)
def test_to_graph_gate_value_is_a_lower_bound_on_sigma_min(
    seed, n0, n1, base, log_sigma
):
    """The gate value read off the SVD of X is sigma_min of the base-block
    component to within 1e-10 below and 1e-12 above, relative, plus the
    absolute rounding floor that both the reference SVD and the LU solve
    carry (about eps, so it matters only for sigma_min below about 1e-4)."""
    u = _graph_basis(np.random.default_rng(seed), n0, n1, base, 10.0**log_sigma)
    q_base = u.basis[:n0] if base is GraphBase.H0 else u.basis[n0:]
    sigma_min = np.linalg.svd(q_base, compute_uv=False)[-1]
    # a gate no value passes reports the value it gated
    with mock.patch.object(angular, "GRAPH_SIGMA_TOL", 2.0):
        with pytest.raises(NotAGraphError) as info:
            to_graph(u, base)
    floor = 16 * (n0 + n1) * np.finfo(float).eps
    assert (1 - 1e-10) * sigma_min - floor <= info.value.sigma_min
    assert info.value.sigma_min <= sigma_min * (1 + 1e-12) + floor


@pytest.mark.parametrize("base", list(GraphBase))
def test_to_graph_of_an_exactly_singular_base_block_is_not_a_graph(base):
    # the base component [[1, 0], [0, 0]] is exactly singular: LU breaks down
    columns = [0, 2] if base is GraphBase.H0 else [2, 0]
    u = Subspace(basis=np.eye(4)[:, columns], n0=2)
    with pytest.raises(NotAGraphError) as info:
        to_graph(u, base)
    assert info.value.sigma_min == 0.0


def test_check_exits_2_on_a_spectral_side_that_is_no_graph(tmp_path):
    # below mu = 0 lie the eigenvectors of A1 exactly: their H0 part is zero
    zero = np.zeros((2, 2))
    b = BlockMatrix(np.diag([1.0, 2.0]), np.diag([-1.0, -2.0]), zero, zero)
    path = tmp_path / "vertical.json"
    save_problem(path, ProblemFile(block=b, mu=0.0))
    out = tmp_path / "report.json"
    assert main(["check", str(path), "--out", str(out)]) == 2
    error = json.loads(out.read_text())["error"]
    assert error["type"] == "NotAGraphError" and error["sigma_min"] == 0.0


def test_from_graph_zero_operator():
    g = GraphSubspace(base=GraphBase.H0, X=np.zeros((2, 3)))
    sub = from_graph(g)
    assert sub.dim == 3
    assert np.max(np.abs(sub.basis[3:, :])) <= 1e-15


def test_from_graph_analytic_direction():
    x = np.array([[1 - np.sqrt(2)]])
    sub = from_graph(GraphSubspace(base=GraphBase.H0, X=x))
    expected = np.array([1.0, 1 - np.sqrt(2)])
    expected /= np.linalg.norm(expected)
    assert abs(np.vdot(expected, sub.basis[:, 0])) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("base", [GraphBase.H0, GraphBase.H1])
def test_graph_roundtrip(seed, base):
    """to_graph(from_graph(g)) recovers X to 1e-10 for norm(X) <= 10."""
    rng = np.random.default_rng(seed)
    n0, n1 = 3, 4
    shape = (n1, n0) if base is GraphBase.H0 else (n0, n1)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x *= 10.0 * rng.uniform(0.01, 1.0) / max(np.linalg.norm(x, 2), 1e-30)
    g = GraphSubspace(base=base, X=x)
    back = to_graph(from_graph(g), base)
    assert np.linalg.norm(back.X - x, 2) <= 1e-10 * (1 + np.linalg.norm(x, 2))


def test_form_pair_zero():
    p = form_pair(np.zeros((2, 3)), np.zeros((3, 2)))
    assert not p.Y.any()


def test_form_pair_skew():
    x = 0.7
    p = form_pair([[x]], [[-x]])
    y = p.Y
    np.testing.assert_array_equal(y, np.array([[0, -x], [x, 0]], dtype=complex))
    np.testing.assert_array_equal(y.conj().T, -y)


def test_form_pair_shape_mismatch():
    with pytest.raises(StructuralError):
        form_pair(np.zeros((2, 3)), np.zeros((2, 3)))


@pytest.mark.parametrize("seed", range(5))
def test_y_squared_block_diagonal(seed):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    x1 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    p = form_pair(x0, x1)
    y2 = p.Y @ p.Y
    np.testing.assert_allclose(y2[:2, :2], x1 @ x0, atol=1e-13)
    np.testing.assert_allclose(y2[2:, 2:], x0 @ x1, atol=1e-13)
    assert np.max(np.abs(y2[:2, 2:])) == 0.0
    assert np.max(np.abs(y2[2:, :2])) == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_one_minus_y_times_one_plus_y(seed):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    p = form_pair(x0, x1)
    eye = np.eye(4, dtype=complex)
    product = (eye - p.Y) @ (eye + p.Y)
    np.testing.assert_allclose(product, eye - p.Y @ p.Y, atol=1e-13)
    np.testing.assert_allclose(product[:2, :2], np.eye(2) - x1 @ x0, atol=1e-13)
    np.testing.assert_allclose(product[2:, 2:], np.eye(2) - x0 @ x1, atol=1e-13)


@pytest.mark.parametrize("seed", range(5))
def test_j_similarity_exact(seed):
    rng = np.random.default_rng(seed)
    p = form_pair(
        rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)),
        rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)),
    )
    eye = np.eye(5, dtype=complex)
    # the signature involution J = diag(I_2, -I_3)
    j = np.diag([1.0, 1.0, -1.0, -1.0, -1.0]).astype(complex)
    np.testing.assert_array_equal(j @ (eye - p.Y) @ j, eye + p.Y)


@pytest.mark.parametrize("seed", range(5))
def test_sigma_min_same_for_both_signs(seed):
    rng = np.random.default_rng(200 + seed)
    p = form_pair(
        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
    )
    eye = np.eye(6, dtype=complex)
    s_plus = np.linalg.svd(eye + p.Y, compute_uv=False)[-1]
    s_minus = np.linalg.svd(eye - p.Y, compute_uv=False)[-1]
    assert abs(s_plus - s_minus) <= 1e-10 * max(1.0, s_plus)


def test_check_complementary_zero():
    rep = check_complementary(form_pair(np.zeros((2, 2)), np.zeros((2, 2))))
    assert rep.complementary
    assert rep.sigma_min == pytest.approx(1.0, abs=1e-14)
    assert rep.norm_Y == 0.0


def test_check_complementary_singular():
    # X0 = X1 = 1 makes det(I + Y) = 1 - X1 X0 = 0
    rep = check_complementary(form_pair([[1.0]], [[1.0]]))
    assert not rep.complementary
    assert rep.sigma_min <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_check_complementary_contraction(seed):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p = form_pair(
        0.5 * x0 / np.linalg.norm(x0, 2), 0.5 * x1 / np.linalg.norm(x1, 2)
    )
    rep = check_complementary(p)
    assert rep.complementary
    assert rep.norm_Y <= 0.5 + 1e-12
    assert rep.sigma_min >= 1.0 - rep.norm_Y - 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_complementary_graphs_span_everything(seed):
    rng = np.random.default_rng(300 + seed)
    x0 = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    x1 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    x0 *= 0.4 / np.linalg.norm(x0, 2)
    x1 *= 0.4 / np.linalg.norm(x1, 2)
    p = form_pair(x0, x1)
    assert check_complementary(p).complementary
    g0 = from_graph(GraphSubspace(base=GraphBase.H0, X=p.X0))
    g1 = from_graph(GraphSubspace(base=GraphBase.H1, X=p.X1))
    stacked = np.hstack([g0.basis, g1.basis])
    assert np.linalg.svd(stacked, compute_uv=False)[-1] > 0.0
    assert np.linalg.matrix_rank(stacked) == 5


def test_graph_equals_span(analytic):
    u = _below(analytic, 1.0)
    g = to_graph(u, GraphBase.H0)
    angles = scipy.linalg.subspace_angles(from_graph(g).basis, u.basis)
    assert np.max(angles, initial=0.0) <= 1e-9
