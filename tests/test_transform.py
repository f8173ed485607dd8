import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdiag import (
    BlockMatrix,
    diagonalize,
    form_pair,
    random_case,
    run_theorem,
    spectral_pair,
    triangularize,
    verify_extended_identity,
    verify_resolvent_invariance,
    verify_spectral_identity,
)
from blockdiag.angular import GraphBase, GraphSubspace
from blockdiag import transform
from blockdiag.errors import NotComplementaryError, ResolventError, StructuralError
from blockdiag.riccati import residual_X0
from blockdiag.transform import BLOCK_SOLVE_CONDITION_LIMIT, match_spectra
from blockdiag.spectral import eigenvalues
from conftest import diagonal_part, offdiagonal_part, random_block

SKEW_ANALYTIC = form_pair([[1 - np.sqrt(2)]], [[np.sqrt(2) - 1]])


def _zero_pair(n0, n1):
    return form_pair(np.zeros((n1, n0)), np.zeros((n0, n1)))


def _contractive_pair(rng, n0, n1, norm=0.4):
    x0 = rng.standard_normal((n1, n0)) + 1j * rng.standard_normal((n1, n0))
    x1 = rng.standard_normal((n0, n1)) + 1j * rng.standard_normal((n0, n1))
    return form_pair(
        norm * x0 / np.linalg.norm(x0, 2), norm * x1 / np.linalg.norm(x1, 2)
    )


def test_diagonalize_left_trivial():
    b = BlockMatrix(np.diag([1.0, 2.0]), np.diag([3.0]), np.zeros((1, 2)), np.zeros((2, 1)))
    res, right = diagonalize(b, _zero_pair(2, 1))
    np.testing.assert_allclose(_forms(b, _zero_pair(2, 1))[0], diagonal_part(b), atol=1e-14)
    # the adjoint of the right form, whose off-diagonal blocks vanish
    assert res.offdiag_blocks is None and not any(m.any() for m in right.offdiag_blocks)
    assert res.offdiag_rel_norm == 0.0
    assert res.conditioning == pytest.approx(1.0)


def test_diagonalize_left_analytic(analytic):
    res = diagonalize(analytic, SKEW_ANALYTIC)[0]
    expected = np.diag([1 - np.sqrt(2), 1 + np.sqrt(2)]).astype(complex)
    np.testing.assert_allclose(_forms(analytic, SKEW_ANALYTIC)[0], expected, atol=1e-12)
    assert res.offdiag_rel_norm <= 1e-12
    np.testing.assert_allclose(res.diag_blocks[0], [[1 - np.sqrt(2)]], atol=1e-12)
    np.testing.assert_allclose(res.diag_blocks[1], [[1 + np.sqrt(2)]], atol=1e-12)


def test_diagonalize_right_analytic(analytic):
    res = diagonalize(analytic, SKEW_ANALYTIC)[1]
    expected = np.diag([1 - np.sqrt(2), 1 + np.sqrt(2)]).astype(complex)
    np.testing.assert_allclose(_forms(analytic, SKEW_ANALYTIC)[1], expected, atol=1e-12)
    assert res.offdiag_rel_norm <= 1e-12
    np.testing.assert_allclose(res.diag_blocks[0], [[1 - np.sqrt(2)]], atol=1e-12)
    np.testing.assert_allclose(res.diag_blocks[1], [[1 + np.sqrt(2)]], atol=1e-12)


def _dense_diagonalize(b, p):
    """Reference: the dense conjugations by ``I - Y`` and ``I + Y``."""
    full = b.assemble()
    eye = np.eye(b.dim)
    minus, plus = eye - p.Y, eye + p.Y
    left = np.linalg.solve(minus.T, (minus @ full).T).T
    right = np.linalg.solve(plus, full @ plus)
    return left, right


def _from_results(p, left, right):
    """Both conjugations assembled from what the results hold: the
    off-diagonal blocks, and the diagonal blocks that
    ``(I + Y) T = B (I + Y)`` and ``L (I - Y) = (I - Y) B`` give from the
    closed forms, ``T00 = m00 - X1 T10``, ``T11 = m11 - X0 T01``,
    ``L00 = l00 + L01 X0`` and ``L11 = l11 + L10 X1``. A left form with no
    blocks of its own is the adjoint of the right one."""
    (m00, m11), (t01, t10) = right.diag_blocks, right.offdiag_blocks
    t = np.block([[m00 - p.X1 @ t10, t01], [t10, m11 - p.X0 @ t01]])
    if left.offdiag_blocks is None:
        return t.conj().T, t
    (l00, l11), (l01, l10) = left.diag_blocks, left.offdiag_blocks
    return np.block([[l00 + l01 @ p.X0, l01], [l10, l11 + l10 @ p.X1]]), t


def _forms(b, p):
    """``_from_results`` of ``diagonalize(b, p)``."""
    return _from_results(p, *diagonalize(b, p))


def _offdiag_norm(m, n0):
    return np.hypot(np.linalg.norm(m[:n0, n0:]), np.linalg.norm(m[n0:, :n0]))


def _dense_scaled_left_form(b, p):
    """Reference: ``(I - Y^2)^{-1} (A - Y V) (I - Y^2)``, dense, and the
    condition number of ``I - Y^2``."""
    y = p.Y
    m = np.eye(b.dim) - y @ y
    a_minus_yv = diagonal_part(b) - y @ offdiagonal_part(b)
    return np.linalg.solve(m, a_minus_yv @ m), np.linalg.cond(m, 2)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6),
    st.booleans(), st.booleans(), st.floats(-3.0, 3.0), st.floats(-3.0, 2.0),
)
def test_diagonalize_matches_dense_conjugations(
    seed, n0, n1, hermitian, skew, log_scale, log_norm_y
):
    """The off-diagonal blocks of both results, with the diagonal blocks
    they give (``_from_results``), reproduce the literal dense conjugations
    within ``4 eps dim kappa(I + Y) (1 + norm(Y))^2 norm(B)``.
    The extended identity also solves with ``I - Y^2``, whose condition
    number is up to ``kappa(I + Y)^2``; its residuals agree with the dense
    ones within ``8 eps dim kappa(I - Y^2)`` times the norms of the compared
    terms over ``norm(B)``. In 40000 random cases of this kind every
    difference stayed below a quarter of its bound."""
    rng = np.random.default_rng(seed)
    b = random_block(rng, n0, n1, 10.0**log_scale)
    if hermitian:
        b = BlockMatrix(
            b.A0 + b.A0.conj().T, b.A1 + b.A1.conj().T, b.W1.conj().T, b.W1
        )

    def scaled(r, c):
        m = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
        return 10.0**log_norm_y * m / np.linalg.norm(m, 2)

    x0 = scaled(n1, n0)
    p = form_pair(x0, -x0.conj().T if skew else scaled(n0, n1))
    left, right = diagonalize(b, p)
    dense_left, dense_right = _dense_diagonalize(b, p)
    norm_b = np.linalg.norm(b.assemble(), 2)
    eps_dim = np.finfo(float).eps * b.dim
    kappa = np.linalg.cond(np.eye(b.dim) + p.Y, 2)
    bound = 4 * eps_dim * kappa * (1 + np.linalg.norm(p.Y, 2)) ** 2 * norm_b
    forms = _from_results(p, left, right)
    for result, form, dense in zip((left, right), forms, (dense_left, dense_right)):
        assert np.linalg.norm(form - dense) <= bound
        assert abs(result.offdiag_rel_norm * norm_b - _offdiag_norm(dense, n0)) <= bound

    ext = verify_extended_identity(b, p, right)
    rhs, kappa_m = _dense_scaled_left_form(b, p)
    a_plus_vy = diagonal_part(b) + offdiagonal_part(b) @ p.Y
    terms = sum(np.linalg.norm(m) for m in (rhs, dense_right, a_plus_vy))
    ext_bound = 8 * eps_dim * kappa_m * terms / norm_b
    assert abs(ext.identity - np.linalg.norm(dense_right - rhs) / norm_b) <= ext_bound
    assert abs(ext.right_form - np.linalg.norm(rhs - a_plus_vy) / norm_b) <= ext_bound


def _graph_defect(full, g):
    """Dense ``norm_F((I - P) B P)`` for P the projector onto span(g)."""
    q, _ = np.linalg.qr(g)
    bq = full @ q
    return np.linalg.norm(bq - q @ (q.conj().T @ bq))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 6),
    st.sampled_from(["random_case", "hermitian", "general_skew", "general"]),
    # below 1: at 1, kappa(I + Y) is the limit itself, up to rounding either side
    st.floats(-3.0, 3.0), st.floats(0.0, 1.0 - 1e-9),
)
def test_blockwise_route_matches_the_dense_reference(
    seed, n0, n1, kind, log_scale, size
):
    """Within ``BLOCK_SOLVE_CONDITION_LIMIT`` the blockwise route agrees with
    solves with ``I -/+ Y``: both ``offdiag_rel_norm``, the forms assembled
    from the results' blocks, both extended-identity residuals, and a skew
    pair's frame defects against the dense ``norm_F((I - P) B P)`` of its
    two graphs.
    Hermitian problems are ``random_case`` (with its spectral pair at mu = 0)
    and random Hermitian blocks (with a random skew pair of norm below
    sqrt(3), so kappa(I + Y) < 2); other B take a skew pair and a non-skew
    one of norm below 1/3. On bitwise-Hermitian B with a skew pair the left
    form is exactly the adjoint of the right one, and the two off-diagonal
    norms and the two frame defects are the same numbers, and the left
    result holds no blocks of its own. In 3,000 random cases of this kind
    every difference stayed below a fifth of its bound."""
    rng = np.random.default_rng(seed)

    def scaled(r, c, norm):
        m = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
        return norm * m / np.linalg.norm(m, 2)

    if kind == "random_case":
        b = random_case(n0, n1, gap=1.0, coupling=0.5, seed=seed).block
        p = spectral_pair(b, 0.0)
    else:
        b = random_block(rng, n0, n1, 10.0**log_scale)
        if kind == "hermitian":
            b = BlockMatrix(
                b.A0 + b.A0.conj().T, b.A1 + b.A1.conj().T, b.W1.conj().T, b.W1
            )
        x0 = scaled(n1, n0, size * (np.sqrt(3.0) if kind != "general" else 1 / 3))
        x1 = scaled(n0, n1, size / 3) if kind == "general" else -x0.conj().T
        p = form_pair(x0, x1)
    left, right = diagonalize(b, p)
    defects = right.frame_defects
    assert right.conditioning <= BLOCK_SOLVE_CONDITION_LIMIT
    full = b.assemble()
    dense_left, dense_right = _dense_diagonalize(b, p)
    norm_b = np.linalg.norm(full, 2)
    eps_dim = np.finfo(float).eps * b.dim
    norm_y = np.linalg.norm(p.Y, 2)
    kappa = np.linalg.cond(np.eye(b.dim) + p.Y, 2)
    bound = 4 * eps_dim * kappa * (1 + norm_y) ** 2 * norm_b
    forms = _from_results(p, left, right)
    for result, form, dense in zip((left, right), forms, (dense_left, dense_right)):
        assert np.linalg.norm(form - dense) <= bound
        assert abs(result.offdiag_rel_norm * norm_b - _offdiag_norm(dense, n0)) <= bound

    ext = verify_extended_identity(b, p, right)
    rhs, kappa_m = _dense_scaled_left_form(b, p)
    a_plus_vy = diagonal_part(b) + offdiagonal_part(b) @ p.Y
    terms = sum(np.linalg.norm(m) for m in (rhs, dense_right, a_plus_vy))
    ext_bound = 8 * eps_dim * kappa_m * terms / norm_b
    assert abs(ext.identity - np.linalg.norm(dense_right - rhs) / norm_b) <= ext_bound
    assert abs(ext.right_form - np.linalg.norm(rhs - a_plus_vy) / norm_b) <= ext_bound

    assert (defects is None) == (not p.skew)
    assert left.frame_defects == defects
    if p.skew:
        graphs = (
            np.vstack([np.eye(n0), p.X0]), np.vstack([p.X1, np.eye(n1)])
        )
        for defect, g in zip(defects, graphs):
            frame_bound = 16 * eps_dim * (1 + norm_y) ** 2 * norm_b
            assert abs(defect - _graph_defect(full, g)) <= frame_bound
    if b.hermitian and p.skew:
        assert left.offdiag_blocks is None
        assert np.linalg.norm(dense_left - dense_right.conj().T) <= 2 * bound
        assert left.offdiag_rel_norm == right.offdiag_rel_norm
        assert defects[0] == defects[1]


@pytest.mark.parametrize("skew", [True, False])
def test_diagonalization_results_keep_no_block_matrix_alive(skew):
    """The results hold blocks, not the ``BlockMatrix`` and its cached
    ``eigh``: with B gone, the conjugations they give match the dense ones."""
    b = random_case(6, 5, gap=1.0, coupling=0.5, seed=4).block
    pair = spectral_pair(b, 0.0)
    if not skew:
        pair = form_pair(pair.X0, 0.5 * pair.X1)
    dense_left, dense_right = _dense_diagonalize(b, pair)
    left, right = diagonalize(b, pair)
    block = weakref.ref(b)
    del b
    gc.collect()
    assert block() is None
    forms = _from_results(pair, left, right)
    np.testing.assert_allclose(forms[0], dense_left, atol=1e-12)
    np.testing.assert_allclose(forms[1], dense_right, atol=1e-12)


def test_diagonalize_refuses_singular_pair_without_warning(analytic):
    """``X0 = X1 = [[1]]`` makes ``I - Y^2 = 0`` exactly (and ``I - Y``
    singular): a complementarity error, not a LAPACK error or a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotComplementaryError, match="I - Y\\^2"):
            diagonalize(analytic, form_pair([[1.0]], [[1.0]]))


@pytest.mark.parametrize("seed", range(5))
def test_pipeline_offdiag_small_on_gapped_cases(seed):
    pf = random_case(5, 5, gap=1.0, coupling=0.7, seed=seed)
    result = run_theorem(pf.block, mu=0.0)
    for res in result.diag_results:
        assert res.offdiag_rel_norm <= 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_left_right_spectra_agree(seed):
    """Both conjugations are similarities, so the forms the results give
    have B's spectrum."""
    rng = np.random.default_rng(seed)
    b = random_block(rng, 3, 2)
    p = _contractive_pair(rng, 3, 2)
    full_spec = eigenvalues(b.assemble())
    scale = max(np.linalg.norm(b.assemble(), 2), 1.0)
    for form in _forms(b, p):
        assert match_spectra(full_spec, eigenvalues(form)) <= 1e-9 * scale


def test_extended_identity_zero_pair():
    # Y = 0 solves the block equation only when V = 0; then both sides are A
    b = BlockMatrix(np.diag([1.0]), np.diag([2.0]), [[0.0]], [[0.0]])
    p = _zero_pair(1, 1)
    res = verify_extended_identity(b, p, diagonalize(b, p)[1])
    assert res.identity == 0.0
    assert res.right_form == 0.0


def test_extended_identity_analytic(analytic):
    res = verify_extended_identity(
        analytic, SKEW_ANALYTIC, diagonalize(analytic, SKEW_ANALYTIC)[1]
    )
    assert res.identity <= 1e-12
    assert res.right_form <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_extended_identity_tracks_riccati_residual(seed):
    """For an arbitrary complementary pair the identity defect is controlled
    by the block equation residual (observed constant well under 1e2)."""
    rng = np.random.default_rng(seed)
    b = random_block(rng, 2, 2)
    p = _contractive_pair(rng, 2, 2, norm=0.3)
    from blockdiag.riccati import residual_block, residual_X1

    r = residual_block(b, p, residual_X0(b, p.X0), residual_X1(b, p.X1))
    res = verify_extended_identity(b, p, diagonalize(b, p)[1])
    assert res.identity <= 1e2 * max(r, 1e-15)
    assert res.right_form <= 1e2 * max(r, 1e-15)


def _unipotent_conjugation(b, x0):
    """The literal ``U B U^{-1}`` for ``U = [[I, 0], [-X0, I]]``, dense."""
    u = np.eye(b.dim, dtype=complex)
    u[b.n0 :, : b.n0] = -np.asarray(x0)
    inverse = 2 * np.eye(b.dim) - u
    return u @ b.assemble() @ inverse


def test_triangularize_zero_x0(analytic):
    res = triangularize(analytic, [[0.0]])
    np.testing.assert_array_equal(res.diag_blocks[0], analytic.A0)
    np.testing.assert_array_equal(res.diag_blocks[1], analytic.A1)
    # the lower-left block is exactly W0
    assert res.lower_left_rel_norm == np.linalg.norm(analytic.W0) / analytic.norm


def test_triangularize_analytic(analytic):
    x0 = [[1 - np.sqrt(2)]]
    res = triangularize(analytic, x0)
    expected = np.array([[1 - np.sqrt(2), 1.0], [0.0, 1 + np.sqrt(2)]], dtype=complex)
    np.testing.assert_allclose(_unipotent_conjugation(analytic, x0), expected, atol=1e-12)
    np.testing.assert_allclose(res.diag_blocks[0], expected[:1, :1], atol=1e-12)
    np.testing.assert_allclose(res.diag_blocks[1], expected[1:, 1:], atol=1e-12)
    assert res.lower_left_rel_norm <= 1e-13


@pytest.mark.parametrize("seed", range(6))
def test_triangularize_lower_left_is_riccati_residual(seed):
    rng = np.random.default_rng(seed)
    b = random_block(rng, 3, 2)
    x0 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    res = triangularize(b, x0)
    expected = residual_X0(b, x0).residual
    lower_left = _unipotent_conjugation(b, x0)[3:, :3]
    scale = np.linalg.norm(b.assemble(), 2) * (1 + np.linalg.norm(x0, 2)) ** 2
    assert np.max(np.abs(lower_left - expected)) <= 1e-12 * scale
    exact = np.linalg.norm(expected) / b.norm
    assert abs(res.lower_left_rel_norm - exact) <= 1e-12 * scale / b.norm


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(1, 7),
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
)
def test_triangularize_lower_left_is_riccati_residual_for_any_x(
    seed, n0, n1, log_scale_b, log_scale_x
):
    """The lower-left block of the unipotent conjugation is the H0 graph
    residual of X as an identity, for any X, not only at solutions, and
    ``lower_left_rel_norm`` is its relative norm."""
    rng = np.random.default_rng(seed)
    b = random_block(rng, n0, n1, 10.0**log_scale_b)
    x = 10.0**log_scale_x * (
        rng.standard_normal((n1, n0)) + 1j * rng.standard_normal((n1, n0))
    )
    lower_left = _unipotent_conjugation(b, x)[n0:, :n0]
    expected = residual_X0(b, x).residual
    norm_b = np.linalg.norm(b.assemble(), 2)
    rounding = 8 * (n0 + n1) * np.finfo(float).eps
    bound = rounding * norm_b * (1 + np.linalg.norm(x, 2)) ** 2
    assert np.linalg.norm(lower_left - expected) <= bound
    measured = triangularize(b, x).lower_left_rel_norm
    assert abs(measured - np.linalg.norm(expected) / norm_b) <= 2 * bound / norm_b


@pytest.mark.parametrize("seed", range(6))
def test_triangularize_diag_blocks(seed):
    rng = np.random.default_rng(40 + seed)
    b = random_block(rng, 2, 3)
    x0 = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    res = triangularize(b, x0)
    dense = _unipotent_conjugation(b, x0)
    scale = max(np.linalg.norm(b.assemble(), 2), 1.0) * (1 + np.linalg.norm(x0, 2)) ** 2
    np.testing.assert_allclose(dense[:2, :2], res.diag_blocks[0], atol=1e-10 * scale)
    np.testing.assert_allclose(dense[2:, 2:], res.diag_blocks[1], atol=1e-10 * scale)
    # the upper-right block of the conjugation is W1 itself
    np.testing.assert_allclose(dense[:2, 2:], b.W1, atol=1e-10 * scale)


def test_resolvent_invariance_decoupled():
    b = BlockMatrix(np.diag([1.0, 2.0]), np.diag([3.0]), np.zeros((1, 2)), np.zeros((2, 1)))
    g = GraphSubspace(base=GraphBase.H0, X=np.zeros((1, 2)))
    assert verify_resolvent_invariance(b, [g], [1j])[0][0] <= 1e-12


def test_resolvent_invariance_analytic_eigenspace(analytic):
    g = GraphSubspace(base=GraphBase.H0, X=[[1 - np.sqrt(2)]])
    assert verify_resolvent_invariance(b=analytic, graphs=[g], lams=[0.0])[0][0] <= 1e-12


def test_resolvent_invariance_negative_control(analytic):
    # H0 itself is not invariant since W0 = 1 != 0
    g = GraphSubspace(base=GraphBase.H0, X=[[0.0]])
    assert verify_resolvent_invariance(analytic, [g], [0.0])[0][0] >= 1e-2


def test_resolvent_shift_near_spectrum_rejected(analytic):
    with pytest.raises(ResolventError):
        verify_resolvent_invariance(
            analytic,
            [GraphSubspace(base=GraphBase.H0, X=[[0.0]])],
            [1 + np.sqrt(2)],
        )


@pytest.mark.parametrize("seed", range(4))
def test_resolvent_invariance_shift_independent(seed):
    """Once the pair decomposes B, the defect is tiny for any valid shift."""
    pf = random_case(5, 5, gap=1.0, coupling=0.6, seed=seed)
    b = pf.block
    result = run_theorem(b, mu=0.0)
    g = GraphSubspace(base=GraphBase.H0, X=result.X)
    scale = np.linalg.norm(b.assemble(), 2)
    rng = np.random.default_rng(seed)
    spec = np.linalg.eigvalsh(b.assemble())
    checked = 0
    while checked < 5:
        lam = complex(rng.uniform(-2, 2) * scale, rng.uniform(0.2, 2) * scale)
        if np.min(np.abs(spec - lam)) < 1e-4 * scale:
            continue
        assert verify_resolvent_invariance(b, [g], [lam])[0][0] <= 1e-8
        checked += 1


@pytest.mark.parametrize(
    "lam", [complex(math.inf, 1.0), complex(1.0, -math.inf), complex(math.nan, 1.0)]
)
@pytest.mark.parametrize("skew", [True, False])
def test_resolvent_non_finite_shift_is_an_input_error(analytic, lam, skew):
    # an infinite shift would read a zero defect, a NaN one a NaN defect
    graphs = SKEW_ANALYTIC if skew else [GraphSubspace(base=GraphBase.H0, X=[[0.0]])]
    with pytest.raises(StructuralError, match="not finite"):
        verify_resolvent_invariance(analytic, graphs, [1j, lam])


@pytest.mark.parametrize("s", [2.0**-800, 1e-300, 2.0**800, 1e300])
@pytest.mark.parametrize("skew", [True, False])
def test_resolvent_defects_are_relative_to_the_resolvent_norm(s, skew):
    """The defects of B at lam and of s B at s lam agree, on both routes."""
    b = random_case(4, 3, gap=1.0, coupling=0.5, seed=1).block
    x0 = run_theorem(b, mu=0.0).X
    # a skew pair takes the closed-form projectors; a non-skew one a QR per graph
    pair = form_pair(x0, -x0.conj().T if skew else -0.5 * x0.conj().T)
    lams = [0.3 + 1.1j, -2.0 + 0.4j]
    scaled = BlockMatrix(s * b.A0, s * b.A1, s * b.W0, s * b.W1)
    reference = np.array(verify_resolvent_invariance(b, pair, lams))
    got = np.array(verify_resolvent_invariance(scaled, pair, [s * lam for lam in lams]))
    assert np.max(reference) > (0.0 if skew else 1e-3)
    np.testing.assert_allclose(got, reference, rtol=1e-10, atol=1e-13)


@pytest.mark.parametrize("block", [0, 1])
def test_spectral_identity_certificate_keeps_a_nan_block(monkeypatch, block):
    """A NaN in either block's bound voids the certificate: the check measures."""
    b = random_case(6, 6, gap=1.0, coupling=0.5, seed=0).block
    x = run_theorem(b, mu=0.0).X
    pair = form_pair(x, -x.conj().T)
    certified = verify_spectral_identity(b, pair, tol=1e-8)
    assert certified.left_spectrum is b.eigvals
    real_solve, calls = np.linalg.solve, []

    def solve(a, m):
        calls.append(a.shape)
        out = real_solve(a, m)
        return out * math.nan if len(calls) == block + 1 else out

    monkeypatch.setattr(np.linalg, "solve", solve)
    assert math.isnan(transform._spectral_identity_bound(b, pair))
    assert len(calls) == 2
    calls.clear()
    measured = verify_spectral_identity(b, pair, tol=1e-8)
    assert measured.left_spectrum is not b.eigvals
    assert max(measured.left_distance, measured.right_distance) <= 1e-8 * b.norm


def test_spectral_identity_decoupled():
    b = BlockMatrix(np.diag([1.0, 2.0]), np.diag([5.0]), np.zeros((1, 2)), np.zeros((2, 1)))
    rep = verify_spectral_identity(b, _zero_pair(2, 1), tol=1e-10)
    assert max(rep.left_distance, rep.right_distance) <= 1e-10 * b.norm
    assert rep.left_distance == 0.0


def test_spectral_identity_analytic(analytic):
    rep = verify_spectral_identity(analytic, SKEW_ANALYTIC, tol=1e-10)
    assert max(rep.left_distance, rep.right_distance) <= 1e-10 * analytic.norm
    assert rep.left_distance <= 1e-12
    assert rep.right_distance <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_spectral_identity_random_gapped(seed):
    pf = random_case(6, 6, gap=1.0, coupling=0.5, seed=seed)
    result = run_theorem(pf.block, mu=0.0)
    pair = form_pair(result.X, -result.X.conj().T)
    rep = verify_spectral_identity(pf.block, pair, tol=1e-8)
    assert max(rep.left_distance, rep.right_distance) <= 1e-8 * pf.block.norm


def test_spectral_identity_detects_wrong_pair(analytic):
    wrong = form_pair([[0.3]], [[0.1]])
    rep = verify_spectral_identity(analytic, wrong, tol=1e-8)
    assert max(rep.left_distance, rep.right_distance) > 1e-8 * analytic.norm


def test_match_spectra_sorted_pairs():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([3.0 + 1e-12, 1.0, 2.0])
    assert match_spectra(a, b) <= 1e-11


@pytest.mark.parametrize("delta", [1e-6, 1e-4])
def test_invariance_defect_controls_offdiag(delta):
    """Perturbing an exact pair by delta moves both the graph invariance
    residuals and the conjugation's off-diagonal defect by O(delta)."""
    from blockdiag.angular import from_graph
    from blockdiag.spectral import invariance_residual

    pf = random_case(4, 4, gap=1.0, coupling=0.5, seed=8)
    b = pf.block
    exact = run_theorem(b, mu=0.0).X
    noisy = exact + delta * np.ones_like(exact)
    pair = form_pair(noisy, -noisy.conj().T)
    full = b.assemble()
    scale = np.linalg.norm(full, 2)
    eps = max(
        invariance_residual(full, from_graph(GraphSubspace(base="H0", X=pair.X0))),
        invariance_residual(full, from_graph(GraphSubspace(base="H1", X=pair.X1))),
    ) / scale
    offdiag = diagonalize(b, pair)[0].offdiag_rel_norm
    assert eps > 0
    assert offdiag <= 1e2 * eps


@pytest.mark.parametrize("seed", range(3))
def test_non_hermitian_route_end_to_end(seed):
    """Sorted-Schur extraction feeds the whole transform stack for
    diagonally dominant non-Hermitian problems."""
    from blockdiag.cli import choose_split_mu
    from blockdiag.riccati import residual_X0, residual_X1

    rng = np.random.default_rng(seed)
    a0 = np.diag([-2.0 + 0.5j, -1.5 - 0.3j]) + 0.05 * rng.standard_normal((2, 2))
    a1 = np.diag([1.0 + 1j, 2.0 - 0.2j]) + 0.05 * rng.standard_normal((2, 2))
    w0 = 0.1 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    w1 = 0.1 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    b = BlockMatrix(a0, a1, w0, w1)
    pair = spectral_pair(b, choose_split_mu(b))
    assert residual_X0(b, pair.X0).rel_norm <= 1e-12
    assert residual_X1(b, pair.X1).rel_norm <= 1e-12
    assert diagonalize(b, pair)[0].offdiag_rel_norm <= 1e-12
    assert diagonalize(b, pair)[1].offdiag_rel_norm <= 1e-12
    rep = verify_spectral_identity(b, pair, tol=1e-8)
    assert max(rep.left_distance, rep.right_distance) <= 1e-8 * b.norm


def test_zero_offdiag_forces_invariance():
    """An (numerically) exact block diagonalization certifies invariance."""
    from blockdiag.angular import from_graph
    from blockdiag.spectral import invariance_residual

    pf = random_case(5, 5, gap=1.0, coupling=0.7, seed=21)
    b = pf.block
    x = run_theorem(b, mu=0.0).X
    pair = form_pair(x, -x.conj().T)
    assert diagonalize(b, pair)[0].offdiag_rel_norm <= 1e-10
    full = b.assemble()
    scale = np.linalg.norm(full, 2)
    for base, op in (("H0", pair.X0), ("H1", pair.X1)):
        g = from_graph(GraphSubspace(base=base, X=op))
        assert invariance_residual(full, g) / scale <= 1e-9


def _assert_offdiag_matches_50_digits(computed, exact, n0, norm_b):
    """The off-diagonal blocks of ``computed`` and its ``offdiag_rel_norm``
    within ``1e-12 norm(B)`` of those of the 50-digit conjugation."""
    import mpmath

    n = exact.rows
    got = np.zeros((n, n), dtype=complex)
    got[:n0, n0:], got[n0:, :n0] = computed.offdiag_blocks
    entries = [(i, j) for i in range(n) for j in range(n) if (i < n0) != (j < n0)]
    error = max(abs(mpmath.mpc(complex(got[i, j])) - exact[i, j]) for i, j in entries)
    assert float(error) <= 1e-12 * norm_b
    off = mpmath.sqrt(sum(abs(exact[i, j]) ** 2 for i, j in entries))
    assert abs(computed.offdiag_rel_norm * norm_b - float(off)) <= 1e-12 * norm_b


def test_far_from_skew_pair_keeps_dense_solve_accuracy():
    """A non-skew pair with kappa(I + Y) = 346 (kappa(I - Y^2) = 1.2e4): its
    conjugations solve with I -/+ Y, and the off-diagonal blocks of both
    forms, and their norms, agree with a 50-digit value within
    1e-12 norm(B). Through the blocks of I - Y^2 the whole forms were off
    by up to 1.2e-10 norm(B)."""
    import mpmath
    rng = np.random.default_rng(341654214)
    b = random_block(rng, 2, 1, 10.0**2.127)
    b = BlockMatrix(b.A0 + b.A0.conj().T, b.A1 + b.A1.conj().T, b.W1.conj().T, b.W1)

    def scaled(r, c):
        m = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
        return 35.0 * m / np.linalg.norm(m, 2)

    x0 = scaled(1, 2)
    p = form_pair(x0, scaled(2, 1))
    left, right = diagonalize(b, p)
    assert left.conditioning > 300
    with mpmath.workdps(50):
        full = mpmath.matrix(b.full.tolist())
        y = mpmath.matrix(p.Y.tolist())
        eye = mpmath.eye(3)
        exact_left = (eye - y) * full * mpmath.inverse(eye - y)
        exact_right = mpmath.inverse(eye + y) * full * (eye + y)
        for computed, exact in ((left, exact_left), (right, exact_right)):
            _assert_offdiag_matches_50_digits(computed, exact, 2, b.norm)


def test_ill_conditioned_skew_pair_keeps_dense_solve_accuracy():
    """Hermitian 2 + 1 blocks with a skew pair of norm(X0) = 35, so
    kappa(I + Y) = 35: its conjugations solve with I -/+ Y, and their
    off-diagonal blocks and norms agree with a 50-digit value within
    1e-12 norm(B). Through the blocks of I - Y^2, kappa(S0) = 1226, the
    whole forms were off by 3.1e-12 norm(B)."""
    import mpmath

    rng = np.random.default_rng(84)
    b = random_block(rng, 2, 1)
    b = BlockMatrix(b.A0 + b.A0.conj().T, b.A1 + b.A1.conj().T, b.W1.conj().T, b.W1)
    m = rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))
    x0 = 35.0 * m / np.linalg.norm(m, 2)
    p = form_pair(x0, -x0.conj().T)
    assert b.hermitian and p.skew
    left, right = diagonalize(b, p)
    assert left.conditioning == pytest.approx(np.hypot(1.0, 35.0))
    with mpmath.workdps(50):
        full = mpmath.matrix(b.full.tolist())
        y = mpmath.matrix(p.Y.tolist())
        eye = mpmath.eye(3)
        exact_left = (eye - y) * full * mpmath.inverse(eye - y)
        exact_right = mpmath.inverse(eye + y) * full * (eye + y)
        for computed, exact in ((left, exact_left), (right, exact_right)):
            _assert_offdiag_matches_50_digits(computed, exact, 2, b.norm)


def _planted_skew_problem(seed, n0=6, n1=5):
    """Hermitian ``B = Q diag(w) Q*`` whose eigenvectors below 0 span
    graph(X0), ``norm(X0) = 35``, and those above graph(-X0*)."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n1, n0)) + 1j * rng.standard_normal((n1, n0))
    x0 = 35.0 * m / np.linalg.norm(m, 2)
    q = np.hstack(
        [
            np.linalg.qr(np.vstack([np.eye(n0), x0]))[0],
            np.linalg.qr(np.vstack([-x0.conj().T, np.eye(n1)]))[0],
        ]
    )
    w = np.concatenate([-rng.uniform(0.5, 2.0, n0), rng.uniform(0.5, 2.0, n1)])
    f = (q * w) @ q.conj().T
    f = (f + f.conj().T) / 2
    return BlockMatrix(f[:n0, :n0], f[n0:, n0:], f[n0:, :n0], f[:n0, n0:])


@pytest.mark.parametrize("seed", range(12))
def test_extended_identity_of_an_ill_conditioned_pair_matches_50_digits(seed):
    """The spectral pair of a Hermitian 6 + 5 problem with kappa(I + Y) = 35
    takes the dense solves with I -/+ Y; both extended-identity residuals
    of the computed pair are within 1e-13 of their 50-digit values, from
    the literal ``T = (I + Y)^{-1} B (I + Y)`` and
    ``diag(S_i^{-1} l_ii S_i)``. Solving with S0 and S1, whose condition
    numbers reach 1226, they were off by up to 1.1e-13."""
    import mpmath

    b = _planted_skew_problem(seed)
    p = spectral_pair(b, 0.0)
    right = diagonalize(b, p)[1]
    assert right.conditioning > 30
    ext = verify_extended_identity(b, p, right)
    n0, n1 = b.n0, b.n1

    def mat(a):
        return mpmath.matrix(np.asarray(a).tolist())

    with mpmath.workdps(50):
        x0, x1 = mat(p.X0), mat(p.X1)
        y, eye = mat(p.Y), mpmath.eye(b.dim)
        # T minus the scaled left form diag(S_i^{-1} l_ii S_i), and that
        # form minus the closed form diag(m00, m11)
        t = mpmath.inverse(eye + y) * mat(b.full) * (eye + y)
        right_form = 0
        for lo, n, a, w_in, w_out, xa, xb in (
            (0, n0, b.A0, b.W0, b.W1, x1, x0), (n0, n1, b.A1, b.W1, b.W0, x0, x1)
        ):
            s = mpmath.eye(n) - xa * xb
            scaled = mpmath.inverse(s) * (mat(a) - xa * mat(w_in)) * s
            right_form += mpmath.mnorm(scaled - mat(a) - mat(w_out) * xb, "f") ** 2
            for i in range(n):
                for j in range(n):
                    t[lo + i, lo + j] -= scaled[i, j]
        exact = (float(mpmath.mnorm(t, "f")), float(mpmath.sqrt(right_form)))
    assert abs(ext.identity - exact[0] / b.norm) <= 1e-13
    assert abs(ext.right_form - exact[1] / b.norm) <= 1e-13


def test_match_spectra_is_the_bottleneck_on_a_clustered_spectrum():
    # sorting by (Re, Im) pairs i with 0.05 - i and reads 2.0
    a = [1j, 0.1 - 1j]
    b = [0.05 + 1j, 0.05 - 1j]
    assert match_spectra(a, b) == pytest.approx(0.05, rel=1e-12)
    assert match_spectra(b, a) == pytest.approx(0.05, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.booleans())
def test_match_spectra_matches_brute_force_bottleneck(seed, n, real):
    from itertools import permutations

    rng = np.random.default_rng(seed)
    a, b = (
        rng.standard_normal(n) + (0 if real else 1j) * rng.standard_normal(n)
        for _ in range(2)
    )
    brute = min(np.max(np.abs(a - b[list(q)])) for q in permutations(range(n)))
    assert match_spectra(a, b) == brute


def _exhaustive_bottleneck(a, b) -> float:
    """The threshold search over all pairwise distances, with no bracket."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    dist = np.abs(a[:, None] - b[None, :])
    candidates = np.unique(dist)
    lo, hi = 0, candidates.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        matched = maximum_bipartite_matching(csr_matrix(dist <= candidates[mid]), perm_type="column")
        if np.all(matched >= 0):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.sampled_from([0, 2, 8]))
def test_match_spectra_bracket_gives_the_exhaustive_search(seed, n, grid):
    """On spectra drawn from a coarse grid (many ties and clusters, so the
    bracket often closes) and on continuous ones, the search over
    ``[lo, hi]`` returns the exhaustive search's distance, bitwise."""
    rng = np.random.default_rng(seed)
    a, b = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
    if grid:
        a, b = (np.round(v * grid) / grid for v in (a, b))
        b[: n // 2] = a[: n // 2]  # half of the points shared
    assert match_spectra(a, b) == _exhaustive_bottleneck(a, b)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(1, 6),
    st.floats(0.05, 2.0),
    st.sampled_from([0.0, 1e-9, 1e-5, 1e-2]),
)
def test_frame_angle_bound_bounds_the_angles_to_the_spectral_subspaces(
    seed, n0, n1, coupling, tilt
):
    """For the spectral pair's X0, and for X0 moved by ``tilt``, the sine is
    at least those of the largest angles of orthonormal bases of graph(X0)
    and graph(-X0*) to the spectral subspaces of B below and above 0
    (measured on a dense ``eigh``), and a slack on B only raises it."""
    from blockdiag.angular import from_graph
    from blockdiag.riccati import _compressions

    b = random_case(n0, n1, gap=1.0, coupling=coupling, seed=seed).block
    x = spectral_pair(b, 0.0).X0
    x = x + tilt * np.random.default_rng(seed).standard_normal(x.shape)
    pair = form_pair(x, -x.conj().T)
    right = diagonalize(b, pair)[1]
    bases = [
        from_graph(GraphSubspace(base, x_g)).basis
        for base, x_g in ((GraphBase.H0, pair.X0), (GraphBase.H1, pair.X1))
    ]
    w, v = np.linalg.eigh(b.full)
    (c00, s0), (c11, s1) = _compressions(b, x)[2:]
    t0, t1 = w[n0 - 1] / 2.0, w[n0] / 2.0
    definite = (t0 * s0 - c00, c11 - t1 * s1)

    def bound(slack):
        return transform.frame_angle_bound(
            definite, pair.norm_Y, (t0, t1), 0.0, right.frame_defects[0], b.norm, slack
        )

    sine = bound(0.0)
    for q, side in zip(bases, (v[:, w < 0.0], v[:, w > 0.0])):
        exact = np.linalg.norm(q - side @ (side.conj().T @ q), 2)
        assert exact <= sine
    if tilt == 0.0:
        assert sine <= 1e-12
    assert bound(1e-6 * b.norm) >= sine
