"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance, records a PASS/FAIL line for the terminal summary, and then
asserts. Expected values come from independent closed-form oracles
(quadratic formulas, explicit 2x2 resolvents), never from the code paths
under test.
"""

import time

import numpy as np

from blockdiag import (
    BlockMatrix,
    GraphSubspace,
    diagonalize,
    form_pair,
    neumann_certificate,
    random_case,
    resolvent_norm,
    run_dirac_pipeline,
    run_theorem,
    solve_newton_X0,
    spectral_pair,
    to_graph,
    triangularize,
    verify_resolvent_invariance,
    verify_spectral_identity,
)
from blockdiag.dirac import DiracProblem, GridSpec, ImpurityPotential
from blockdiag.errors import NotAGraphError, SylvesterSingularError
from blockdiag.riccati import residual_X0
from blockdiag.spectral import Subspace
from conftest import containment, eigvecs, kernel_split_dims

ANALYTIC = BlockMatrix([0], [2], [1], [1])

COUPLINGS = (0.1, 0.5, 2.0)
SEEDS = range(100)


def _quadratic_roots(b, c):
    """Roots of x^2 + b x + c = 0 (independent oracle)."""
    disc = np.sqrt(b * b - 4.0 * c)
    return (-b - disc) / 2.0, (-b + disc) / 2.0


def _resolvent_shifts(b, count, seed):
    spec = np.linalg.eigvalsh(b.assemble())
    scale = np.linalg.norm(b.assemble(), 2)
    rng = np.random.default_rng(seed)
    shifts = []
    while len(shifts) < count:
        lam = complex(rng.uniform(-2, 2) * scale, rng.uniform(0.2, 2) * scale)
        if np.min(np.abs(spec - lam)) >= 1e-4 * scale:
            shifts.append(lam)
    return shifts


def test_criterion_1_analytic_fixture(acceptance):
    start = time.perf_counter()
    x_minus, _ = _quadratic_roots(-2.0, -1.0)  # roots of x^2 - 2x - 1
    x0 = spectral_pair(ANALYTIC, 1.0).X0
    err_x = abs(x0[0, 0] - x_minus)
    ric = residual_X0(ANALYTIC, x0).rel_norm
    pair = form_pair(x0, -x0.conj().T)
    left, _ = diagonalize(ANALYTIC, pair)
    # diag(x_-, 2 - x_-), off-diagonal blocks 0; triangular: upper right 1
    expected = ([[x_minus]], [[2.0 - x_minus]])
    tri = triangularize(ANALYTIC, x0)
    err_diag, err_tri = (
        max(np.max(np.abs(np.subtract(r.diag_blocks, expected))), defect)
        for r, defect in ((left, left.offdiag_rel_norm), (tri, tri.lower_left_rel_norm))
    )
    elapsed = time.perf_counter() - start
    ok = err_x <= 1e-12 and ric <= 1e-14 and err_diag <= 1e-12 and err_tri <= 1e-12 and elapsed < 1.0
    acceptance(
        "1 analytic 2-dim fixture",
        ok,
        f"|X0 err| = {err_x:.2e}, riccati = {ric:.2e}, diag err = {err_diag:.2e}, "
        f"tri err = {err_tri:.2e}, {elapsed:.2f}s",
    )
    assert ok


def _gapped_suite():
    for coupling in COUPLINGS:
        for seed in SEEDS:
            yield coupling, seed, random_case(8, 8, gap=1.0, coupling=coupling, seed=seed)


def test_criterion_2_random_gapped_suite(acceptance):
    start = time.perf_counter()
    worst = {"norm_X": 0.0, "offdiag": 0.0, "spectral": 0.0, "adjoint": 0.0, "resolvent": 0.0}
    all_contractions_strict = True
    for coupling, seed, pf in _gapped_suite():
        b = pf.block
        result = run_theorem(b, mu=0.0)
        if not result.norm_X < 1.0:
            all_contractions_strict = False
        worst["norm_X"] = max(worst["norm_X"], result.norm_X)
        worst["offdiag"] = max(
            worst["offdiag"], *(d.offdiag_rel_norm for d in result.diag_results)
        )
        worst["adjoint"] = max(worst["adjoint"], result.adjointness_residual)
        pair = form_pair(result.X, -result.X.conj().T)
        ident = verify_spectral_identity(b, pair, tol=1e-8)
        scale = np.linalg.norm(b.assemble(), 2)
        worst["spectral"] = max(
            worst["spectral"], ident.left_distance / scale, ident.right_distance / scale
        )
        # the pair's two graphs, as check sweeps them
        for defects in verify_resolvent_invariance(
            b, pair, _resolvent_shifts(b, 5, seed)
        ):
            worst["resolvent"] = max(worst["resolvent"], *defects)
    elapsed = time.perf_counter() - start
    ok = (
        all_contractions_strict
        and worst["offdiag"] <= 1e-9
        and worst["spectral"] <= 1e-8
        and worst["adjoint"] <= 1e-10
        and worst["resolvent"] <= 1e-8
        and elapsed < 30.0
    )
    acceptance(
        "2 random gapped suite (300 cases)",
        ok,
        f"max norm_X = {worst['norm_X']:.3f} (<1: {all_contractions_strict}), "
        f"offdiag = {worst['offdiag']:.2e}, specid = {worst['spectral']:.2e}, "
        f"adjoint = {worst['adjoint']:.2e}, resolvent = {worst['resolvent']:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_3_newton_oracle_equivalence(acceptance):
    start = time.perf_counter()
    per_coupling_pass = {}
    max_iters = 0
    for coupling, seed, pf in _gapped_suite():
        b = pf.block
        x_spectral = spectral_pair(b, 0.0).X0
        x_newton, trace = solve_newton_X0(b, tol=1e-12, max_iter=12)
        agreed = (
            trace.converged
            and trace.iterations <= 12
            and np.linalg.norm(x_newton - x_spectral, 2)
            <= 1e-8 * (1 + np.linalg.norm(x_spectral, 2))
        )
        if trace.converged:
            max_iters = max(max_iters, trace.iterations)
        per_coupling_pass.setdefault(coupling, 0)
        per_coupling_pass[coupling] += int(agreed)
    elapsed = time.perf_counter() - start
    ok = all(count >= 99 for count in per_coupling_pass.values()) and elapsed < 30.0
    counts = ", ".join(f"c={c}: {n}/100" for c, n in sorted(per_coupling_pass.items()))
    acceptance(
        "3 Newton vs spectral oracle",
        ok,
        f"{counts}, max iterations = {max_iters}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_4_one_point_intersection(acceptance, one_point):
    start = time.perf_counter()
    # independent oracle: inner 2x2 block [[-1, 1], [1, 2]] has
    # char. polynomial x^2 - x - 3; the angular entry is 1 + lambda_-
    lam_minus, _ = _quadratic_roots(-1.0, -3.0)
    x_entry = 1.0 + lam_minus
    dims = kernel_split_dims(one_point, 0.0)
    result = run_theorem(one_point, mu=0.0)
    split_ok = result.kernel_split_ok
    expected_x = np.diag([0.0, x_entry]).astype(complex)
    err_x = np.max(np.abs(result.X - expected_x))
    norm_ok = abs(result.norm_X - abs(x_entry)) <= 1e-10 and result.norm_X <= 1.0
    below = eigvecs(one_point, lambda w, band: w < -band)
    below_eq = eigvecs(one_point, lambda w, band: w <= band)
    sandwich_ok = (
        below.dim < result.L.dim < below_eq.dim
        and containment(below, result.L) <= 1e-9
        and containment(result.L, below_eq) <= 1e-9
    )
    elapsed = time.perf_counter() - start
    ok = (
        split_ok
        and dims == (2, 1, 1)
        and err_x <= 1e-10
        and norm_ok
        and sandwich_ok
        and elapsed < 1.0
    )
    acceptance(
        "4 one-point spectral intersection",
        ok,
        f"kernel {dims[0]} = {dims[1]}+{dims[2]}, |X err| = "
        f"{err_x:.2e}, norm_X = {result.norm_X:.4f}, strict sandwich = {sandwich_ok}, "
        f"{elapsed:.2f}s",
    )
    assert ok


def test_criterion_5_neumann_certificate(acceptance):
    start = time.perf_counter()
    # oracle: V (A - lam)^{-1} at lam = 1+i has antidiagonal entries
    # 1/(2 - lam) and 1/(-lam), both of modulus 1/sqrt(2)
    expected = 1.0 / np.sqrt(2.0)
    value = resolvent_norm(ANALYTIC, 1 + 1j)
    x0 = spectral_pair(ANALYTIC, 1.0).X0
    pair = form_pair(x0, -x0.conj().T)
    cert = neumann_certificate(ANALYTIC, pair, 1 + 1j)
    negative = neumann_certificate(ANALYTIC, pair, 1.0)
    elapsed = time.perf_counter() - start
    ok = (
        abs(value - expected) <= 1e-12
        and cert.holds
        and cert.sigma_min_B is not None
        and cert.sigma_min_B > 0
        and cert.sigma_min_AYV > 0
        and not negative.holds
        and abs(negative.product - 1.0) <= 1e-12
        and elapsed < 1.0
    )
    acceptance(
        "5 Neumann certificate fixture",
        ok,
        f"norm = {value:.12f} (expect {expected:.12f}), holds = {cert.holds}, "
        f"sigma_min(B-lam) = {cert.sigma_min_B:.3f}, negative product = "
        f"{negative.product:.12f}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_6_dirac_demo(acceptance):
    start = time.perf_counter()
    grid = GridSpec(n=16, length=2 * np.pi)
    problem = DiracProblem(
        grid=grid,
        potential=ImpurityPotential(
            amplitude=0.05 * grid.k_min, profile="disk", radius=grid.length / 8
        ),
    )
    result = run_dirac_pipeline(problem)
    offdiag = max(d.offdiag_rel_norm for d in result.theorem.diag_results)
    elapsed = time.perf_counter() - start
    ok = (
        result.fw_unitarity_residual <= 1e-10
        and result.split.block_identity_residual <= 1e-10
        and result.split.subordinated
        and result.split.margin > 0
        and result.norm_X < 1.0
        and offdiag <= 1e-8
        and result.angle_minus <= 1e-8
        and result.angle_plus <= 1e-8
        and elapsed < 60.0
    )
    acceptance(
        "6 Dirac demo (512x512)",
        ok,
        f"unitarity = {result.fw_unitarity_residual:.2e}, split = "
        f"{result.split.block_identity_residual:.2e}, margin = {result.split.margin:.3f}, "
        f"norm_X = {result.norm_X:.4f}, offdiag = {offdiag:.2e}, angles = "
        f"({result.angle_minus:.2e}, {result.angle_plus:.2e}), {elapsed:.1f}s",
    )
    assert ok


def test_criterion_7_negative_controls(acceptance):
    start = time.perf_counter()
    flat_graph = GraphSubspace(base="H0", X=[[0.0]])
    [(invariance_defect,)] = verify_resolvent_invariance(ANALYTIC, [flat_graph], [0.0])
    tri = triangularize(ANALYTIC, [[0.0]])
    # at X0 = 0 the lower-left block is W0 itself
    lower_left_exact = tri.lower_left_rel_norm == np.linalg.norm(ANALYTIC.W0) / ANALYTIC.norm
    vertical = Subspace(basis=np.array([[0.0], [1.0]], dtype=complex), n0=1)
    try:
        to_graph(vertical, "H0")
        not_a_graph_raised = False
    except NotAGraphError:
        not_a_graph_raised = True
    try:
        solve_newton_X0(BlockMatrix([0.0], [0.0], [1.0], [1.0]))
        sylvester_raised = False
    except SylvesterSingularError:
        sylvester_raised = True
    elapsed = time.perf_counter() - start
    ok = (
        invariance_defect >= 1e-2
        and lower_left_exact
        and not_a_graph_raised
        and sylvester_raised
        and elapsed < 1.0
    )
    acceptance(
        "7 negative controls",
        ok,
        f"non-invariant defect = {invariance_defect:.3f} (>= 1e-2), lower-left == W0: "
        f"{lower_left_exact}, NotAGraph: {not_a_graph_raised}, SylvesterSingular: "
        f"{sylvester_raised}, {elapsed:.2f}s",
    )
    assert ok
