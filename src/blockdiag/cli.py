"""Command-line interface.

One command per process; each command loads or generates its inputs,
runs a pipeline, prints a short summary, optionally writes a JSON report
(atomically), and exits with the contract code:

    0  pass
    1  numeric-tolerance failure
    2  hypothesis / well-posedness failure
    3  input or parse error
    4  internal error (an exception outside the toolkit's own hierarchy)
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import traceback
from contextlib import contextmanager

import numpy as np

from . import angular, criteria, dirac, riccati, subordinated, transform
from .core import BlockMatrix, frobenius_norm, is_symmetric_offdiag, operator_norm
from .errors import (
    BlockdiagError,
    HypothesisError,
    NotAGraphError,
    NumericError,
    StructuralError,
)
from .io import (
    Report,
    digest_file,
    digest_obj,
    load_problem,
    save_problem,
    write_json_atomic,
)
from .fixtures import random_case
from .spectral import eigenbasis_subspace, eigenvalues, invariant_subspace_by_region

#: Default pass/fail threshold for relative residuals reported by commands.
CHECK_TOL = 1e-8

#: Exit code of an exception outside :class:`BlockdiagError` (a crash).
INTERNAL_ERROR = 4


@contextmanager
def _timed(timings: dict, name: str):
    start = time.perf_counter()
    yield
    timings[name] = (time.perf_counter() - start) * 1e3


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise StructuralError(f"expected 're,im', got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise StructuralError(f"cannot parse complex number {text!r}: {exc}") from exc


def choose_split_mu(b: BlockMatrix) -> float:
    """Threshold between the n0-th and (n0+1)-th eigenvalue (by real part)."""
    re = np.sort(b.eigvals.real)
    return float(0.5 * (re[b.n0 - 1] + re[b.n0]))


def _spectral_route(b: BlockMatrix, mu: float) -> angular.AngularPair:
    """Angular pair from the invariant subspaces on both sides of mu.

    A Hermitian B takes both subspaces from its one cached ``eigh``, scaled
    by ``norm(B)``; other input takes a sorted Schur form per side. Either
    way each subspace passes the region-gap and invariance guarantees of
    :func:`~blockdiag.spectral.invariant_subspace_by_region`.
    """
    full = b.full
    if b.hermitian:
        w, v = b.eigh
        mask = w < mu
        below = eigenbasis_subspace(full, w, v, mask, b.norm).with_partition(b.n0)
        above = eigenbasis_subspace(full, w, v, ~mask, b.norm).with_partition(b.n0)
    else:
        below = invariant_subspace_by_region(
            full, lambda z: z.real < mu
        ).with_partition(b.n0)
        above = invariant_subspace_by_region(
            full, lambda z: z.real >= mu
        ).with_partition(b.n0)
    if below.dim != b.n0:
        raise HypothesisError(
            f"threshold {mu} captures {below.dim} eigenvalues below it, "
            f"but dim(H0) = {b.n0}"
        )
    x0 = angular.to_graph(below, angular.GraphBase.H0).X
    x1 = angular.to_graph(above, angular.GraphBase.H1).X
    return angular.form_pair(x0, x1)


def _resolve_mu(args, problem) -> float:
    if getattr(args, "mu", None) is not None:
        return float(args.mu)
    if problem.mu is not None:
        return float(problem.mu)
    return choose_split_mu(problem.block)


def _sample_shifts(b: BlockMatrix, count: int, seed: int) -> list[complex]:
    """Deterministic shifts kept away from the spectrum of B."""
    spec = b.eigvals
    scale = max(b.norm, 1.0)
    rng = np.random.default_rng(seed)
    shifts: list[complex] = []
    for _ in range(1000):
        if len(shifts) == count:
            break
        lam = complex(rng.uniform(-2, 2) * scale, rng.uniform(0.2, 2) * scale)
        if np.min(np.abs(spec - lam)) >= 1e-4 * scale:
            shifts.append(lam)
    if len(shifts) < count:
        raise NumericError("could not sample shifts away from the spectrum")
    return shifts


def cmd_random(args) -> tuple[Report | None, int]:
    problem = random_case(
        n0=args.n0,
        n1=args.n1,
        gap=args.gap,
        coupling=args.coupling,
        seed=args.seed,
        kernel_dim=args.kernel_dim,
    )
    save_problem(args.out, problem)
    print(f"wrote {args.out} (sha256 {digest_file(args.out)[:16]}...)")
    return None, 0


def cmd_check(args) -> tuple[Report, int]:
    problem = load_problem(args.file)
    b = problem.block
    tol = args.tol
    report = Report(command="check", inputs_digest=digest_file(args.file))
    timings = report.timings
    mu = _resolve_mu(args, problem)
    with _timed(timings, "spectral_route"):
        pair = _spectral_route(b, mu)
    if args.perturb_x0:
        pair = angular.form_pair(
            pair.X0 + args.perturb_x0 * np.ones_like(pair.X0), pair.X1
        )
        report.flags["perturbed_x0"] = True
    comp = angular.check_complementary(pair)
    with _timed(timings, "riccati"):
        r0 = riccati.residual_X0(b, pair.X0)
        r1 = riccati.residual_X1(b, pair.X1)
        rb = riccati.residual_block(b, pair)
    with _timed(timings, "diagonalize"):
        left = transform.diagonalize_left(b, pair)
        right = transform.diagonalize_right(b, pair)
        ext = transform.verify_extended_identity(b, pair)
    with _timed(timings, "resolvent"):
        worst_res = 0.0
        g0 = angular.GraphSubspace(base=angular.GraphBase.H0, X=pair.X0)
        g1 = angular.GraphSubspace(base=angular.GraphBase.H1, X=pair.X1)
        scale = max(b.norm, 1.0)
        for lam in _sample_shifts(b, args.lambdas, args.seed):
            # defect relative to the resolvent magnitude, so the entry is
            # dimensionless like the rest of the report
            resolvent_scale = 1.0 / b.sigma_min_shifted(lam)
            for g in (g0, g1):
                worst_res = max(
                    worst_res,
                    transform.verify_resolvent_invariance(b, g, lam)
                    / resolvent_scale,
                )
    with _timed(timings, "spectral_identity"):
        ident = transform.verify_spectral_identity(b, pair, tol)
    report.residuals.update(
        {
            "riccati_x0": r0.rel_norm,
            "riccati_x1": r1.rel_norm,
            "riccati_block": rb.rel_norm,
            "offdiag_left": left.offdiag_rel_norm,
            "offdiag_right": right.offdiag_rel_norm,
            "extended_identity": ext.identity,
            "extended_right_form": ext.right_form,
            "resolvent_invariance_max": worst_res,
            # scale like every other entry so one --tol gates them all
            "spectral_identity_left": ident.left_distance / scale,
            "spectral_identity_right": ident.right_distance / scale,
        }
    )
    report.spectra["B"] = b.eigvals
    # the spectral identity computed the spectra of left.diag_blocks already
    report.spectra["diag_left"] = ident.left_spectrum
    report.flags.update(
        {
            "hermitian": b.hermitian,
            "symmetric_offdiag": is_symmetric_offdiag(b),
            "complementary": comp.complementary,
            "spectral_identity_ok": ident.ok,
        }
    )
    report.certificates["complementarity"] = {
        "sigma_min": comp.sigma_min,
        "norm_Y": comp.norm_Y,
    }
    numeric_ok = (
        all(v <= tol for v in report.residuals.values())
        and comp.complementary
        and ident.ok
    )
    _summary("check", report, ok=numeric_ok)
    return report, 0 if numeric_ok else 1


def cmd_diagonalize(args) -> tuple[Report, int]:
    problem = load_problem(args.file)
    b = problem.block
    report = Report(command="diagonalize", inputs_digest=digest_file(args.file))
    mu = _resolve_mu(args, problem)
    with _timed(report.timings, "total"):
        pair = _spectral_route(b, mu)
        left = transform.diagonalize_left(b, pair)
        right = transform.diagonalize_right(b, pair)
    report.residuals.update(
        {
            "offdiag_left": left.offdiag_rel_norm,
            "offdiag_right": right.offdiag_rel_norm,
        }
    )
    report.spectra.update(
        {
            "left_block0": eigenvalues(left.diag_blocks[0]),
            "left_block1": eigenvalues(left.diag_blocks[1]),
            "right_block0": eigenvalues(right.diag_blocks[0]),
            "right_block1": eigenvalues(right.diag_blocks[1]),
        }
    )
    report.flags.update(
        {"reliable": left.reliable and right.reliable}
    )
    report.certificates["conditioning"] = {
        "left": left.conditioning,
        "right": right.conditioning,
    }
    ok = max(left.offdiag_rel_norm, right.offdiag_rel_norm) <= args.tol
    _summary("diagonalize", report, ok=ok)
    return report, 0 if ok else 1


def cmd_triangularize(args) -> tuple[Report, int]:
    problem = load_problem(args.file)
    b = problem.block
    report = Report(command="triangularize", inputs_digest=digest_file(args.file))
    mu = _resolve_mu(args, problem)
    with _timed(report.timings, "total"):
        pair = _spectral_route(b, mu)
        tri = transform.triangularize(b, pair.X0)
    report.residuals["lower_left"] = tri.lower_left_rel_norm
    report.spectra.update(
        {
            "block0": eigenvalues(tri.diag_blocks[0]),
            "block1": eigenvalues(tri.diag_blocks[1]),
        }
    )
    ok = tri.lower_left_rel_norm <= args.tol
    _summary("triangularize", report, ok=ok)
    return report, 0 if ok else 1


def cmd_riccati_solve(args) -> tuple[Report, int]:
    problem = load_problem(args.file)
    b = problem.block
    report = Report(command="riccati-solve", inputs_digest=digest_file(args.file))
    with _timed(report.timings, "newton"):
        x, trace = riccati.solve_newton_X0(
            b, tol=args.tol, max_iter=args.max_iter
        )
    report.residuals["final"] = trace.iterates[-1]
    report.certificates["newton"] = {
        "iterations": trace.iterations,
        "trace": trace.iterates,
    }
    report.flags["converged"] = trace.converged
    if b.hermitian:
        mu = _resolve_mu(args, problem)
        with _timed(report.timings, "spectral_crosscheck"):
            pair = _spectral_route(b, mu)
        delta = frobenius_norm(x - pair.X0) / (1.0 + operator_norm(pair.X0))
        report.residuals["newton_vs_spectral"] = delta
    _summary("riccati-solve", report, ok=trace.converged)
    return report, 0 if trace.converged else 1


def cmd_subordinated(args) -> tuple[Report, int]:
    problem = load_problem(args.file)
    b = problem.block
    report = Report(command="subordinated", inputs_digest=digest_file(args.file))
    mu = args.mu if args.mu is not None else problem.mu
    check = subordinated.check_subordination(
        b, mu if mu is not None else subordinated.choose_mu(b)
    )
    report.certificates["subordination"] = {
        "mu": check.mu,
        "sup_spec_A0": check.sup_spec_A0,
        "inf_spec_A1": check.inf_spec_A1,
        "gap": check.gap,
    }
    report.flags.update(
        {"subordinated": check.subordinated, "symmetric_offdiag": check.symmetric_V}
    )
    with _timed(report.timings, "pipeline"):
        result = subordinated.run_theorem(b, mu=mu, tol=args.tol)
    report.residuals.update(
        {
            "adjointness": result.adjointness_residual,
            "offdiag_left": result.diag_results[0].offdiag_rel_norm,
            "offdiag_right": result.diag_results[1].offdiag_rel_norm,
            "invariance_L": result.invariance_residuals[0],
            "invariance_L_perp": result.invariance_residuals[1],
        }
    )
    report.certificates["contraction"] = {"norm_X": result.norm_X}
    report.flags.update(
        {
            "kernel_split_ok": result.kernel_split_ok,
            "reduces_ok": result.reduces_ok,
            "contraction": result.norm_X <= 1.0 + subordinated.CONTRACTION_SLACK,
        }
    )
    # informational: finite-dimensional relative-bound sweep alongside
    scale = max(b.norm, 1.0)
    taus = [scale * 10.0**k for k in range(0, 7)]
    rb = criteria.estimate_relative_bound(b, taus)
    report.certificates["relative_bound"] = {"a": rb.a, "b_star": rb.b_star}
    ok = (
        result.reduces_ok
        and result.kernel_split_ok
        and all(v <= args.tol for v in report.residuals.values())
    )
    _summary("subordinated", report, ok=ok)
    return report, 0 if ok else 1


def cmd_neumann(args) -> tuple[Report, int]:
    problem = load_problem(args.file)
    b = problem.block
    report = Report(command="neumann", inputs_digest=digest_file(args.file))
    lam = _parse_complex(args.lam)
    mu = _resolve_mu(args, problem)
    with _timed(report.timings, "total"):
        pair = _spectral_route(b, mu)
        cert = criteria.neumann_certificate(b, pair, lam)
    report.certificates["neumann"] = {
        "lambda": cert.lam,
        "norm_V_resolvent": cert.norm_V_resolvent,
        "norm_Y": cert.norm_Y,
        "product": cert.product,
        "sigma_min_B": cert.sigma_min_B,
        "sigma_min_AYV": cert.sigma_min_AYV,
    }
    report.flags["holds"] = cert.holds
    _summary("neumann", report, ok=cert.holds)
    return report, 0 if cert.holds else 1


def cmd_relbound(args) -> tuple[Report, int]:
    problem = load_problem(args.file)
    b = problem.block
    report = Report(command="relbound", inputs_digest=digest_file(args.file))
    if args.tau_grid:
        try:
            taus = [float(t) for t in args.tau_grid.split(",")]
        except ValueError as exc:
            raise StructuralError(f"cannot parse tau grid {args.tau_grid!r}: {exc}") from exc
    else:
        taus = list(
            np.logspace(np.log10(args.tau_min), np.log10(args.tau_max), args.tau_count)
        )
    with _timed(report.timings, "sweep"):
        rb = criteria.estimate_relative_bound(b, taus)
    report.certificates["relative_bound"] = {
        "a": rb.a,
        "b": rb.b,
        "b_star": rb.b_star,
        "sweep": [[lam, val] for lam, val in rb.lambda_sweep],
        "resolvent_growth": [[lam, val] for lam, val in rb.resolvent_growth],
    }
    report.residuals["validation_violation"] = rb.validation_max_violation
    _summary("relbound", report, ok=True)
    return report, 0


def cmd_dirac(args) -> tuple[Report, int]:
    grid = dirac.GridSpec(n=args.n, length=args.box, shifted=True)
    potential = dirac.ImpurityPotential(
        amplitude=args.amplitude,
        profile=args.profile,
        radius=args.radius,
        center=_parse_center(args.center) if args.center else None,
    )
    problem = dirac.DiracProblem(grid=grid, potential=potential)
    params = {
        "n": args.n,
        "box": args.box,
        "amplitude": args.amplitude,
        "profile": args.profile,
        "radius": args.radius,
        "center": args.center,
    }
    report = Report(command="dirac", inputs_digest=digest_obj(params))
    try:
        with _timed(report.timings, "pipeline"):
            result = dirac.run_dirac_pipeline(problem, tol=args.tol)
    except HypothesisError:
        split = dirac.check_subordination_split(problem)
        report.flags["subordinated"] = False
        report.certificates["subordination"] = _split_obj(split)
        _summary("dirac", report, ok=False)
        return report, 2
    split = result.split
    report.flags.update(
        {
            "subordinated": split.subordinated,
            "contraction": result.norm_X < 1.0,
            "kernel_split_ok": result.theorem.kernel_split_ok,
            "reduces_ok": result.theorem.reduces_ok,
        }
    )
    report.certificates["subordination"] = _split_obj(split)
    report.certificates["contraction"] = {"norm_X": result.norm_X}
    report.residuals.update(
        {
            "fw_unitarity": result.fw_unitarity_residual,
            "split_identity": split.block_identity_residual,
            "offdiag_left": result.theorem.diag_results[0].offdiag_rel_norm,
            "offdiag_right": result.theorem.diag_results[1].offdiag_rel_norm,
            "adjointness": result.theorem.adjointness_residual,
            "subspace_angle_minus": result.angle_minus,
            "subspace_angle_plus": result.angle_plus,
        }
    )
    report.spectra.update(
        {
            "H": result.h_eigenvalues,
            "block_plus": result.block_eigenvalues[0],
            "block_minus": result.block_eigenvalues[1],
        }
    )
    if args.emit_data:
        _emit_dirac_data(args.emit_data, problem, result)
    ok = (
        all(v <= args.tol for v in report.residuals.values())
        and result.norm_X < 1.0
    )
    _summary("dirac", report, ok=ok)
    return report, 0 if ok else 1


def _parse_center(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise StructuralError(f"expected 'x,y', got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise StructuralError(f"cannot parse center {text!r}: {exc}") from exc


def _split_obj(split: dirac.DiracSplitReport) -> dict:
    return {
        "sup_spec_A1": split.sup_spec_A1,
        "inf_spec_A0": split.inf_spec_A0,
        "margin": split.margin,
        "u_inf": split.u_inf,
        "k_min": split.k_min,
        "block_identity_residual": split.block_identity_residual,
        "display_identity_residual": split.display_identity_residual,
    }


def _emit_dirac_data(directory: str, problem: dirac.DiracProblem, result) -> None:
    import os

    os.makedirs(directory, exist_ok=True)
    kx, ky = problem.grid.momentum_mesh()
    with open(os.path.join(directory, "momenta.csv"), "w", encoding="utf-8") as fh:
        fh.write("kx,ky,abs_k\n")
        for a, b in zip(kx, ky):
            fh.write(f"{a!r},{b!r},{np.hypot(a, b)!r}\n")
    with open(os.path.join(directory, "spectra.csv"), "w", encoding="utf-8") as fh:
        fh.write("h,block_plus,block_minus\n")
        bp, bm = (np.sort(x) for x in result.block_eigenvalues)
        h = np.sort(result.h_eigenvalues)
        rows = max(len(h), len(bp), len(bm))
        for i in range(rows):
            cols = [
                repr(float(h[i])) if i < len(h) else "",
                repr(float(bp[i])) if i < len(bp) else "",
                repr(float(bm[i])) if i < len(bm) else "",
            ]
            fh.write(",".join(cols) + "\n")


def _summary(command: str, report: Report, ok: bool) -> None:
    print(f"[{command}] {'PASS' if ok else 'FAIL'}")
    for key, value in sorted(report.residuals.items()):
        print(f"  {key:28s} {value:.3e}")
    for key, value in sorted(report.flags.items()):
        print(f"  {key:28s} {value}")


def _checked(convert, ok, requirement: str):
    """Argument type that converts and validates at parse time (exit 3)."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    return parse


_positive_float = _checked(float, lambda v: v > 0.0, "> 0")
_nonnegative_int = _checked(int, lambda v: v >= 0, ">= 0")
_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_out_path = _checked(
    str,
    lambda v: os.path.isdir(os.path.dirname(os.path.abspath(v))),
    "a path in an existing directory",
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # route usage errors through the exit-code contract (3)
        raise StructuralError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blockdiag",
        description="Block 2x2 operator-matrix decomposition toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_mu=True):
        p.add_argument("--tol", type=_positive_float, default=CHECK_TOL,
                       help="pass/fail threshold for relative residuals")
        if with_mu:
            p.add_argument("--mu", type=float, default=None,
                           help="spectral splitting threshold (defaults to the file's)")
        p.add_argument("--out", type=_out_path, default=None,
                       help="write the JSON report here")

    p = sub.add_parser("random", help="generate a seeded random problem file")
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--gap", type=float, default=1.0)
    p.add_argument("--coupling", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kernel-dim", type=int, default=0)
    p.add_argument("--out", type=_out_path, required=True)
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("check", help="full verification pipeline on a problem file")
    p.add_argument("file")
    common(p)
    p.add_argument("--lambdas", type=_positive_int, default=3,
                   help="number of sampled resolvent shifts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--perturb-x0", type=float, default=0.0,
                   help="corrupt the extracted angular operator (negative control)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("diagonalize", help="run both block diagonalizations")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_diagonalize)

    p = sub.add_parser("triangularize", help="run the block triangularization")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_triangularize)

    p = sub.add_parser("riccati-solve", help="Newton solve of the H0 graph equation")
    p.add_argument("file")
    p.add_argument("--tol", type=_positive_float, default=1e-12)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--max-iter", type=_nonnegative_int, default=25)
    p.add_argument("--out", type=_out_path, default=None)
    p.set_defaults(func=cmd_riccati_solve)

    p = sub.add_parser("subordinated", help="subordinated-spectra decomposition")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_subordinated)

    p = sub.add_parser("neumann", help="resolvent-intersection certificate")
    p.add_argument("file")
    p.add_argument("--lambda", dest="lam", required=True, metavar="RE,IM")
    common(p)
    p.set_defaults(func=cmd_neumann)

    p = sub.add_parser("relbound", help="relative-bound sweep along the imaginary axis")
    p.add_argument("file")
    p.add_argument("--tau-grid", default=None, help="comma-separated shift magnitudes")
    p.add_argument("--tau-min", type=float, default=1.0)
    p.add_argument("--tau-max", type=float, default=1e6)
    p.add_argument("--tau-count", type=int, default=13)
    p.add_argument("--out", type=_out_path, default=None)
    p.set_defaults(func=cmd_relbound)

    p = sub.add_parser("dirac", help="discrete Dirac impurity demonstration")
    p.add_argument("--n", type=int, default=16, help="grid points per axis (even)")
    p.add_argument("--box", type=float, default=2.0 * np.pi, help="box side length")
    p.add_argument("--amplitude", type=float, default=0.0)
    p.add_argument("--profile", choices=("disk", "gaussian"), default="disk")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--center", default=None, metavar="X,Y")
    p.add_argument("--seed", type=int, default=0,
                   help="reserved; the built-in profiles are deterministic")
    p.add_argument("--tol", type=_positive_float, default=CHECK_TOL)
    p.add_argument("--out", type=_out_path, default=None)
    p.add_argument("--emit-data", default=None, metavar="DIR")
    p.set_defaults(func=cmd_dirac)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        report, code = args.func(args)
        out = getattr(args, "out", None)
        if out and report is not None:
            # inside the contract: an unwritable report is an error, not a crash
            write_json_atomic(out, report.to_obj())
    except BlockdiagError as exc:
        code = _exit_code_for(exc)
        error = {"type": type(exc).__name__, "message": str(exc), "exit_code": code}
        if isinstance(exc, NumericError):
            error["diagnostics"] = {k: _plain(v) for k, v in exc.diagnostics.items()}
        if isinstance(exc, NotAGraphError):
            error["sigma_min"] = _plain(exc.sigma_min)
        error_obj = {"error": error}
        _emit_error(args, error_obj)
        return code
    except Exception as exc:
        # a crash must never read as a tolerance failure (exit 1)
        traceback.print_exc(file=sys.stderr)
        code = INTERNAL_ERROR
        error_obj = {
            "error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}
        }
        _emit_error(args, error_obj)
        return code
    return code


def _emit_error(args, error_obj: dict) -> None:
    print(json.dumps(error_obj))
    out = getattr(args, "out", None)
    if out:
        write_json_atomic(out, error_obj)


def _plain(value):
    """JSON-safe diagnostic value: numpy scalars unwrapped, non-finite as text."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _exit_code_for(exc: BlockdiagError) -> int:
    if isinstance(exc, StructuralError):
        return 3
    if isinstance(exc, NumericError):
        return 1
    return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
