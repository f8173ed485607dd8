"""Command-line interface.

One command per process; each command loads or generates its inputs,
runs a pipeline, prints a short summary, optionally writes a JSON report
(atomically), and exits with the contract code:

    0  pass
    1  numeric-tolerance failure
    2  hypothesis / well-posedness failure
    3  input or parse error
    4  internal error (an exception outside the toolkit's own hierarchy)

Every command is one entry of :data:`COMMANDS`. Its run function only
fills the report and returns its verdict; :func:`main` loads the problem
file, prints the summary, maps the verdict to the exit code and writes
the report. An error is one JSON object on stderr (and in ``--out``).
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
from dataclasses import dataclass
from typing import Callable

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

#: Shift magnitudes that ``relbound`` sweeps without ``--tau-grid``.
RELBOUND_TAUS = tuple(np.logspace(0, 6, 13))


@contextmanager
def _timed(timings: dict, name: str):
    start = time.perf_counter()
    yield
    timings[name] = (time.perf_counter() - start) * 1e3


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
    if args.mu is not None:
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


def _random(args, report, problem) -> None:
    save_problem(
        args.out,
        random_case(
            n0=args.n0,
            n1=args.n1,
            gap=args.gap,
            coupling=args.coupling,
            seed=args.seed,
            kernel_dim=args.kernel_dim,
        ),
    )
    print(f"wrote {args.out} (sha256 {digest_file(args.out)[:16]}...)")


def _check(args, report, problem) -> bool:
    b = problem.block
    tol = args.tol
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
        ext = transform.verify_extended_identity(b, pair, right)
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
    return (
        all(v <= tol for v in report.residuals.values())
        and comp.complementary
        and ident.ok
    )


def _diagonalize(args, report, problem) -> bool:
    b = problem.block
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
    return max(left.offdiag_rel_norm, right.offdiag_rel_norm) <= args.tol


def _triangularize(args, report, problem) -> bool:
    b = problem.block
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
    return tri.lower_left_rel_norm <= args.tol


def _riccati_solve(args, report, problem) -> bool:
    b = problem.block
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
    return trace.converged


def _subordinated(args, report, problem) -> bool:
    b = problem.block
    mu = args.mu if args.mu is not None else problem.mu
    with _timed(report.timings, "pipeline"):
        result = subordinated.run_theorem(b, mu=mu, tol=args.tol)
    check = result.check
    report.certificates["subordination"] = {
        "mu": check.mu,
        "sup_spec_A0": check.sup_spec_A0,
        "inf_spec_A1": check.inf_spec_A1,
        "gap": check.gap,
    }
    report.flags.update(
        {"subordinated": check.subordinated, "symmetric_offdiag": check.symmetric_V}
    )
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
    return (
        result.reduces_ok
        and result.kernel_split_ok
        and all(v <= args.tol for v in report.residuals.values())
    )


def _neumann(args, report, problem) -> bool:
    b = problem.block
    mu = _resolve_mu(args, problem)
    with _timed(report.timings, "total"):
        pair = _spectral_route(b, mu)
        cert = criteria.neumann_certificate(b, pair, complex(*args.lam))
    report.certificates["neumann"] = {
        "lambda": cert.lam,
        "norm_V_resolvent": cert.norm_V_resolvent,
        "norm_Y": cert.norm_Y,
        "product": cert.product,
        "sigma_min_B": cert.sigma_min_B,
        "sigma_min_AYV": cert.sigma_min_AYV,
    }
    report.flags["holds"] = cert.holds
    return cert.holds


def _relbound(args, report, problem) -> bool:
    with _timed(report.timings, "sweep"):
        rb = criteria.estimate_relative_bound(problem.block, args.tau_grid)
    report.certificates["relative_bound"] = {
        "a": rb.a,
        "b_star": rb.b_star,
        "sweep": [[lam, val] for lam, val in rb.lambda_sweep],
        "resolvent_growth": [[lam, val] for lam, val in rb.resolvent_growth],
    }
    report.residuals["validation_violation"] = rb.validation_max_violation
    return True


def _dirac(args, report, problem) -> bool | int:
    params = {
        "n": args.n,
        "box": args.box,
        "amplitude": args.amplitude,
        "profile": args.profile,
        "radius": args.radius,
        "center": args.center,
    }
    report.inputs_digest = digest_obj(params)
    problem = dirac.DiracProblem(
        grid=dirac.GridSpec(n=args.n, length=args.box),
        potential=dirac.ImpurityPotential(
            amplitude=args.amplitude,
            profile=args.profile,
            radius=args.radius,
            center=args.center,
        ),
    )
    try:
        with _timed(report.timings, "pipeline"):
            result = dirac.run_dirac_pipeline(problem, tol=args.tol)
    except HypothesisError as exc:
        split = exc.report
        if split is None:
            split = dirac.check_subordination_split(problem)
        report.flags["subordinated"] = False
        report.certificates["subordination"] = _split_obj(split)
        return 2
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
    # every flag is a claim of the theorem, the kernel split included
    return all(v <= args.tol for v in report.residuals.values()) and all(
        report.flags.values()
    )


def _split_obj(split: dirac.DiracSplitReport) -> dict:
    return {
        "sup_spec_A1": split.sup_spec_A1,
        "inf_spec_A0": split.inf_spec_A0,
        "margin": split.margin,
        "u_inf": split.u_inf,
        "k_min": split.k_min,
        "block_identity_residual": split.block_identity_residual,
    }


def _emit_dirac_data(directory: str, problem: dirac.DiracProblem, result) -> None:
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


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


_positive_float = _checked(float, lambda v: v > 0.0, "> 0")
_nonnegative_int = _checked(int, lambda v: v >= 0, ">= 0")
_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_pair = _checked(_floats, lambda v: len(v) == 2, "two comma-separated numbers")
_out_path = _checked(
    str,
    lambda v: os.path.isdir(os.path.dirname(os.path.abspath(v))),
    "a path in an existing directory",
)


def _opt(*flags, **kwargs) -> tuple:
    """One ``add_argument`` call of a command: its flags and keywords."""
    return flags, kwargs


_TOL = _opt("--tol", type=_positive_float, default=CHECK_TOL,
            help="pass/fail threshold for relative residuals")
_MU = _opt("--mu", type=float, default=None,
           help="spectral splitting threshold (defaults to the file's)")
_OUT = _opt("--out", type=_out_path, default=None, help="write the JSON report here")


@dataclass(frozen=True)
class Command:
    """One CLI command.

    ``run(args, report, problem)`` fills ``report`` and returns its verdict:
    true (pass, exit 0), false (tolerance failure, exit 1) or an ``int``
    exit code; ``None`` means it writes no report. ``problem`` is the loaded
    problem file when ``reads_file`` is set (the command then takes a
    ``file`` argument), else ``None``.
    """

    run: Callable
    help: str
    options: tuple
    reads_file: bool = True


COMMANDS = {
    "random": Command(
        _random,
        "generate a seeded random problem file",
        (
            _opt("--n0", type=int, required=True),
            _opt("--n1", type=int, required=True),
            _opt("--gap", type=float, default=1.0),
            _opt("--coupling", type=float, default=0.5),
            _opt("--seed", type=int, default=0),
            _opt("--kernel-dim", type=int, default=0),
            _opt("--out", type=_out_path, required=True),
        ),
        reads_file=False,
    ),
    "check": Command(
        _check,
        "full verification pipeline on a problem file",
        (
            _TOL,
            _MU,
            _OUT,
            _opt("--lambdas", type=_positive_int, default=3,
                 help="number of sampled resolvent shifts"),
            _opt("--seed", type=int, default=0),
            _opt("--perturb-x0", type=float, default=0.0,
                 help="corrupt the extracted angular operator (negative control)"),
        ),
    ),
    "diagonalize": Command(_diagonalize, "run both block diagonalizations", (_TOL, _MU, _OUT)),
    "triangularize": Command(_triangularize, "run the block triangularization", (_TOL, _MU, _OUT)),
    "riccati-solve": Command(
        _riccati_solve,
        "Newton solve of the H0 graph equation",
        (
            _opt("--tol", type=_positive_float, default=1e-12,
                 help="Newton stopping tolerance"),
            _MU,
            _opt("--max-iter", type=_nonnegative_int, default=25),
            _OUT,
        ),
    ),
    "subordinated": Command(_subordinated, "subordinated-spectra decomposition", (_TOL, _MU, _OUT)),
    "neumann": Command(
        _neumann,
        "resolvent-intersection certificate",
        (
            _opt("--lambda", dest="lam", type=_pair, required=True, metavar="RE,IM"),
            _TOL,
            _MU,
            _OUT,
        ),
    ),
    "relbound": Command(
        _relbound,
        "relative-bound sweep along the imaginary axis",
        (
            _opt("--tau-grid", type=_floats, default=RELBOUND_TAUS,
                 help="comma-separated shift magnitudes "
                 "(default: 13 log-spaced from 1 to 1e6)"),
            _OUT,
        ),
    ),
    "dirac": Command(
        _dirac,
        "discrete Dirac impurity demonstration",
        (
            _opt("--n", type=int, default=16, help="grid points per axis (even)"),
            _opt("--box", type=float, default=2.0 * np.pi, help="box side length"),
            _opt("--amplitude", type=float, default=0.0),
            _opt("--profile", choices=("disk", "gaussian"), default="disk"),
            _opt("--radius", type=float, default=1.0),
            _opt("--center", type=_pair, default=None, metavar="X,Y"),
            _TOL,
            _OUT,
            _opt("--emit-data", default=None, metavar="DIR"),
        ),
        reads_file=False,
    ),
}


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
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.reads_file:
            p.add_argument("file")
        for flags, kwargs in command.options:
            p.add_argument(*flags, **kwargs)
    return parser


def _run(args) -> int:
    """Run one parsed command: load, run, print the summary, write the report."""
    command = COMMANDS[args.command]
    problem = load_problem(args.file) if command.reads_file else None
    report = Report(
        command=args.command,
        inputs_digest=digest_file(args.file) if command.reads_file else "",
    )
    verdict = command.run(args, report, problem)
    if verdict is None:
        return 0
    # an int is an exit code; any other verdict (bool, numpy bool) passes or fails
    code = verdict if type(verdict) is int else int(not verdict)
    print(f"[{args.command}] {'PASS' if code == 0 else 'FAIL'}")
    for key, value in sorted(report.residuals.items()):
        print(f"  {key:28s} {value:.3e}")
    for key, value in sorted(report.flags.items()):
        print(f"  {key:28s} {value}")
    if args.out:
        # inside the contract: an unwritable report is an error, not a crash
        write_json_atomic(args.out, report.to_obj())
    return code


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        return _run(args)
    except Exception as exc:
        if isinstance(exc, StructuralError):
            code = 3
        elif isinstance(exc, NumericError):
            code = 1
        elif isinstance(exc, BlockdiagError):
            code = 2
        else:
            # a crash must never read as a tolerance failure (exit 1)
            traceback.print_exc(file=sys.stderr)
            code = INTERNAL_ERROR
        error = {"type": type(exc).__name__, "message": str(exc), "exit_code": code}
        if isinstance(exc, NumericError):
            error["diagnostics"] = {k: _plain(v) for k, v in exc.diagnostics.items()}
        if isinstance(exc, NotAGraphError):
            error["sigma_min"] = _plain(exc.sigma_min)
        error_obj = {"error": error}
        print(json.dumps(error_obj), file=sys.stderr)
        out = getattr(args, "out", None)
        if out:
            write_json_atomic(out, error_obj)
        return code


def _plain(value):
    """JSON-safe diagnostic value: numpy scalars unwrapped, non-finite as text."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
