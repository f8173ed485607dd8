"""Command-line interface.

One command per process; each command loads or generates its inputs,
runs a pipeline, prints a short summary, optionally writes a JSON report
(atomically), and exits with the contract code:

    0  pass
    1  numeric-tolerance failure
    2  hypothesis / well-posedness failure
    3  input or parse error
    4  internal error (an exception outside the toolkit's own hierarchy)

Every command is one entry of :data:`COMMANDS`. Its run function fills
the report's spectra, certificates and input facts, and returns its
:class:`Gate` list, of two kinds: residuals and checks. :func:`_run` alone
turns gates into the verdict: it writes each residual gate under
``residuals`` and each check as a flag, names the gate that decided in
``verdict``, and exits 1 when that gate failed. A refused hypothesis is an
exception, never a gate: every exception of the toolkit is one JSON
object on stderr (and in ``--out``), with the exit code of its class.
"""

from __future__ import annotations

import argparse
import cmath
import itertools
import json
import math
import os
import sys
import time
import traceback
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import angular, criteria, dirac, riccati, subordinated, transform
from .core import BlockMatrix, relative, shift_distance
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
    jsonable,
    load_problem,
    save_problem,
    write_json_atomic,
)
from .fixtures import random_case

#: Default pass/fail threshold for relative residuals reported by commands.
CHECK_TOL = 1e-8

#: Exit code of an exception outside :class:`BlockdiagError` (a crash).
INTERNAL_ERROR = 4

#: Shift magnitudes that ``relbound`` sweeps without ``--tau-grid``.
RELBOUND_TAUS = tuple(np.logspace(0, 6, 13))


class Gate(NamedTuple):
    """One pass/fail test of a command: it passes when ``value <= bound``.

    ``kind`` is ``residual`` (reported under ``residuals``) or ``check``
    (reported as a flag). A failed gate of either kind exits 1.
    """

    name: str
    value: float
    bound: float
    kind: str

    @property
    def passes(self) -> bool:
        return self.value <= self.bound


def _residuals(tol: float, **values) -> list[Gate]:
    return [Gate(name, float(value), tol, "residual") for name, value in values.items()]


def _holds(name: str, ok: bool) -> Gate:
    """A library check that returns only a bool: 0 if it holds, else 1."""
    return Gate(name, 0.0 if ok else 1.0, 0.5, "check")


def _fields(obj, *names: str) -> dict:
    """The named attributes of a library result, as a report object."""
    return {name: getattr(obj, name) for name in names}


@contextmanager
def _timed(timings: dict, name: str):
    start = time.perf_counter()
    yield
    timings[name] = (time.perf_counter() - start) * 1e3


def choose_split_mu(b: BlockMatrix) -> float:
    """Threshold between the n0-th and (n0+1)-th eigenvalue (by real part)."""
    re = np.sort(b.eigvals.real)
    return float(0.5 * (re[b.n0 - 1] + re[b.n0]))


def _resolve_mu(args, problem) -> float:
    if args.mu is not None:
        return float(args.mu)
    if problem.mu is not None:
        return float(problem.mu)
    return choose_split_mu(problem.block)


def _sample_shifts(b: BlockMatrix, count: int, seed: int) -> list[complex]:
    """Deterministic finite shifts in a box of side ``norm(B)`` (1 for B = 0),
    kept away from the spectrum of B."""
    spec = b.eigvals
    scale = b.norm or 1.0
    rng = np.random.default_rng(seed)
    shifts: list[complex] = []
    for _ in range(1000 * count):
        if len(shifts) == count:
            break
        # a draw past the float range is discarded
        lam = complex(rng.uniform(-2, 2) * scale, rng.uniform(0.2, 2) * scale)
        if cmath.isfinite(lam) and shift_distance(spec, lam) >= 1e-4 * scale:
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
    _print(f"wrote {args.out} (sha256 {digest_file(args.out)[:16]}...)")


def _check(args, report, problem) -> list[Gate]:
    b = problem.block
    tol = args.tol
    timings = report.timings
    mu = _resolve_mu(args, problem)
    with _timed(timings, "spectral_route"):
        pair = angular.spectral_pair(b, mu)
    if args.perturb_x0:
        pair = angular.form_pair(
            pair.X0 + args.perturb_x0 * np.ones_like(pair.X0), pair.X1
        )
        report.flags["perturbed_x0"] = True
    comp = angular.check_complementary(pair)
    with _timed(timings, "riccati"):
        r0 = riccati.residual_X0(b, pair.X0)
        r1 = riccati.residual_X1(b, pair.X1)
        rb = riccati.residual_block(b, pair, r0, r1)
    with _timed(timings, "diagonalize"):
        left, right = transform.diagonalize(b, pair)
        ext = transform.verify_extended_identity(b, pair, right)
    with _timed(timings, "resolvent"):
        shifts = _sample_shifts(b, args.lambdas, args.seed)
        # np.max keeps a NaN defect, which the builtin max would drop
        worst_res = float(np.max(transform.verify_resolvent_invariance(b, pair, shifts)))
    with _timed(timings, "spectral_identity"):
        ident = transform.verify_spectral_identity(b, pair, tol)
    report.spectra["B"] = b.eigvals
    # the left block spectra the spectral identity measured or certified
    report.spectra["diag_left"] = ident.left_spectrum
    report.flags["hermitian"] = b.hermitian
    report.flags["symmetric_offdiag"] = b.symmetric_V
    report.certificates["complementarity"] = _fields(comp, "sigma_min", "norm_Y")
    return _residuals(
        tol,
        riccati_x0=r0.rel_norm,
        riccati_x1=r1.rel_norm,
        riccati_block=rb,
        offdiag_left=left.offdiag_rel_norm,
        offdiag_right=right.offdiag_rel_norm,
        extended_identity=ext.identity,
        extended_right_form=ext.right_form,
        resolvent_invariance_max=worst_res,
        spectral_identity_left=relative(ident.left_distance, b.norm),
        spectral_identity_right=relative(ident.right_distance, b.norm),
    ) + [_holds("complementary", comp.complementary)]


def _diagonalize(args, report, problem) -> list[Gate]:
    b = problem.block
    mu = _resolve_mu(args, problem)
    with _timed(report.timings, "total"):
        pair = angular.spectral_pair(b, mu)
        left, right = transform.diagonalize(b, pair)
    # the n0 eigenvalues below mu by real part, which spectral_pair found,
    # lead B's (Re, Im) order and are the spectrum of block 0 of both forms
    split = {"block0": b.eigvals[: b.n0], "block1": b.eigvals[b.n0 :]}
    report.spectra.update({side + k: v for side in ("left_", "right_") for k, v in split.items()})
    report.flags["reliable"] = left.reliable and right.reliable
    report.certificates["conditioning"] = {"left": left.conditioning, "right": right.conditioning}
    return _residuals(
        args.tol, offdiag_left=left.offdiag_rel_norm, offdiag_right=right.offdiag_rel_norm
    )


def _triangularize(args, report, problem) -> list[Gate]:
    b = problem.block
    mu = _resolve_mu(args, problem)
    with _timed(report.timings, "total"):
        tri = transform.triangularize(b, angular.spectral_graph(b, mu).X)
    report.spectra.update(block0=b.eigvals[: b.n0], block1=b.eigvals[b.n0 :])
    return _residuals(args.tol, lower_left=tri.lower_left_rel_norm)


def _riccati_solve(args, report, problem) -> list[Gate]:
    b = problem.block
    with _timed(report.timings, "newton"):
        x, trace = riccati.solve_newton_X0(
            b, tol=args.tol, max_iter=args.max_iter
        )
    counts = _fields(trace, "iterations", "schur_steps", "frames", "sweeps")
    report.certificates["newton"] = {**counts, "trace": trace.iterates}
    gates = _residuals(args.tol, final=trace.iterates[-1])
    # only a converged X is certified the spectral one: Newton from X = 0
    # can converge to another solution of the graph equation
    if not (b.hermitian and trace.converged):
        return gates
    mu = args.mu if args.mu is not None else problem.mu
    with _timed(report.timings, "spectral_certificate"):
        bound = riccati.x0_forward_error_bound(b, x, mu)
    return gates + _residuals(CHECK_TOL, x0_forward_error_bound=bound)


def _theorem_gates(report, result: subordinated.TheoremResult, tol) -> list[Gate]:
    """The gates of a subordinated decomposition, in ``subordinated`` and ``dirac``.

    ``run_theorem`` has refused input that fails its hypotheses, and X that
    is not a contraction; ``norm_X`` is reported, not gated.
    """
    report.certificates["contraction"] = {"norm_X": result.norm_X}
    left, right = result.diag_results
    res_l, res_perp = result.invariance_residuals
    return _residuals(
        tol,
        adjointness=result.adjointness_residual,
        offdiag_left=left.offdiag_rel_norm,
        offdiag_right=right.offdiag_rel_norm,
        invariance_L=res_l,
        invariance_L_perp=res_perp,
    ) + [_holds("kernel_split_ok", result.kernel_split_ok)]


def _subordinated(args, report, problem) -> list[Gate]:
    mu = args.mu if args.mu is not None else problem.mu
    with _timed(report.timings, "pipeline"):
        result = subordinated.run_theorem(problem.block, mu=mu, tol=args.tol)
    names = ("mu", "sup_spec_A0", "inf_spec_A1", "gap")
    report.certificates["subordination"] = _fields(result.check, *names)
    return _theorem_gates(report, result, args.tol)


def _neumann(args, report, problem) -> list[Gate]:
    b = problem.block
    mu = _resolve_mu(args, problem)
    with _timed(report.timings, "total"):
        pair = angular.spectral_pair(b, mu)
        cert = criteria.neumann_certificate(b, pair, complex(*args.lam))
    names = ("norm_V_resolvent", "norm_Y", "product", "sigma_min_B", "sigma_min_AYV")
    report.certificates["neumann"] = {"lambda": cert.lam, **_fields(cert, *names)}
    return [_holds("holds", cert.holds)]


def _relbound(args, report, problem) -> list[Gate]:
    with _timed(report.timings, "sweep"):
        rb = criteria.estimate_relative_bound(problem.block, args.tau_grid)
    report.certificates["relative_bound"] = {
        "a": rb.a,
        "b_star": rb.b_star,
        "sweep": [[lam, val] for lam, val in rb.lambda_sweep],
        "resolvent_growth": [[lam, val] for lam, val in rb.resolvent_growth],
    }
    return []


def _dirac(args, report, problem) -> list[Gate]:
    names = ("n", "box", "amplitude", "profile", "radius", "center")
    report.inputs_digest = digest_obj(_fields(args, *names))
    problem = dirac.DiracProblem(
        grid=dirac.GridSpec(n=args.n, length=args.box),
        potential=dirac.ImpurityPotential(
            amplitude=args.amplitude,
            profile=args.profile,
            radius=args.radius,
            center=args.center,
        ),
    )
    with _timed(report.timings, "pipeline"):
        result = dirac.run_dirac_pipeline(problem, tol=args.tol)
    split = result.split
    report.certificates["subordination"] = _fields(split, *_SPLIT_FIELDS)
    report.spectra.update(
        {
            "H": result.h_eigenvalues,
            "block_plus": result.block_eigenvalues[0],
            "block_minus": result.block_eigenvalues[1],
        }
    )
    if args.emit_data:
        _emit_dirac_data(args.emit_data, problem, result)
    return _theorem_gates(report, result.theorem, args.tol) + _residuals(
        args.tol,
        fw_unitarity=result.fw_unitarity_residual,
        split_identity=split.block_identity_residual,
        subspace_angle_minus=result.angle_minus,
        subspace_angle_plus=result.angle_plus,
    )


#: The fields of a :class:`~blockdiag.dirac.DiracSplitReport` that ``dirac`` reports.
_SPLIT_FIELDS = (
    "sup_spec_A1", "inf_spec_A0", "margin", "u_inf", "k_min", "block_identity_residual"
)


def _emit_dirac_data(directory: str, problem: dirac.DiracProblem, result) -> None:
    kx, ky = problem.grid.momentum_mesh()
    tables = {
        "momenta.csv": ("kx,ky,abs_k", (kx, ky, np.hypot(kx, ky))),
        # ragged: H has twice the rows of either block
        "spectra.csv": (
            "h,block_plus,block_minus",
            [np.sort(v) for v in (result.h_eigenvalues, *result.block_eigenvalues)],
        ),
    }
    try:
        os.makedirs(directory, exist_ok=True)
        for name, (header, columns) in tables.items():
            with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
                fh.write(header + "\n")
                for row in itertools.zip_longest(*columns):
                    fh.write(",".join("" if v is None else repr(float(v)) for v in row) + "\n")
    except OSError as exc:
        raise StructuralError(f"cannot write --emit-data {directory}: {exc}") from exc


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


def _split_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


# float() accepts "nan" and "inf"; no option means either
_finite_float = _checked(float, math.isfinite, "a finite number")
_positive_float = _checked(float, lambda v: 0.0 < v < math.inf, "finite and > 0")
_nonnegative_int = _checked(int, lambda v: v >= 0, ">= 0")
_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_floats = _checked(_split_floats, _all_finite, "comma-separated finite numbers")
_pair = _checked(
    _split_floats,
    lambda v: len(v) == 2 and _all_finite(v),
    "two comma-separated finite numbers",
)
_out_path = _checked(
    str,
    lambda v: os.path.isdir(os.path.dirname(os.path.abspath(v))) and not os.path.isdir(v),
    "a file path in an existing directory",
)


def _opt(*flags, **kwargs) -> tuple:
    """One ``add_argument`` call of a command: its flags and keywords."""
    return flags, kwargs


_TOL = _opt("--tol", type=_positive_float, default=CHECK_TOL,
            help="pass/fail threshold for relative residuals")
_MU = _opt("--mu", type=_finite_float, default=None,
           help="spectral splitting threshold (defaults to the file's)")
_OUT = _opt("--out", type=_out_path, default=None, help="write the JSON report here")


@dataclass(frozen=True)
class Command:
    """One CLI command.

    ``run(args, report, problem)`` fills ``report`` and returns the list
    of :class:`Gate` that decides its verdict (empty for a measurement);
    ``None`` means it writes no report. ``problem`` is the loaded problem
    file when ``reads_file`` is set (the command then takes a ``file``
    argument), else ``None``.
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
            _opt("--gap", type=_finite_float, default=1.0),
            _opt("--coupling", type=_finite_float, default=0.5),
            _opt("--seed", type=_nonnegative_int, default=0),
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
            _opt("--seed", type=_nonnegative_int, default=0),
            _opt("--perturb-x0", type=_finite_float, default=0.0,
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
            _MU,
            _OUT,
        ),
    ),
    "relbound": Command(
        _relbound,
        "relative-bound sweep along the imaginary axis, a measurement that "
        "always exits 0; for Hermitian A, b_star is its value at the largest tau",
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
            _opt("--box", type=_finite_float, default=2.0 * np.pi, help="box side length"),
            _opt("--amplitude", type=_finite_float, default=0.0),
            _opt("--profile", choices=("disk", "gaussian"), default="disk"),
            _opt("--radius", type=_finite_float, default=1.0),
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
        p = sub.add_parser(name, help=command.help, description=command.help)
        if command.reads_file:
            p.add_argument("file")
        for flags, kwargs in command.options:
            p.add_argument(*flags, **kwargs)
    return parser


def _run(args) -> int:
    """Run one parsed command: load, run, decide from its gates, write the report,
    print the summary."""
    command = COMMANDS[args.command]
    problem = load_problem(args.file) if command.reads_file else None
    report = Report(
        command=args.command, inputs_digest=problem.digest if problem else ""
    )
    gates = command.run(args, report, problem)
    if gates is None:
        return 0
    for gate in gates:
        if gate.kind == "residual":
            report.residuals[gate.name] = gate.value
        else:
            report.flags[gate.name] = gate.passes
    # a failed gate first, then the nearest its bound (a ratio of Python
    # floats past the float range is inf, unwarned)
    decided = max(gates, key=lambda g: (not g.passes, g.value / g.bound), default=None)
    code = 0
    if decided is not None:
        report.verdict = {"decided_by": decided.name, "margin": decided.bound - decided.value}
        code = int(not decided.passes)
    if args.out:
        # inside the contract: an unwritable report is an error, not a crash
        write_json_atomic(args.out, report.to_obj())
    lines = [f"[{args.command}] {'PASS' if code == 0 else 'FAIL'}"]
    lines += [f"  {k:28s} {v:.3e}" for k, v in sorted(report.residuals.items())]
    lines += [f"  {k:28s} {v}" for k, v in sorted(report.flags.items())]
    _print("\n".join(lines))
    return code


def _print(text: str) -> None:
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # a closed stdout (``| head -1``) changes neither the exit code nor
        # a file written; dropping it keeps the flush at exit from failing too
        sys.stdout = None


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
            error["diagnostics"] = jsonable(exc.diagnostics)
        if isinstance(exc, HypothesisError) and exc.report is not None:
            # the report of the refused hypothesis: a library dataclass
            error["diagnostics"] = jsonable(vars(exc.report))
        if isinstance(exc, NotAGraphError):
            error["sigma_min"] = jsonable(exc.sigma_min)
        error_obj = {"error": error}
        print(json.dumps(error_obj), file=sys.stderr)
        out = getattr(args, "out", None)
        if out:
            # the report path itself may be what could not be written
            with suppress(StructuralError):
                write_json_atomic(out, error_obj)
        return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
