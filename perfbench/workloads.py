"""The four benchmark workloads.

Each workload drives one blockdiag entry point. Its methods split the work
into what the benchmark times and what it does not:

* ``generate(seed, workdir)`` makes the inputs. It is timed as set-up.
* ``reference(inputs)`` computes independent reference answers, untimed.
* ``eigh_matrices(inputs)`` gives the assembled matrix of each call. One
  ``numpy.linalg.eigh`` of each is the eigh-unit.
* ``prepare(inputs)`` builds fresh argument objects for one pass (untimed),
  so that nothing cached on an input object carries over between passes.
  It returns the zero-argument calls the pass times.
* ``check(output, ref)`` returns a failure message or ``None``.
* ``counters(outputs)`` gives per-pass counts read off the results.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

from blockdiag import cli, dirac, riccati, subordinated
from blockdiag.core import BlockMatrix
from blockdiag.fixtures import random_case
from blockdiag.io import save_problem

#: Every residual and reference distance must be at most this.
RESIDUAL_TOL = 1e-8

#: Problem sizes. ``full`` is what the benchmark measures; each pass costs
#: one to four seconds on a 2-core desk machine, so a run holds several
#: passes. ``tiny`` is for the smoke test.
SIZES = {
    "full": {"theorem": 200, "newton": 200, "check": 150, "kernel": 100, "dirac": 16},
    "tiny": {"theorem": 8, "newton": 8, "check": 8, "kernel": 10, "dirac": 4},
}

#: Dimension of the planted kernel at mu = 0 in the cli workload's
#: closed-gap file.
KERNEL_DIM = 8

#: Impurity of the README's Dirac demo (acceptance criterion 6).
DIRAC_AMPLITUDE = 0.035
DIRAC_RADIUS = 0.785


def _fresh(b: BlockMatrix) -> BlockMatrix:
    return BlockMatrix(A0=b.A0, A1=b.A1, W0=b.W0, W1=b.W1)


def _rel_dist(x, ref) -> float:
    return float(np.linalg.norm(x - ref) / max(np.linalg.norm(ref), 1e-300))


def spectral_x0(b: BlockMatrix) -> np.ndarray:
    """Angular operator of the eigenvectors of B below 0, from ``eigh``.

    Independent of blockdiag's pipelines: one Hermitian eigensolve and one
    linear solve ``X Q0 = Q1`` on the blocks of the eigenvector basis.
    """
    w, v = np.linalg.eigh(b.assemble())
    below = v[:, w < 0.0]
    if below.shape[1] != b.n0:
        raise ValueError(f"{below.shape[1]} eigenvalues below 0, expected {b.n0}")
    return np.linalg.solve(below[: b.n0].T, below[b.n0:].T).T


def _failures(pairs) -> str | None:
    bad = [name for name, ok in pairs if not ok]
    return ", ".join(bad) if bad else None


class Workload:
    """Defaults of the interface in the module docstring."""

    def reference(self, inputs):
        return None

    def counters(self, outputs) -> dict:
        return {}


class Theorem(Workload):
    """``run_theorem`` at mu = 0 on a gapped random problem."""

    name = "theorem"

    def __init__(self, size: str):
        self.n = SIZES[size]["theorem"]

    def generate(self, seed: int, workdir: str) -> BlockMatrix:
        return random_case(self.n, self.n, gap=1.0, coupling=0.5, seed=seed).block

    def reference(self, b: BlockMatrix) -> np.ndarray:
        return spectral_x0(b)

    def eigh_matrices(self, b: BlockMatrix) -> list[np.ndarray]:
        return [b.assemble()]

    def prepare(self, b: BlockMatrix):
        fresh = _fresh(b)
        return [lambda: subordinated.run_theorem(fresh, mu=0.0)]

    def check(self, result, x_ref) -> str | None:
        left, right = result.diag_results
        return _failures(
            [
                ("X vs eigh reference", _rel_dist(result.X, x_ref) <= RESIDUAL_TOL),
                ("kernel_split_ok", result.kernel_split_ok),
                ("reduces_ok", result.reduces_ok),
                ("norm_X <= 1", result.norm_X <= 1.0),
                ("adjointness", result.adjointness_residual <= RESIDUAL_TOL),
                ("offdiag_left", left.offdiag_rel_norm <= RESIDUAL_TOL),
                ("offdiag_right", right.offdiag_rel_norm <= RESIDUAL_TOL),
            ]
        )


class Newton(Theorem):
    """``solve_newton_X0`` from X = 0 on the same gapped family."""

    name = "newton"

    def __init__(self, size: str):
        self.n = SIZES[size]["newton"]

    def prepare(self, b: BlockMatrix):
        fresh = _fresh(b)
        return [lambda: riccati.solve_newton_X0(fresh, tol=1e-12)]

    def check(self, output, x_ref) -> str | None:
        x, trace = output
        return _failures(
            [
                ("X vs eigh reference", _rel_dist(x, x_ref) <= RESIDUAL_TOL),
                ("converged", trace.converged),
            ]
        )

    def counters(self, outputs) -> dict:
        return {"riccati.newton_iters": sum(o[1].iterations for o in outputs)}


class Cli(Workload):
    """In-process ``blockdiag.cli.main``: ``check`` and ``subordinated``.

    ``check`` runs on a gapped file; ``subordinated`` on a closed-gap file
    with a kernel planted at mu = 0, so the kernel branch runs.
    """

    name = "cli"

    def __init__(self, size: str):
        self.n_check = SIZES[size]["check"]
        self.n_kernel = SIZES[size]["kernel"]

    def generate(self, seed: int, workdir: str) -> dict:
        gapped = random_case(self.n_check, self.n_check, gap=1.0, coupling=0.5, seed=seed)
        closed = random_case(
            self.n_kernel,
            self.n_kernel,
            gap=0.0,
            coupling=0.5,
            seed=seed,
            kernel_dim=KERNEL_DIM,
        )
        paths = {}
        for command, problem in (("check", gapped), ("subordinated", closed)):
            path = os.path.join(workdir, f"{command}.json")
            save_problem(path, problem)
            paths[command] = (path, problem.block)
        return paths

    def eigh_matrices(self, inputs) -> list[np.ndarray]:
        return [block.assemble() for _, block in inputs.values()]

    def prepare(self, inputs):
        calls = []
        for command, (path, _) in inputs.items():
            out = path[: -len(".json")] + ".report.json"
            if os.path.exists(out):
                os.remove(out)
            calls.append(_main_call(command, path, out))
        return calls

    def check(self, output, ref) -> str | None:
        command, code, out = output
        if code != 0:
            return f"{command}: exit code {code}"
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        if report.get("schema") != "blockdiag-report/1":
            return f"{command}: schema {report.get('schema')!r}"
        residuals = report.get("residuals") or {}
        bad = sorted(k for k, v in residuals.items() if not v <= RESIDUAL_TOL)
        if not residuals or bad:
            return f"{command}: residuals {bad or 'missing'}"
        return None


def _main_call(command: str, path: str, out: str):
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, path, "--out", out])
        return command, code, out

    return call


class Dirac(Workload):
    """``run_dirac_pipeline`` on the README's impurity demo.

    The problem has no random part, so the seed does not change it.
    """

    name = "dirac"

    def __init__(self, size: str):
        self.n = SIZES[size]["dirac"]

    def generate(self, seed: int, workdir: str) -> dirac.DiracProblem:
        return dirac.DiracProblem(
            grid=dirac.GridSpec(n=self.n),
            potential=dirac.ImpurityPotential(
                amplitude=DIRAC_AMPLITUDE, radius=DIRAC_RADIUS
            ),
        )

    def eigh_matrices(self, problem) -> list[np.ndarray]:
        return [dirac.fw_transform(problem).assemble()]

    def prepare(self, problem):
        fresh = self.generate(0, "")
        return [lambda: dirac.run_dirac_pipeline(fresh)]

    def check(self, result, ref) -> str | None:
        theorem = result.theorem
        left, right = theorem.diag_results
        residuals = {
            "angle_minus": result.angle_minus,
            "angle_plus": result.angle_plus,
            "fw_unitarity": result.fw_unitarity_residual,
            "split_identity": result.split.block_identity_residual,
            "adjointness": theorem.adjointness_residual,
            "offdiag_left": left.offdiag_rel_norm,
            "offdiag_right": right.offdiag_rel_norm,
            "invariance_L": theorem.invariance_residuals[0],
            "invariance_L_perp": theorem.invariance_residuals[1],
        }
        return _failures(
            [("norm_X < 1", result.norm_X < 1.0)]
            + [(k, v <= RESIDUAL_TOL) for k, v in residuals.items()]
        )


WORKLOADS = {w.name: w for w in (Theorem, Newton, Cli, Dirac)}
