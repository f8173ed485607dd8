"""Eigh-unit timings and kernel calls of the CLI on general (non-Hermitian) input.

    python3 tools/bench_general.py                       # 150 + 150, 5 timed runs
    python3 tools/bench_general.py --size tiny --repeats 1

Run from anywhere; blockdiag is imported from ``src/`` of the same checkout.
The script writes one seeded problem file: ``A_i = Q_i T_i Q_i*`` with Haar
unitary ``Q_i`` and upper-triangular ``T_i`` whose diagonal lies near -2
(A0) and +2 (A1) and whose strict part has 2-norm 0.05; W0 and W1 are
independent complex Gaussians scaled to 2-norm 0.3; mu = 0. It then runs
``check``, ``diagonalize``, ``triangularize`` and ``riccati-solve`` on it
in-process, through ``blockdiag.cli.main``.

Each command runs once with every dense kernel counted, then ``--repeats``
rounds of the four commands run untimed by the counter. The eigh-unit is
the time of one ``eigh`` of a complex Hermitian matrix of the problem's
size, the median of a group of samples (at least 3, and at least 0.5 s)
taken before each round and after the last, as ``perfbench/run.py``
measures it; a command's time is divided by the mean of the two units
around its round. The script prints one JSON object: per command its exit
code, the median and interquartile range of its eigh-units, its kernel
calls, and those of them whose first argument has a side of the problem's
size (``dim_calls``). When run as a script it sets one BLAS thread unless
the environment sets another, and pins itself to the lowest CPU it may
run on.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import blockdiag  # noqa: E402
from blockdiag import BlockMatrix, ProblemFile, save_problem  # noqa: E402
from blockdiag.cli import main as cli_main  # noqa: E402

#: Block sizes (n0, n1) by ``--size``.
SIZES = {"full": (150, 150), "tiny": (6, 6)}

COMMANDS = ("check", "diagonalize", "triangularize", "riccati-solve")

#: Dense kernels counted, by the module whose attribute is counted.
KERNELS = {
    np.linalg: ("svd", "eigh", "eigvalsh", "eig", "eigvals", "solve", "lstsq", "qr",
                "cholesky"),
    scipy.linalg: ("schur", "eigh", "solve_sylvester", "lu_factor", "lu_solve",
                   "cho_solve", "solve_triangular"),
    scipy.linalg.lapack: ("ztrsen", "ztrsyl", "zhegvd", "zhetrd", "dstevd", "zunmqr"),
}


def _haar(rng, n) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _scaled(m, norm) -> np.ndarray:
    return m * (norm / np.linalg.norm(m, 2)) if m.any() else m


def general_problem(n0: int, n1: int, seed: int = 0) -> ProblemFile:
    """The seeded general problem of the module docstring."""
    rng = np.random.default_rng(seed)

    def gaussian(r, c):
        return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))

    blocks = []
    for n, centre in ((n0, -2.0), (n1, 2.0)):
        diagonal = centre + 0.25 * gaussian(n, 1)[:, 0]
        t = np.diag(diagonal) + _scaled(np.triu(gaussian(n, n), 1), 0.05)
        q = _haar(rng, n)
        blocks.append(q @ t @ q.conj().T)
    w0, w1 = _scaled(gaussian(n1, n0), 0.3), _scaled(gaussian(n0, n1), 0.3)
    return ProblemFile(block=BlockMatrix(blocks[0], blocks[1], w0, w1), mu=0.0)


@contextlib.contextmanager
def counted(calls: list):
    """Record ``(kernel, shape of the first argument)`` of every kernel call.

    The module attributes of :data:`KERNELS` are replaced, and so are the
    bindings that blockdiag modules hold of them, ``functools.partial``
    wrappers included; all are restored on exit.
    """
    patched = []

    def wrap(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            first = args[0] if args else ()
            # lu_solve and cho_solve take a tuple of factors first
            calls.append((name, np.shape(first[0] if isinstance(first, tuple) else first)))
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {}
    for module, names in KERNELS.items():
        for name in names:
            fn = getattr(module, name)
            wrappers[fn] = wrap(f"{module.__name__}.{name}", fn)
            patched.append((module, name, fn))
    for module in [m for k, m in sys.modules.items() if k.startswith("blockdiag.")]:
        for attr, obj in vars(module).items():
            if isinstance(obj, functools.partial) and obj.func in wrappers:
                patched.append((module, attr, obj))
            elif callable(obj) and obj in wrappers:
                patched.append((module, attr, obj))
    try:
        for module, attr, obj in patched:
            if isinstance(obj, functools.partial):
                new = functools.partial(wrappers[obj.func], *obj.args, **obj.keywords)
                setattr(module, attr, new)
            else:
                setattr(module, attr, wrappers[obj])
        yield calls
    finally:
        for module, attr, obj in reversed(patched):
            setattr(module, attr, obj)


def _run(command: str, path: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main([command, path])


def _eigh_unit(h: np.ndarray) -> float:
    """Median time of one ``eigh`` of ``h`` over at least 3 samples and 0.5 s."""
    samples, start = [], time.perf_counter()
    while len(samples) < 3 or time.perf_counter() - start < 0.5:
        t0 = time.perf_counter()
        np.linalg.eigh(h)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def bench(n0: int, n1: int, repeats: int, seed: int = 0) -> dict:
    dim = n0 + n1
    rng = np.random.default_rng(seed + 1)
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = h + h.conj().T
    out = {"n0": n0, "n1": n1, "blockdiag": blockdiag.__file__, "commands": {}}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "general.json")
        save_problem(path, general_problem(n0, n1, seed))
        for command in COMMANDS:
            calls: list = []
            with counted(calls):
                code = _run(command, path)
            out["commands"][command] = {
                "exit_code": code,
                "calls": dict(sorted(Counter(name for name, _ in calls).items())),
                "dim_calls": dict(
                    sorted(Counter(name for name, shape in calls if dim in shape).items())
                ),
            }
        units, times = [_eigh_unit(h)], {command: [] for command in COMMANDS}
        for _ in range(repeats):
            for command in COMMANDS:
                start = time.perf_counter()
                _run(command, path)
                times[command].append(time.perf_counter() - start)
            units.append(_eigh_unit(h))
        around = [0.5 * (a + b) for a, b in zip(units, units[1:])]
        out["eigh_unit_ms"] = 1e3 * statistics.median(units)
        for command in COMMANDS:
            ratios = [t / unit for t, unit in zip(times[command], around)]
            quartiles = np.percentile(ratios, [25, 50, 75])
            out["commands"][command].update(
                eigh_units=float(quartiles[1]), iqr=float(quartiles[2] - quartiles[0])
            )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(json.dumps(bench(*SIZES[args.size], max(args.repeats, 1), args.seed), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
