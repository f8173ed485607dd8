"""blockdiag benchmark: one workload per process.

    python3 perfbench/run.py --workload theorem --seed 0 --seconds 20 --trace 0

Run from the repository root. The benchmark imports blockdiag from ``src/``
of the same checkout, makes its inputs from ``--seed``, times passes of the
workload's calls for ``--seconds`` seconds, checks every output, and prints
as its last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
A record of the run (environment, samples, spans) is written under
``perfbench/out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: BLAS threads. One thread is at most ``nproc`` on any machine and fixes
#: the order of reductions, so iteration and call counts repeat exactly.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: ``import blockdiag`` and input generation are each timed this many
#: times; setup_s is the sum of the two medians.
SETUP_REPEATS = 3
#: One untimed pass and one eigh group run first (outputs still checked),
#: so that lazy set-up, caches and allocator state settle before timing.
#: The eigh-unit is then measured before the first pass and after every pass,
#: from at least EIGH_REPEATS samples per matrix taking at least
#: EIGH_GROUP_S in all. Each pass is divided by the eigh-unit measured on
#: both sides of it, so that drift in machine speed cancels.
EIGH_REPEATS = 3
EIGH_GROUP_S = 0.5
#: Fewest timed passes (per side in a traced run), even past ``--seconds``.
MIN_PASSES = 3
#: Largest share of a traced pass that layer spans may leave uncovered.
ACCOUNTING_TOL = 0.05

#: Raw wall seconds follow the shared host's speed, which drifts by a
#: fifth or more within minutes, so the end-to-end time is the eigh-unit
#: ratio; the traced run reports ``solve_s`` itself among the layers.
END_TO_END = (
    ("eigh_units", "eigh-units"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
)

#: Public functions whose calls and self time are reported one by one.
FUNCTIONS = (
    "core.operator_norm",
    "core.is_hermitian",
    "subordinated.verify_kernel_split",
    "subordinated.build_L",
    "subordinated.check_subordination",
    "spectral.eigenvalues",
    "spectral.invariant_subspace_by_region",
    "spectral.null_space_basis",
    "spectral.principal_angles",
    "transform.verify_resolvent_invariance",
    "transform.diagonalize_left",
    "transform.diagonalize_right",
    "riccati.solve_sylvester",
    "riccati.residual_X0",
    "angular.to_graph",
    "angular.from_graph",
    "criteria.resolvent_norm",
    "criteria.estimate_relative_bound",
    "io.load_problem",
    "dirac.build_operators",
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Names and units of the traced run's metrics, in report order."""
    from tracer import KERNELS, LAYERS

    specs = [("solve_s", "s")]
    for name in (*LAYERS, *FUNCTIONS):
        specs += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    for kernel in (k for names in KERNELS.values() for k in names):
        specs += [(f"kernel.{kernel}.calls", "count"), (f"kernel.{kernel}.s", "s")]
    specs += [
        ("riccati.newton_iters", "count"),
        ("kernel.gflop", "gflop"),
        ("trace.overhead_frac", "frac"),
    ]
    return specs


def pin_environment() -> dict:
    """Fix BLAS threads, pin the process to one CPU, clear blockdiag's
    tolerance override, and point child interpreters at ``src/``. Must run
    before numpy is imported.

    The timed passes and the eigh-units they are divided by run on the same
    CPU, so a CPU that the host slows down slows both alike.
    """
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("BLOCKDIAG_DEFAULT_TOL", None)
    os.environ["PYTHONPATH"] = str(SRC)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    return {"nproc": len(cpus), "blas_threads": BLAS_THREADS, "cpu": min(cpus)}


def import_seconds() -> float:
    """Wall time of ``import blockdiag`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import blockdiag; "
        "print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def parse_args(argv):
    from workloads import SIZES, WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full",
                   help="problem sizes; 'tiny' is for the smoke test")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def run_pass(workload, inputs, ref, tracer, label: str):
    """Time one pass of the workload's calls, then check every output.

    Returns the pass wall time, per-call failure messages (``None`` when a
    call passed) and the outputs.
    """
    calls = workload.prepare(inputs)
    outputs = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        for j, call in enumerate(calls):
            if tracer:
                tracer.call = f"{label}.call{j}"
            try:
                outputs.append(call())
            except Exception as exc:  # a raising call is a failed call, not a crash
                outputs.append(exc)
        wall = time.perf_counter() - start
    messages = []
    for out in outputs:
        if isinstance(out, Exception):
            messages.append(f"raised {type(out).__name__}: {out}")
            continue
        try:
            messages.append(workload.check(out, ref))
        except Exception as exc:  # an unreadable output fails its check
            messages.append(f"check raised {type(exc).__name__}: {exc}")
    return wall, messages, outputs


def layer_metrics(traced_passes: list[dict]) -> dict:
    """Per-pass counts (from the first traced pass) and median times."""
    first = traced_passes[0]
    metrics = {}
    for name, _ in per_layer_metrics():
        key = name.rsplit(".", 1)[0]
        if name.endswith(".calls"):
            metrics[name] = first["calls"].get(key, 0)
        elif name.endswith((".self_s", ".s")):
            metrics[name] = statistics.median(
                p["self_s"].get(key, 0.0) for p in traced_passes
            )
    metrics["riccati.newton_iters"] = first["counters"].get("riccati.newton_iters", 0)
    metrics["kernel.gflop"] = first["gflop"]
    return metrics


def trace_problems(traced_passes: list[dict]) -> list[str]:
    """Every traced pass must give the same counts, and its spans must account
    for it: uncovered time within ACCOUNTING_TOL of the pass wall time, and
    no span whose children outlast it."""
    problems = []
    first = traced_passes[0]
    for p in traced_passes[1:]:
        if p["calls"] != first["calls"] or p["counters"] != first["counters"]:
            problems.append("call or kernel counts differ between traced passes")
            break
    for p in traced_passes:
        uncovered = p["wall_s"] - p["covered_s"]
        if uncovered > ACCOUNTING_TOL * p["wall_s"] or p["min_self_s"] < -1e-6:
            problems.append(
                f"spans do not account for the pass: uncovered {uncovered:.4g} s "
                f"of {p['wall_s']:.4g} s, smallest self time {p['min_self_s']:.3g} s"
            )
            break
    return problems


def measure(workload, args, workdir: str, import_s: list[float]) -> dict:
    import numpy as np

    from tracer import Tracer, summarize

    gen_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.generate(args.seed, workdir)
        gen_s.append(time.perf_counter() - start)
    ref = workload.reference(inputs)
    matrices = workload.eigh_matrices(inputs)
    eigh_s = [[] for _ in matrices]
    units = []

    def sample_eigh(keep: bool = True) -> None:
        group = [[] for _ in matrices]
        start = time.perf_counter()
        while (
            len(group[0]) < EIGH_REPEATS
            or time.perf_counter() - start < EIGH_GROUP_S
        ):
            for times, m in zip(group, matrices):
                t0 = time.perf_counter()
                np.linalg.eigh(m)
                times.append(time.perf_counter() - t0)
        if not keep:
            return
        for samples, times in zip(eigh_s, group):
            samples += times
        units.append(sum(statistics.median(times) for times in group))

    _, messages, _ = run_pass(workload, inputs, ref, None, "warmup")
    attempted = len(messages)
    failures = [f"warmup call{j}: {m}" for j, m in enumerate(messages) if m]
    sample_eigh(keep=False)
    sample_eigh()
    tracer = Tracer() if args.trace else None
    walls = {False: [], True: []}
    ratios = []
    traced_passes = []
    index = 0
    start = time.perf_counter()
    while (
        min(len(walls[False]), len(walls[True]) if args.trace else MIN_PASSES)
        < MIN_PASSES
        or time.perf_counter() - start < args.seconds
    ):
        traced = bool(args.trace) and index % 2 == 1
        label = f"pass{index}"
        first = len(tracer.spans) if traced else 0
        wall, messages, outputs = run_pass(
            workload, inputs, ref, tracer if traced else None, label
        )
        walls[traced].append(wall)
        sample_eigh()
        if not traced:
            ratios.append(wall / (0.5 * (units[-2] + units[-1])))
        attempted += len(messages)
        failures += [f"{label} call{j}: {m}" for j, m in enumerate(messages) if m]
        if traced:
            ok_outputs = [o for o in outputs if not isinstance(o, Exception)]
            summary = summarize(tracer.spans[first:])
            summary["counters"] = workload.counters(ok_outputs)
            summary["wall_s"] = wall
            traced_passes.append(summary)
        index += 1

    eigh_ref = {int(m.shape[0]): statistics.median(s) for m, s in zip(matrices, eigh_s)}
    solve_s = statistics.median(walls[False])
    record = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "pass_wall_s": walls[False],
        "traced_pass_wall_s": walls[True],
        "import_s": import_s,
        "generate_s": gen_s,
        "eigh_ref_s_by_dim": eigh_ref,
        "eigh_unit_s_between_passes": units,
        "eigh_units_by_pass": ratios,
    }
    if not args.trace:
        record["metrics"] = {
            "eigh_units": statistics.median(ratios),
            "setup_s": statistics.median(import_s) + statistics.median(gen_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (attempted - len(failures)) / attempted,
        }
        return record

    record["metrics"] = {"solve_s": solve_s, **layer_metrics(traced_passes)}
    record["metrics"]["trace.overhead_frac"] = (
        statistics.median(walls[True]) / solve_s - 1.0
    )
    record["trace_problems"] = trace_problems(traced_passes)
    record["untraced_share"] = [
        (p["wall_s"] - p["covered_s"]) / p["wall_s"] for p in traced_passes
    ]
    record["spans"] = [
        [s.span_id, s.parent, s.call, s.name, s.start - start, s.end - start, s.gflop]
        for s in tracer.spans
    ]
    return record


def environment(base: dict, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        **base,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "seed": seed,
    }


def main(argv=None) -> int:
    if not (SRC / "blockdiag" / "__init__.py").is_file():
        print(f"blockdiag sources not found under {SRC}", file=sys.stderr)
        return 2
    base_env = pin_environment()
    sys.path.insert(0, str(SRC))
    import blockdiag

    if Path(blockdiag.__file__).resolve().parent != SRC / "blockdiag":
        print(f"imported blockdiag from {blockdiag.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    args = parse_args(argv)
    workload = WORKLOADS[args.workload](args.size)
    import_s = [import_seconds() for _ in range(SETUP_REPEATS)]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT, prefix="work-")
    try:
        record = measure(workload, args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["environment"] = environment(base_env, args.seed)
    record["args"] = vars(args)
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    specs = per_layer_metrics() if args.trace else END_TO_END
    env = record["environment"]
    print(
        f"workload {args.workload} ({args.size}) seed {args.seed}: "
        f"{len(record['pass_wall_s'])} untraced passes, "
        f"{len(record['traced_pass_wall_s'])} traced passes; nproc {env['nproc']}, "
        f"BLAS threads {env['blas_threads']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, {env['blas']}"
    )
    print(
        "eigh reference by dim: "
        + ", ".join(f"{d}: {s:.4g} s" for d, s in record["eigh_ref_s_by_dim"].items())
    )
    for message in record["failures"][:10] + record.get("trace_problems", []):
        print(f"FAILED {message}", file=sys.stderr)
    print(f"calls attempted {record['attempted']}, failed {record['failed']}")
    for metric, unit in specs:
        print(f"  {metric:45s} {record['metrics'][metric]:.6g} {unit}")
    correct = record["failed"] == 0 and not record.get("trace_problems")
    result = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric: {"value": record["metrics"][metric], "unit": unit}
            for metric, unit in specs
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
