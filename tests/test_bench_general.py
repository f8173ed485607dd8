"""Smoke run of ``tools/bench_general.py`` at its tiny size."""

import importlib.util
import pathlib

import numpy as np
import scipy.linalg

from blockdiag.core import StagedEigh, hermitian_eigh

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "bench_general", ROOT / "tools" / "bench_general.py"
)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def test_tiny_run_times_and_counts_every_command():
    schur, svd = scipy.linalg.schur, np.linalg.svd
    out = bench.bench(*bench.SIZES["tiny"], repeats=1)
    commands = out["commands"]
    assert list(commands) == list(bench.COMMANDS)
    for name, result in commands.items():
        assert result["exit_code"] == 0, name
        assert result["eigh_units"] > 0.0 and result["iqr"] == 0.0
    check = commands["check"]
    assert check["dim_calls"]["scipy.linalg.schur"] == 1
    assert check["dim_calls"]["scipy.linalg.lapack.ztrsen"] == 1
    assert check["calls"]["scipy.linalg.lapack.ztrsyl"] == 1
    assert "numpy.linalg.eigvals" not in check["dim_calls"]
    assert "scipy.linalg.lapack.ztrsyl" not in commands["triangularize"]["calls"]
    # the counters are removed when the counted run ends
    assert scipy.linalg.schur is schur and np.linalg.svd is svd


def test_general_problem_is_seeded_and_split_at_mu():
    first, second = (bench.general_problem(4, 3, seed=2) for _ in range(2))
    assert first.mu == 0.0
    np.testing.assert_array_equal(first.block.full, second.block.full)
    eigenvalues = np.linalg.eigvals(first.block.full)
    assert np.sum(eigenvalues.real < 0.0) == 4


def test_counter_sees_the_hermitian_eigensolver():
    calls = []
    h = np.eye(3, dtype=complex)
    with bench.counted(calls):
        hermitian_eigh(h)
        hermitian_eigh(h, h)
        StagedEigh(h).vectors(2)
    lapack = "scipy.linalg.lapack"
    # the stages of each staged eigensolve: the reduction, the tridiagonal
    # solve, the workspace query and the back-transform, whose first
    # argument is the side
    staged = [
        (f"{lapack}.zhetrd", (3, 3)),
        (f"{lapack}.dstevd", (3,)),
        (f"{lapack}.zunmqr", ()),
        (f"{lapack}.zunmqr", ()),
    ]
    assert calls == staged + [(f"{lapack}.zhegvd", (3, 3))] + staged
