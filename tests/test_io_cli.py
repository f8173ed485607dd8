import base64
import cmath
import dataclasses
import hashlib
import json
import os
import pathlib
import stat
import struct
import sys

import numpy as np
import pytest

from blockdiag import BlockMatrix, load_problem, random_case, riccati, save_problem
from blockdiag.cli import main
from blockdiag.errors import StructuralError
from blockdiag.io import (
    ProblemFile,
    Report,
    matrix_from_obj,
    matrix_to_obj,
)


@pytest.mark.parametrize("seed", range(5))
def test_matrix_json_roundtrip_bitexact(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    m[0, 0] = 1.0 / 3.0 + 1e-17j
    payload = json.dumps(matrix_to_obj(m))
    back = matrix_from_obj(json.loads(payload), "m", "b64")
    assert np.array_equal(back, m)


def _entry_loop(data):
    """The per-entry conversion that the vectorized one replaced."""
    return np.array([complex(float(re), float(im)) for re, im in data])


def _b64_entry_loop(text):
    """Per-entry decoding of a ``b64`` payload, independent of numpy."""
    raw = base64.b64decode(text)
    return np.array(
        [complex(*struct.unpack_from("<2d", raw, 16 * i)) for i in range(len(raw) // 16)]
    )


def _v1_obj(m) -> dict:
    """A matrix object in the ``blockdiag/1`` form: ``[re, im]`` pairs."""
    m = np.asarray(m, dtype=complex)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[z.real, z.imag] for z in m.ravel().tolist()],
    }


def _v1_file(pf: ProblemFile) -> dict:
    """A problem file object in the ``blockdiag/1`` schema."""
    obj = pf.to_obj()
    obj["schema"] = "blockdiag/1"
    for name in ("A0", "A1", "W0", "W1"):
        obj[name] = _v1_obj(getattr(pf.block, name))
    return obj


def test_matrix_json_roundtrip_keeps_signed_zeros(tmp_path):
    m = np.array(
        [[complex(-0.0, 0.0), complex(0.0, -0.0)], [complex(-0.0, -0.0), 5e-324 - 1e308j]]
    )
    v1 = json.loads(json.dumps(_v1_obj(m)))
    assert v1["data"][0] == [-0.0, 0.0] and str(v1["data"][0][0]) == "-0.0"
    v2 = json.loads(json.dumps(matrix_to_obj(m)))
    assert set(v2) == {"rows", "cols", "b64"}
    for key, obj, entries in (
        ("data", v1, _entry_loop(v1["data"])),
        ("b64", v2, _b64_entry_loop(v2["b64"])),
    ):
        back = matrix_from_obj(obj, "m", key)
        assert np.array_equal(back, m)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(back)), np.signbit(part(m)))
        np.testing.assert_array_equal(back.ravel(), entries)
    pf = ProblemFile(block=BlockMatrix(m, m, m, m))
    v2_path = tmp_path / "zeros.json"
    save_problem(v2_path, pf)
    v1_path = tmp_path / "zeros_v1.json"
    v1_path.write_text(json.dumps(_v1_file(pf)))
    for path in (v1_path, v2_path):
        loaded = load_problem(path).block
        assert np.array_equal(np.signbit(loaded.A0.real), np.signbit(m.real))
        assert np.array_equal(np.signbit(loaded.W1.imag), np.signbit(m.imag))


def test_parent_v1_file_loads_bitexactly(tmp_path):
    # written by `blockdiag random --n0 3 --n1 2 --gap 0.7 --coupling 0.3
    # --seed 5` before the b64 payload existed
    path = pathlib.Path(__file__).parent / "data" / "random_v1.json"
    assert json.loads(path.read_text())["schema"] == "blockdiag/1"
    pf = random_case(3, 2, gap=0.7, coupling=0.3, seed=5)
    loaded = load_problem(path)
    for name in ("A0", "A1", "W0", "W1"):
        assert getattr(loaded.block, name).tobytes() == getattr(pf.block, name).tobytes()
    assert loaded.mu == pf.mu and loaded.metadata == pf.metadata
    resaved = tmp_path / "resaved.json"
    save_problem(resaved, loaded)
    assert json.loads(resaved.read_text())["schema"] == "blockdiag/2"
    assert load_problem(resaved).block.A0.tobytes() == pf.block.A0.tobytes()


def test_b64_roundtrip_is_bitexact(tmp_path):
    extremes = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0 / 3.0]
    values = [complex(re, im) for re in extremes for im in extremes]
    m = np.array(values[:48], dtype=complex).reshape(6, 8)
    back = matrix_from_obj(json.loads(json.dumps(matrix_to_obj(m))), "m", "b64")
    assert back.dtype == np.complex128 and back.shape == m.shape
    assert back.tobytes() == m.tobytes()
    pf = ProblemFile(block=BlockMatrix(m[:, :6], m[:2, :2], m[:2, :6], m[:, :2]), mu=0.5)
    first = tmp_path / "first.json"
    save_problem(first, pf)
    loaded = load_problem(first)
    for name in ("A0", "A1", "W0", "W1"):
        assert getattr(loaded.block, name).tobytes() == getattr(pf.block, name).tobytes()
    second = tmp_path / "second.json"
    save_problem(second, loaded)
    assert first.read_bytes() == second.read_bytes()


def _b64_obj(rows, cols, payload: bytes) -> dict:
    return {"rows": rows, "cols": cols, "b64": base64.b64encode(payload).decode("ascii")}


@pytest.mark.parametrize(
    "obj",
    [
        {"rows": 1, "cols": 1, "b64": "not base64!"},
        {"rows": 1, "cols": 1, "b64": "AAAA*AAA"},
        {"rows": 1, "cols": 1, "b64": [0.0, 0.0]},
        _b64_obj(2, 2, bytes(16 * 4 - 1)),
        _b64_obj(2, 3, bytes(16 * 4)),
        _b64_obj(3, 2, bytes(16 * 4)),
        _b64_obj(-1, -4, bytes(16 * 4)),
        {"rows": 2, "cols": 2, "b64": "", "data": []},
    ],
)
def test_b64_matrix_obj_validation(obj):
    with pytest.raises(StructuralError):
        matrix_from_obj(obj, "W0", "b64")


@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_b64_matrix_obj_names_the_nonfinite_entry(part, bad):
    m = np.ones((2, 3), dtype=complex)
    getattr(m, part)[1, 0] = bad
    obj = _b64_obj(2, 3, m.astype("<c16").tobytes())
    with pytest.raises(StructuralError, match="^W0: entry 3 is not finite$"):
        matrix_from_obj(obj, "W0", "b64")


@pytest.mark.parametrize("schema,key", [("blockdiag/2", "data"), ("blockdiag/1", "b64")])
def test_problem_matrices_must_use_the_schema_form(tmp_path, schema, key):
    pf = random_case(2, 2, gap=1.0, coupling=0.1, seed=0)
    obj = pf.to_obj() if schema == "blockdiag/2" else _v1_file(pf)
    other = _v1_obj(pf.block.W1) if key == "data" else matrix_to_obj(pf.block.W1)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({**obj, "W1": other}))
    with pytest.raises(StructuralError, match="W1: malformed matrix object"):
        load_problem(path)
    path.write_text(json.dumps(obj))
    assert np.array_equal(load_problem(path).block.W1, pf.block.W1)


@pytest.mark.parametrize(
    "bad",
    [[1.0], [1.0, "x"], [None, 0.0], [[1.0], [2.0]], [float("nan"), 0.0], "ab", 7],
)
def test_matrix_obj_names_the_bad_entry(bad):
    data = [[0.0, 0.0], bad, [1.0, 1.0]]
    with pytest.raises(StructuralError, match="entry 1"):
        matrix_from_obj({"rows": 1, "cols": 3, "data": data}, "W0", "data")


def test_save_problem_is_compact_and_reports_are_indented(tmp_path):
    path = _write_fixture(tmp_path, mu=1.0)
    text = open(path, encoding="utf-8").read()
    assert text.count("\n") == 1 and ", " not in text
    out = tmp_path / "report.json"
    assert main(["check", path, "--out", str(out)]) == 0
    assert out.read_text().startswith('{\n  "schema"')


def test_matrix_obj_validation():
    with pytest.raises(StructuralError):
        matrix_from_obj({"rows": 2, "cols": 2, "data": [[0, 0]]}, "W0", "data")
    with pytest.raises(StructuralError):
        matrix_from_obj({"rows": 1, "cols": 1, "data": [[float("nan"), 0]]}, "W0", "data")
    with pytest.raises(StructuralError):
        matrix_from_obj([1, 2, 3], "W0", "data")


def test_problem_roundtrip_bitexact(tmp_path):
    pf = random_case(3, 2, gap=0.7, coupling=0.3, seed=5)
    path = tmp_path / "problem.json"
    save_problem(path, pf)
    loaded = load_problem(path)
    for name in ("A0", "A1", "W0", "W1"):
        assert np.array_equal(getattr(loaded.block, name), getattr(pf.block, name))
    assert loaded.mu == pf.mu
    assert loaded.metadata == pf.metadata
    # serialize again: identical bytes
    second = tmp_path / "again.json"
    save_problem(second, loaded)
    assert path.read_bytes() == second.read_bytes()


def test_problem_schema_enforced(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "other/9"}))
    with pytest.raises(StructuralError):
        load_problem(path)
    path.write_text("{ not json")
    with pytest.raises(StructuralError):
        load_problem(path)


def test_problem_dimension_consistency(tmp_path):
    pf = random_case(2, 2, gap=1.0, coupling=0.1, seed=0)
    obj = pf.to_obj()
    obj["n0"] = 3
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(StructuralError):
        load_problem(path)


def test_random_case_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_problem(a, random_case(4, 4, gap=1.0, coupling=0.2, seed=42))
    save_problem(b, random_case(4, 4, gap=1.0, coupling=0.2, seed=42))
    assert a.read_bytes() == b.read_bytes()


def test_random_case_spectra_and_coupling():
    pf = random_case(8, 8, gap=1.0, coupling=0.2, seed=9)
    b = pf.block
    assert np.linalg.eigvalsh(b.A0)[-1] <= -0.5 + 1e-12
    assert np.linalg.eigvalsh(b.A1)[0] >= 0.5 - 1e-12
    assert np.linalg.norm(b.W1, 2) == pytest.approx(0.2, abs=1e-12)
    assert np.array_equal(b.W0, b.W1.conj().T)
    from blockdiag import check_subordination

    assert check_subordination(b, 0.0).subordinated


def test_random_case_infeasible_kernel():
    with pytest.raises(StructuralError):
        random_case(2, 2, gap=0.0, coupling=0.1, seed=0, kernel_dim=3)
    with pytest.raises(StructuralError):
        random_case(4, 4, gap=1.0, coupling=0.1, seed=0, kernel_dim=1)


def test_report_writes_nonfinite_numbers_as_text():
    """JSON has no NaN or inf: a report writes them as the text Python
    prints, as error diagnostics do, and stays valid JSON."""
    rep = Report(command="x", inputs_digest="00")
    rep.residuals.update(bad=float("inf"), worse=np.float64("-inf"), nan=float("nan"))
    rep.spectra["z"] = np.array([complex(np.nan, 1.0)])
    obj = json.loads(json.dumps(rep.to_obj(), allow_nan=False))
    assert obj["residuals"] == {"bad": "inf", "worse": "-inf", "nan": "nan"}
    assert obj["spectra"]["z"] == [["nan", 1.0]]


def test_problem_file_requires_blockmatrix_fields():
    with pytest.raises(StructuralError):
        ProblemFile.from_obj({"schema": "blockdiag/1"})


def _write_fixture(tmp_path, mu=None):
    pf = ProblemFile(block=BlockMatrix([0], [2], [1], [1]), mu=mu)
    path = tmp_path / "analytic.json"
    save_problem(path, pf)
    return str(path)


def test_cli_check_pass(tmp_path, capsys):
    path = _write_fixture(tmp_path, mu=1.0)
    out = tmp_path / "report.json"
    assert main(["check", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "blockdiag-report/1"
    assert report["flags"]["complementary"]
    assert all(v <= 1e-12 for v in report["residuals"].values())


def test_cli_report_digest_is_the_sha256_of_the_file_read_once(tmp_path, monkeypatch):
    path = _write_fixture(tmp_path, mu=1.0)
    out = tmp_path / "report.json"
    opened = []
    real_open = open

    def counted_open(file, *args, **kwargs):
        if os.fspath(file) == path:
            opened.append(args[0] if args else kwargs.get("mode", "r"))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counted_open)
    assert main(["check", path, "--out", str(out)]) == 0
    expected = hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
    assert json.loads(out.read_text())["inputs_digest"] == expected
    assert opened == ["rb"]
    assert load_problem(path).digest == expected


def test_cli_problem_file_that_is_not_utf8_exits_3(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'\xff\xfe{"schema": "blockdiag/2"}')
    assert main(["check", str(path)]) == 3
    assert "not UTF-8" in capsys.readouterr().err


def test_cli_check_perturbed_fails(tmp_path):
    path = _write_fixture(tmp_path, mu=1.0)
    assert main(["check", path, "--perturb-x0", "1e-3"]) == 1


@pytest.mark.parametrize("perturb", ["1e-3", "1e3", "1e100", "1e150", "1e200", "1e300"])
def test_cli_check_with_an_overflowing_perturbation_is_no_input_error(tmp_path, perturb):
    """A perturbed X0 whose Riccati residual passes the float range is a
    failed check (1) or a pair that is not complementary (2): the residual
    is kept as it is, its relative norm inf or NaN, and formed with no
    RuntimeWarning (an error here). It was an input error (3) from 1e200."""
    path, out = tmp_path / "g4.json", tmp_path / "report.json"
    assert main(["random", "--n0", "4", "--n1", "4", "--out", str(path)]) == 0
    code = main(["check", str(path), "--perturb-x0", perturb, "--out", str(out)])
    assert code in (1, 2), json.loads(out.read_text()).get("error")


def test_cli_check_decoupled_trivial_pass(tmp_path):
    block = BlockMatrix(
        np.diag([-2.0, -1.0]), np.diag([1.0, 2.0]), np.zeros((2, 2)), np.zeros((2, 2))
    )
    path = tmp_path / "decoupled.json"
    save_problem(path, ProblemFile(block=block))
    assert main(["check", str(path)]) == 0


def test_cli_check_non_hermitian_file(tmp_path):
    rng = np.random.default_rng(2)
    block = BlockMatrix(
        np.diag([-2.0 + 0.5j, -1.5 - 0.3j]),
        np.diag([1.0 + 1j, 2.0 - 0.2j]),
        0.1 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))),
        0.1 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))),
    )
    path = tmp_path / "nonhermitian.json"
    save_problem(path, ProblemFile(block=block))
    out = tmp_path / "nh_report.json"
    assert main(["check", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["flags"]["hermitian"] is False
    residuals = report["residuals"]
    assert max(residuals["spectral_identity_left"], residuals["spectral_identity_right"]) <= 1e-8


def test_cli_check_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["check", str(bad)]) == 3
    assert main(["check", str(tmp_path / "missing.json")]) == 3


def test_cli_check_reports_are_reproducible(tmp_path):
    path = _write_fixture(tmp_path, mu=1.0)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["check", path, "--seed", "5", "--out", str(out1)]) == 0
    assert main(["check", path, "--seed", "5", "--out", str(out2)]) == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    del r1["timings"], r2["timings"]
    assert r1 == r2


def test_cli_subordinated_hypothesis_failure(tmp_path):
    pf = ProblemFile(block=BlockMatrix([1.0], [0.0], [0.3], [0.3]), mu=0.5)
    path = tmp_path / "bad_order.json"
    save_problem(path, pf)
    assert main(["subordinated", str(path)]) == 2


def test_cli_subordinated_pass(tmp_path):
    pf = random_case(4, 4, gap=1.0, coupling=0.3, seed=3)
    path = tmp_path / "sub.json"
    save_problem(path, pf)
    out = tmp_path / "sub_report.json"
    assert main(["subordinated", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["flags"]["kernel_split_ok"]
    assert report["certificates"]["contraction"]["norm_X"] < 1


def test_cli_neumann_exit_codes(tmp_path):
    path = _write_fixture(tmp_path, mu=1.0)
    assert main(["neumann", path, "--lambda", "1,1"]) == 0
    assert main(["neumann", path, "--lambda", "1,0"]) == 1
    # shift inside spec(A) is a hypothesis failure
    assert main(["neumann", path, "--lambda", "2,0"]) == 2


def test_cli_riccati_solve(tmp_path):
    path = _write_fixture(tmp_path, mu=1.0)
    out = tmp_path / "newton.json"
    assert main(["riccati-solve", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["residuals"]["final"] <= 1e-12
    assert report["residuals"]["x0_forward_error_bound"] <= 1e-10


def test_cli_riccati_solve_fails_when_newton_finds_another_solution(tmp_path):
    """Newton from X = 0 converges to a solution of the graph equation that is
    not the spectral one; its graph certificate then decides the verdict."""
    rng = np.random.default_rng(1)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    path = tmp_path / "other_solution.json"
    h = g + g.conj().T
    block = BlockMatrix(A0=h[:3, :3], A1=h[3:, 3:], W0=h[3:, :3], W1=h[:3, 3:])
    save_problem(path, ProblemFile(block=block))
    out = tmp_path / "newton.json"
    assert main(["riccati-solve", str(path), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["residuals"]["final"] <= 1e-12
    assert report["residuals"]["x0_forward_error_bound"] == "inf"
    assert report["verdict"]["decided_by"] == "x0_forward_error_bound"


@pytest.mark.parametrize("shift", [0.0, 4.0])
def test_cli_riccati_solve_refuses_every_other_solution_of_the_interlaced_family(
    tmp_path, shift
):
    """``g + g*`` split 4 + 4 for seeds 0-49, as it is (interlaced diagonal
    spectra) and with ``A0 - shift I``, ``A1 + shift I``: every converged X
    that is not the spectral X0 (of a dense ``eigh``) is refused by the
    certificate, exit 1, and no spectral X is refused; the certificate is
    never below its distance from X0."""
    counts = {"spectral": 0, "other": 0}
    path, out = tmp_path / "interlaced.json", tmp_path / "newton.json"
    for seed in range(50):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = g + g.conj().T + np.diag([-shift] * 4 + [shift] * 4)
        block = BlockMatrix(A0=h[:4, :4], A1=h[4:, 4:], W0=h[4:, :4], W1=h[:4, 4:])
        save_problem(path, ProblemFile(block=block))
        code = main(["riccati-solve", str(path), "--out", str(out)])
        report = json.loads(out.read_text())
        # converged at riccati-solve's default --tol; "nan" or "inf" as text
        if not float(report["residuals"]["final"]) <= 1e-12:
            continue
        x = riccati.solve_newton_X0(block)[0]
        _, v = np.linalg.eigh(h)
        x0 = v[4:, :4] @ np.linalg.inv(v[:4, :4])
        distance = np.linalg.norm(x - x0) / (1.0 + np.linalg.norm(x0, 2))
        bound = float(report["residuals"]["x0_forward_error_bound"])
        spectral = distance <= 1e-6
        counts["spectral" if spectral else "other"] += 1
        assert code == (0 if spectral else 1), seed
        assert bound >= distance and (bound <= 1e-8) == spectral, seed
    # unshifted, Newton reached the spectral X0 on no seed (49 others, one
    # seed unconverged); shifted, 28 spectral and 22 others: both kinds occur
    if shift == 0.0:
        assert counts["other"] >= 45
    else:
        assert min(counts.values()) >= 15


@pytest.mark.parametrize("shift", [0.0, 1e6, 1e8, 1e9, 1e10])
def test_cli_riccati_solve_passes_on_shifted_blocks(tmp_path, shift):
    """``A_i + sI`` with mu = s has the X0 of the unshifted problem; the
    certificate runs on the centred blocks, so its rounding does not grow
    with s."""
    b = random_case(8, 8, gap=1.0, coupling=0.5, seed=0).block
    eye = shift * np.eye(8)
    path, out = tmp_path / "shifted.json", tmp_path / "newton.json"
    save_problem(path, ProblemFile(BlockMatrix(b.A0 + eye, b.A1 + eye, b.W0, b.W1), mu=shift))
    assert main(["riccati-solve", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["residuals"]["x0_forward_error_bound"] <= 1e-11


@pytest.mark.parametrize("mu", ["5", "-5"])
def test_cli_riccati_solve_refuses_a_mu_outside_the_ends(tmp_path, capsys, mu):
    path = tmp_path / "gapped.json"
    save_problem(path, random_case(4, 4, gap=1.0, coupling=0.5, seed=0))
    assert main(["riccati-solve", str(path), "--mu", mu]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "HypothesisError"


@pytest.mark.parametrize("perturb, flag", [("1e-8", True), ("1e-7", False)])
def test_cli_check_spectral_identity_residuals_follow_their_flag(tmp_path, perturb, flag):
    """At norm(B) < 1 the ``spectral_identity_*`` residuals are distances
    over norm(B), the scale ``SpectralIdentityReport.ok`` gates at, so the
    residuals, which ``check`` gates, pass --tol exactly when it holds."""
    from blockdiag import form_pair, spectral_pair, verify_spectral_identity

    b = random_case(4, 3, gap=1.0, coupling=0.5, seed=3).block
    small = BlockMatrix(1e-2 * b.A0, 1e-2 * b.A1, 1e-2 * b.W0, 1e-2 * b.W1)
    assert small.norm < 1.0
    path = tmp_path / "small.json"
    save_problem(path, ProblemFile(block=small, mu=0.0))
    out = tmp_path / "report.json"
    # the perturbed X0 fails the Riccati residuals either way
    assert main(["check", str(path), "--perturb-x0", perturb, "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    residuals = report["residuals"]
    worst = max(residuals["spectral_identity_left"], residuals["spectral_identity_right"])
    pair = spectral_pair(small, 0.0)
    pair = form_pair(pair.X0 + float(perturb) * np.ones_like(pair.X0), pair.X1)
    assert verify_spectral_identity(small, pair, 1e-8).ok is flag
    assert (worst <= 1e-8) is flag


class _ClosedStdout:
    """A stdout whose reader has gone, as under ``| head -1``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("extra, code", [([], 0), (["--perturb-x0", "1e-3"], 1)])
def test_cli_closed_stdout_keeps_exit_code_and_report(tmp_path, monkeypatch, extra, code):
    path = _write_fixture(tmp_path, mu=1.0)
    out = tmp_path / "report.json"
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert main(["check", path, "--out", str(out)] + extra) == code
    report = json.loads(out.read_text())
    assert "error" not in report
    assert report["command"] == "check"
    # the dropped stdout takes later summaries silently
    assert main(["check", path] + extra) == code


def test_cli_random_with_closed_stdout_keeps_the_problem_file(tmp_path, monkeypatch):
    out = tmp_path / "problem.json"
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert main(["random", "--n0", "2", "--n1", "2", "--out", str(out)]) == 0
    assert load_problem(out).block.n0 == 2


def test_cli_riccati_solve_degenerate_exit_2(tmp_path):
    pf = ProblemFile(block=BlockMatrix([0.0], [0.0], [1.0], [1.0]))
    path = tmp_path / "degenerate.json"
    save_problem(path, pf)
    assert main(["riccati-solve", str(path)]) == 2


def test_cli_diagonalize_and_triangularize(tmp_path):
    path = _write_fixture(tmp_path, mu=1.0)
    assert main(["diagonalize", path]) == 0
    assert main(["triangularize", path]) == 0


def test_cli_relbound(tmp_path):
    path = _write_fixture(tmp_path, mu=1.0)
    out = tmp_path / "relbound.json"
    assert main(["relbound", path, "--tau-grid", "1,100,1000000", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["certificates"]["relative_bound"]["b_star"] <= 1e-6


def test_cli_random_then_check(tmp_path):
    problem = tmp_path / "gen.json"
    assert (
        main(
            [
                "random", "--n0", "4", "--n1", "4", "--gap", "1", "--coupling", "0.4",
                "--seed", "11", "--out", str(problem),
            ]
        )
        == 0
    )
    assert main(["check", str(problem)]) == 0


def test_cli_dirac_pass_and_data(tmp_path):
    out = tmp_path / "dirac.json"
    data_dir = tmp_path / "data"
    code = main(
        [
            "dirac", "--n", "4", "--amplitude", "0.03", "--radius", "0.8",
            "--out", str(out), "--emit-data", str(data_dir),
        ]
    )
    assert code == 0
    subordination = json.loads(out.read_text())["certificates"]["subordination"]
    assert subordination["sup_spec_A1"] < 0.0 < subordination["inf_spec_A0"]
    assert (data_dir / "momenta.csv").exists()
    assert (data_dir / "spectra.csv").exists()


def test_cli_dirac_data_files_hold_the_mesh_and_the_spectra(tmp_path):
    from blockdiag import dirac

    n = 4
    data_dir = tmp_path / "data"
    assert main(["dirac", "--n", str(n), "--amplitude", "0.03", "--emit-data", str(data_dir)]) == 0
    momenta = (data_dir / "momenta.csv").read_text().splitlines()
    spectra = (data_dir / "spectra.csv").read_text().splitlines()
    assert momenta[0] == "kx,ky,abs_k"
    assert spectra[0] == "h,block_plus,block_minus"
    assert (len(momenta) - 1, len(spectra) - 1) == (n * n, 2 * n * n)

    def columns(lines):
        cells = [line.split(",") for line in lines[1:]]
        return [[float(c) for c in column if c] for column in zip(*cells)]

    kx, ky = dirac.GridSpec(n=n).momentum_mesh()
    assert columns(momenta) == [kx.tolist(), ky.tolist(), np.hypot(kx, ky).tolist()]
    result = dirac.run_dirac_pipeline(
        dirac.DiracProblem(
            grid=dirac.GridSpec(n=n), potential=dirac.ImpurityPotential(amplitude=0.03)
        )
    )
    expected = [result.h_eigenvalues, *result.block_eigenvalues]
    assert columns(spectra) == [np.sort(v).tolist() for v in expected]


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{file}", "--out", "{dir}"],
        ["random", "--n0", "2", "--n1", "2", "--out", "{dir}"],
        ["dirac", "--n", "4", "--emit-data", "{file}"],
    ],
    ids=["check-out-dir", "random-out-dir", "dirac-emit-data-file"],
)
def test_cli_unwritable_output_path_is_an_input_error(tmp_path, capsys, argv):
    path = _write_fixture(tmp_path, mu=1.0)
    directory = tmp_path / "existing"
    directory.mkdir()
    argv = [a.format(file=path, dir=directory) for a in argv]
    assert main(argv) == 3
    obj = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert obj["error"]["type"] == "StructuralError"
    assert obj["error"]["exit_code"] == 3
    assert list(tmp_path.rglob("*.tmp")) == []


def test_cli_report_path_made_unwritable_after_parsing(tmp_path, capsys, monkeypatch):
    """A report that cannot be written, nor its error object, exits 3."""
    from blockdiag import cli

    def blocking(args, report, problem):
        os.mkdir(args.out)
        return []

    blocked = dataclasses.replace(cli.COMMANDS["check"], run=blocking)
    monkeypatch.setitem(cli.COMMANDS, "check", blocked)
    out = tmp_path / "report.json"
    assert main(["check", _write_fixture(tmp_path, mu=1.0), "--out", str(out)]) == 3
    obj = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert obj["error"]["type"] == "StructuralError"
    assert str(out) in obj["error"]["message"]
    assert list(tmp_path.rglob("*.tmp")) == []


def test_write_json_atomic_refuses_a_directory(tmp_path):
    from blockdiag.io import write_json_atomic

    with pytest.raises(StructuralError, match="cannot write"):
        write_json_atomic(tmp_path, {"a": 1})
    assert list(tmp_path.iterdir()) == []


def test_cli_check_samples_more_than_a_thousand_shifts(tmp_path):
    path = tmp_path / "gapped.json"
    save_problem(path, random_case(8, 8, gap=1.0, coupling=0.5, seed=0))
    assert main(["check", str(path), "--lambdas", "1001"]) == 0


def test_cli_dirac_free_case(tmp_path):
    out = tmp_path / "free.json"
    assert main(["dirac", "--n", "4", "--amplitude", "0", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["certificates"]["contraction"]["norm_X"] <= 1e-10


def test_cli_dirac_subordination_failure_exit_2(tmp_path):
    out = tmp_path / "dirac_fail.json"
    code = main(
        ["dirac", "--n", "4", "--amplitude", "10.0", "--radius", "3.0", "--out", str(out)]
    )
    assert code == 2
    error = json.loads(out.read_text())["error"]
    assert error["type"] == "HypothesisError"
    assert error["diagnostics"]["subordinated"] is False
    assert error["diagnostics"]["margin"] < 0


#: The fields of a failed theorem verdict, and the gate ``dirac`` decides it by.
_FAILED_THEOREM = {
    "kernel_split_ok": ({"kernel_split_ok": False}, "kernel_split_ok"),
    # reduces_ok compares the invariance residuals, which dirac gates
    "reduces_ok": ({"reduces_ok": False, "invariance_residuals": (1.0, 0.0)}, "invariance_L"),
}


@pytest.mark.parametrize("flag", list(_FAILED_THEOREM))
def test_cli_dirac_gates_the_theorem_flags(tmp_path, monkeypatch, capsys, flag):
    from blockdiag import dirac

    run = dirac.run_dirac_pipeline
    fields, gate = _FAILED_THEOREM[flag]

    def failing(problem, tol):
        result = run(problem, tol=tol)
        theorem = dataclasses.replace(result.theorem, **fields)
        return dataclasses.replace(result, theorem=theorem)

    monkeypatch.setattr(dirac, "run_dirac_pipeline", failing)
    out = tmp_path / "dirac.json"
    assert main(["dirac", "--n", "4", "--amplitude", "0.03", "--out", str(out)]) == 1
    assert "[dirac] FAIL" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["verdict"]["decided_by"] == gate
    failed = [k for k, v in report["residuals"].items() if not v <= 1e-8]
    assert failed + [k for k, ok in report["flags"].items() if not ok] == [gate]


def test_cli_contraction_flag_agrees_between_subordinated_and_dirac(
    tmp_path, monkeypatch
):
    """A norm(X) inside CONTRACTION_SLACK above 1 passes both commands, which
    report it as a certificate: ``run_theorem`` refuses an X beyond it, so
    neither gates it again."""
    from blockdiag import dirac, subordinated

    norm_x = 1.0 + 5e-10
    assert norm_x <= 1.0 + subordinated.CONTRACTION_SLACK
    run_theorem = subordinated.run_theorem
    run_dirac = dirac.run_dirac_pipeline
    monkeypatch.setattr(
        subordinated,
        "run_theorem",
        lambda *a, **k: dataclasses.replace(run_theorem(*a, **k), norm_X=norm_x),
    )

    def run_dirac_at_norm_x(*a, **k):
        result = run_dirac(*a, **k)
        theorem = dataclasses.replace(result.theorem, norm_X=norm_x)
        return dataclasses.replace(result, theorem=theorem, norm_X=norm_x)

    monkeypatch.setattr(dirac, "run_dirac_pipeline", run_dirac_at_norm_x)
    path = tmp_path / "sub.json"
    save_problem(path, random_case(4, 4, gap=1.0, coupling=0.3, seed=3))
    for name, args in (
        ("subordinated", ["subordinated", str(path)]),
        ("dirac", ["dirac", "--n", "4", "--amplitude", "0.03"]),
    ):
        out = tmp_path / f"{name}.json"
        assert main(args + ["--out", str(out)]) == 0, name
        report = json.loads(out.read_text())
        assert "contraction" not in report["flags"], name
        assert report["certificates"]["contraction"]["norm_X"] == norm_x


@pytest.mark.parametrize(
    "umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)], ids=oct
)
def test_written_files_follow_the_umask(tmp_path, umask, mode):
    problem = tmp_path / "gen.json"
    report = tmp_path / "report.json"
    old = os.umask(umask)
    try:
        assert main(
            ["random", "--n0", "2", "--n1", "2", "--out", str(problem)]
        ) == 0
        assert main(["check", str(problem), "--out", str(report)]) == 0
    finally:
        os.umask(old)
    for path in (problem, report):
        assert stat.S_IMODE(os.stat(path).st_mode) == mode, path


def test_relbound_default_grid(tmp_path):
    path = _write_fixture(tmp_path)
    out = tmp_path / "relbound.json"
    assert main(["relbound", path, "--out", str(out)]) == 0
    sweep = json.loads(out.read_text())["certificates"]["relative_bound"]["sweep"]
    # each entry is [[re, im], value] of the shift i tau
    assert [lam for lam, _ in sweep] == [[0.0, t] for t in np.logspace(0, 6, 13)]


def test_cli_usage_error_exit_3():
    assert main(["check"]) == 3  # missing file argument
    assert main(["nonsense"]) == 3


def test_cli_error_object_is_machine_readable(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "nope"}')
    code = main(["check", str(bad)])
    captured = capsys.readouterr()
    obj = json.loads(captured.err.strip().splitlines()[-1])
    assert code == 3
    assert obj["error"]["type"] == "StructuralError"
    assert obj["error"]["exit_code"] == 3


@pytest.mark.parametrize(
    "args",
    [
        ["riccati-solve", "{path}", "--max-iter", "-1"],
        ["check", "{path}", "--tol", "0"],
        ["check", "{path}", "--tol", "-1"],
        ["check", "{path}", "--tol", "nan"],
        ["check", "{path}", "--lambdas", "0"],
        ["check", "{path}", "--lambdas", "-1"],
        ["dirac", "--tol", "-1e-8"],
        ["check", "{path}", "--out", "{missing}"],
        ["riccati-solve", "{path}", "--out", "{missing}"],
        ["random", "--n0", "2", "--n1", "2", "--out", "{missing}"],
        # neumann has no tolerance to set: --tol is an unknown option
        ["neumann", "{path}", "--lambda", "1,1", "--tol", "1e-8"],
    ],
)
def test_cli_invalid_arguments_exit_3(tmp_path, capsys, args):
    path = _write_fixture(tmp_path, mu=1.0)
    missing = str(tmp_path / "no_such_dir" / "out.json")
    argv = [a.format(path=path, missing=missing) for a in args]
    assert main(argv) == 3
    obj = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert obj["error"]["type"] == "StructuralError"
    assert not (tmp_path / "no_such_dir").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["relbound", "{path}", "--tau-grid", "nan"],
        ["relbound", "{path}", "--tau-grid", "1,nan"],
        ["relbound", "{path}", "--tau-grid", "inf"],
        ["relbound", "{path}", "--tau-grid", "1,inf"],
        ["neumann", "{path}", "--lambda", "nan,0"],
        ["subordinated", "{path}", "--mu", "nan"],
        ["check", "{path}", "--mu", "nan"],
        ["check", "{path}", "--perturb-x0", "inf"],
        ["check", "{path}", "--tol", "inf"],
        ["random", "--n0", "2", "--n1", "2", "--gap", "nan", "--out", "{out}"],
        ["random", "--n0", "2", "--n1", "2", "--coupling", "inf", "--out", "{out}"],
        ["dirac", "--n", "4", "--radius", "nan"],
        ["dirac", "--n", "4", "--amplitude", "nan"],
        ["dirac", "--n", "4", "--box", "inf"],
        ["dirac", "--n", "4", "--center", "nan,0"],
    ],
)
def test_cli_non_finite_numbers_exit_3(tmp_path, capsys, args):
    path = tmp_path / "gapped.json"
    save_problem(path, random_case(4, 4, gap=1.0, coupling=0.5, seed=0))
    out = tmp_path / "written.json"
    argv = [a.format(path=path, out=out) for a in args]
    assert main(argv) == 3
    obj = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert obj["error"]["type"] == "StructuralError"
    assert "finite" in obj["error"]["message"]
    assert not out.exists()


def test_cli_max_iter_zero_is_valid(tmp_path):
    path = _write_fixture(tmp_path, mu=1.0)
    # zero steps from X = 0 cannot converge: a tolerance failure, not a crash
    assert main(["riccati-solve", path, "--max-iter", "0"]) == 1


def test_cli_error_json_carries_numeric_diagnostics(tmp_path, capsys, monkeypatch):
    from blockdiag import riccati
    from blockdiag.errors import NumericError

    def failing(*args, **kwargs):
        raise NumericError(
            "solver blew up",
            diagnostics={"residual": np.float64(2.5), "defective": np.bool_(True)},
        )

    monkeypatch.setattr(riccati, "solve_newton_X0", failing)
    path = _write_fixture(tmp_path, mu=1.0)
    out = tmp_path / "err.json"
    assert main(["riccati-solve", path, "--out", str(out)]) == 1
    printed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    for obj in (printed, json.loads(out.read_text())):
        assert obj["error"]["type"] == "NumericError"
        assert obj["error"]["diagnostics"] == {"residual": 2.5, "defective": True}


def test_cli_internal_error_exit_4(tmp_path, capsys, monkeypatch):
    from blockdiag import riccati

    def crashing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(riccati, "solve_newton_X0", crashing)
    path = _write_fixture(tmp_path, mu=1.0)
    out = tmp_path / "crash.json"
    assert main(["riccati-solve", path, "--out", str(out)]) == 4
    captured = capsys.readouterr()
    printed = json.loads(captured.err.strip().splitlines()[-1])
    for obj in (printed, json.loads(out.read_text())):
        assert obj["error"] == {
            "type": "LinAlgError",
            "message": "SVD did not converge",
            "exit_code": 4,
        }
    assert "Traceback" in captured.err


def test_cli_unwritable_report_is_an_input_error(tmp_path, capsys, monkeypatch):
    from blockdiag import cli

    def overflowing(args, report, problem):
        report.certificates["margin"] = object()  # no JSON form
        return []

    overflowing_check = dataclasses.replace(cli.COMMANDS["check"], run=overflowing)
    monkeypatch.setitem(cli.COMMANDS, "check", overflowing_check)
    path = _write_fixture(tmp_path, mu=1.0)
    out = tmp_path / "report.json"
    assert main(["check", path, "--out", str(out)]) == 3
    obj = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert obj["error"]["type"] == "StructuralError"
    assert json.loads(out.read_text()) == obj


SCALED_COMMANDS = [
    ["check"],
    ["diagonalize"],
    ["triangularize"],
    ["riccati-solve"],
    ["subordinated"],
    ["neumann", "--lambda", "0,{s}"],
    ["relbound", "--tau-grid", "{s},{s100}"],
]


@pytest.mark.parametrize("s", [1e154, 1e200, 1e300])
def test_cli_commands_invariant_under_scaling(tmp_path, s):
    from blockdiag import run_theorem, solve_newton_X0, spectral_pair

    b = random_case(4, 4, gap=1.0, coupling=0.5, seed=0).block
    scaled = BlockMatrix(s * b.A0, s * b.A1, s * b.W0, s * b.W1)
    path = tmp_path / "scaled.json"
    save_problem(path, ProblemFile(block=scaled, mu=0.0))
    for command in SCALED_COMMANDS:
        argv = [a.format(s=s, s100=100 * s) for a in command[1:]]
        assert main([command[0], str(path)] + argv) == 0, command[0]

    def rel(x, ref):
        return np.linalg.norm(x - ref) / np.linalg.norm(ref)

    pair, pair_s = spectral_pair(b, 0.0), spectral_pair(scaled, 0.0)
    assert rel(pair_s.X0, pair.X0) <= 1e-10
    assert rel(pair_s.X1, pair.X1) <= 1e-10
    assert rel(run_theorem(scaled, mu=0.0).X, run_theorem(b, mu=0.0).X) <= 1e-10
    x_s, trace = solve_newton_X0(scaled, tol=1e-12)
    assert trace.converged
    assert rel(x_s, solve_newton_X0(b, tol=1e-12)[0]) <= 1e-10


def test_cli_error_json_carries_sigma_min(tmp_path, capsys):
    # the eigenvector below mu = 0 lies in H1, so it is no graph over H0
    block = BlockMatrix([1.0], [-1.0], [0.0], [0.0])
    path = tmp_path / "flipped.json"
    save_problem(path, ProblemFile(block=block, mu=0.0))
    assert main(["check", str(path)]) == 2
    obj = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert obj["error"]["type"] == "NotAGraphError"
    assert obj["error"]["sigma_min"] == 0.0


@pytest.mark.parametrize(
    "args, quantity",
    [
        (["--n", "4"], "subordination margin"),
        (["--n", "4", "--out", "{out}"], "subordination margin"),
        ([], "spinor-rotated Hamiltonian"),
    ],
)
def test_cli_dirac_overflow_is_an_input_error(tmp_path, capsys, args, quantity):
    """An overflowing potential exits 3 with or without ``--out``, at any grid."""
    out = tmp_path / "report.json"
    argv = ["dirac", "--amplitude", "1e308"] + [a.format(out=out) for a in args]
    assert main(argv) == 3
    obj = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert obj["error"]["type"] == "StructuralError"
    assert quantity in obj["error"]["message"]
    if "--out" in args:
        assert json.loads(out.read_text()) == obj


@pytest.mark.parametrize("s", [2.0**800, 1e300])
def test_cli_check_resolvent_gate_is_scale_free(tmp_path, s):
    """The defects are relative to the resolvent's norm, formed before they
    could underflow, so a scaled file reads the unscaled value."""
    b = random_case(6, 6, gap=1.0, coupling=0.5, seed=0).block
    values = []
    for factor in (1.0, s):
        path, out = tmp_path / f"{factor}.json", tmp_path / f"{factor}.report.json"
        scaled = BlockMatrix(factor * b.A0, factor * b.A1, factor * b.W0, factor * b.W1)
        save_problem(path, ProblemFile(block=scaled, mu=0.0))
        assert main(["check", str(path), "--out", str(out)]) == 0
        values.append(json.loads(out.read_text())["residuals"]["resolvent_invariance_max"])
    assert values[0] > 0.0
    assert abs(values[1] - values[0]) <= 1e-13


def test_cli_check_shifts_stay_finite_at_the_float_range_edge():
    """The block of ``random --n0 1 --n1 1 --coupling 1e308``: its box of
    shifts reaches past the float range, and no shift drawn there is kept."""
    from blockdiag import cli, spectral_pair, verify_resolvent_invariance

    b = random_case(1, 1, gap=1.0, coupling=1e308, seed=0).block
    shifts = cli._sample_shifts(b, 3, 0)
    assert len(shifts) == 3 and all(cmath.isfinite(lam) for lam in shifts)
    sweep = verify_resolvent_invariance(b, spectral_pair(b, 0.0), shifts)
    assert 0.0 < np.max(sweep) <= 1e-8


def test_cli_check_fails_on_a_nan_resolvent_defect(tmp_path, capsys, monkeypatch):
    from blockdiag import transform

    sweep_of = transform.verify_resolvent_invariance

    def with_nan(b, pair, shifts):
        sweep = sweep_of(b, pair, shifts)
        sweep[1][0] = float("nan")
        return sweep

    monkeypatch.setattr(transform, "verify_resolvent_invariance", with_nan)
    path = tmp_path / "gapped.json"
    save_problem(path, random_case(4, 4, gap=1.0, coupling=0.5, seed=0))
    assert main(["check", str(path)]) == 1
    summary = capsys.readouterr().out
    assert "[check] FAIL" in summary
    assert "resolvent_invariance_max     nan" in summary


def test_cli_check_with_out_fails_on_a_nan_resolvent_defect(tmp_path, capsys, monkeypatch):
    """A NaN residual fails its gate with exit 1 whether or not the report
    is written, and the report written is valid JSON that names it."""
    from blockdiag import transform

    sweep_of = transform.verify_resolvent_invariance

    def with_nan(b, pair, shifts):
        sweep = sweep_of(b, pair, shifts)
        sweep[1][0] = float("nan")
        return sweep

    monkeypatch.setattr(transform, "verify_resolvent_invariance", with_nan)
    path = tmp_path / "gapped.json"
    save_problem(path, random_case(4, 4, gap=1.0, coupling=0.5, seed=0))
    out = tmp_path / "report.json"
    assert main(["check", str(path)]) == 1
    assert main(["check", str(path), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["residuals"]["resolvent_invariance_max"] == "nan"
    assert report["verdict"]["decided_by"] == "resolvent_invariance_max"
    assert "[check] FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{path}", "--seed", "-1"],
        ["random", "--n0", "2", "--n1", "2", "--seed", "-1", "--out", "{out}"],
    ],
)
def test_cli_negative_seed_is_an_input_error(tmp_path, capsys, argv):
    path = tmp_path / "gapped.json"
    save_problem(path, random_case(2, 2, gap=1.0, coupling=0.5, seed=0))
    out = tmp_path / "written.json"
    assert main([a.format(path=path, out=out) for a in argv]) == 3
    obj = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert obj["error"]["type"] == "StructuralError"
    assert "--seed" in obj["error"]["message"]
    assert not out.exists()


@pytest.mark.parametrize("args", [["--box", "1e300"], ["--center", "1e300,0"]])
def test_cli_dirac_large_grid_names_the_box_and_centre(capsys, args):
    """A free grid whose positions overflow is an input error that names
    the box and the centre, not only the potential."""
    assert main(["dirac", "--n", "4", *args]) == 3
    obj = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert obj["error"]["type"] == "StructuralError"
    assert "the box or the centre is too large" in obj["error"]["message"]
