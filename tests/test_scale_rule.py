"""One scale rule for every gate, so that B and 2^k B get one verdict.

The decomposition is homogeneous: s B has the invariant graph subspaces,
the angular operators and the Riccati solutions of B, and block diagonal
forms scaled by s. Every gate therefore measures against the norm of what
it measures, with no absolute floor (``blockdiag.core``), and the
Frobenius norm is exact under power-of-two scaling, as floating point is.
"""

import ast
import contextlib
import io
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdiag import BlockMatrix, ProblemFile, random_case, save_problem
from blockdiag.cli import RELBOUND_TAUS, main
from blockdiag.core import frobenius_norm, relative

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "blockdiag"


def test_relative_over_a_zero_scale():
    assert relative(3.0, 4.0) == 0.75
    assert relative(0.0, 0.0) == 0.0
    assert relative(1e-300, 0.0) == math.inf


def _matrices():
    rng = np.random.default_rng(0)
    # parts of magnitude 1/2 to 2, so 2^k m has normal parts for |k| <= 1000
    re, im = rng.choice([-1.0, 1.0], (2, 5, 4)) * rng.uniform(0.5, 2.0, (2, 5, 4))
    m = re + 1j * im
    return [np.ones((2, 2)), m, m.T, m[::2, ::-1]]


@pytest.mark.parametrize("index", range(4))
def test_frobenius_norm_is_exact_under_powers_of_two(index):
    m = _matrices()[index]
    norm = frobenius_norm(m)
    checked = 0
    for k in range(-1000, 1001):
        expected = math.ldexp(norm, k)
        if not (math.isfinite(expected) and abs(expected) >= 2.0**-1022):
            continue
        assert frobenius_norm(m * 2.0**k) == expected, k
        checked += 1
    assert checked >= 1990
    assert frobenius_norm(2.0**-600 * np.ones((2, 2))) == 2.0**-599


def test_frobenius_norm_of_zero_and_non_finite_input():
    assert frobenius_norm(np.zeros((3, 2))) == 0.0
    assert frobenius_norm(np.zeros((0, 0))) == 0.0
    # the norm itself past the float range
    assert frobenius_norm(np.full((2, 2), 1e308)) == math.inf
    assert math.isnan(frobenius_norm(np.array([[np.nan, 1.0]])))


# --- every gate gets the verdict of the unscaled input ---------------------


def _nonhermitian() -> ProblemFile:
    rng = np.random.default_rng(2)

    def cmat():
        return rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))

    block = BlockMatrix(
        np.diag([-2.0 + 0.5j, -1.5 - 0.3j, -1.0 + 0.1j, -2.5]),
        np.diag([1.0 + 1j, 2.0 - 0.2j, 1.5, 2.5 + 0.4j]),
        0.1 * cmat(),
        0.1 * cmat(),
    )
    return ProblemFile(block=block)


FILES = {
    "gapped": lambda: random_case(6, 6, gap=1.0, coupling=0.5, seed=0),
    # kernel of dimension 2 at mu = 0, where the two diagonal spectra touch
    "closed_gap": lambda: random_case(5, 5, gap=0.0, coupling=0.5, seed=0, kernel_dim=2),
    "nonhermitian": _nonhermitian,
}

COMMANDS = [
    ["check"],
    ["diagonalize"],
    ["triangularize"],
    ["riccati-solve"],
    ["subordinated"],
    ["neumann", "--lambda", "0,{three}"],
    ["relbound", "--tau-grid", "{taus}"],
]

EXPONENTS = [-600, -400, -60, -40, 60, 400, 600]

#: Largest difference allowed between a residual and its unscaled value.
RESIDUAL_AGREEMENT = 1e-13


def _reports(tmp_path, problem: ProblemFile, k: int, commands=COMMANDS) -> dict:
    """``command -> (exit code, report)`` for the file scaled by 2^k."""
    s = 2.0**k
    b = problem.block
    scaled = BlockMatrix(s * b.A0, s * b.A1, s * b.W0, s * b.W1)
    mu = None if problem.mu is None else s * problem.mu
    path = tmp_path / f"scaled_{k}.json"
    save_problem(path, ProblemFile(block=scaled, mu=mu))
    taus = ",".join(repr(float(t) * s) for t in RELBOUND_TAUS)
    out = {}
    for command in commands:
        argv = [a.format(three=repr(3.0 * s), taus=taus) for a in command[1:]]
        report = tmp_path / f"{command[0]}_{k}.json"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = main([command[0], str(path), *argv, "--out", str(report)])
        out[command[0]] = code, json.loads(report.read_text())
    return out


def _same_verdict(command, reference, scaled) -> None:
    code, ref = reference
    scaled_code, got = scaled
    assert scaled_code == code, (command, got.get("error"))
    if "error" in ref:
        return
    assert got["flags"] == ref["flags"], command
    assert got["residuals"].keys() == ref["residuals"].keys(), command
    for name, value in ref["residuals"].items():
        scaled_value = got["residuals"][name]
        if isinstance(value, str):  # a non-finite number, written as text
            assert scaled_value == value, (command, name)
            continue
        assert abs(scaled_value - value) <= RESIDUAL_AGREEMENT, (command, name)
        # a norm that underflows would read 0 within the agreement too
        assert (scaled_value == 0.0) == (value == 0.0), (command, name)
    decided, ref_decided = got["verdict"].get("decided_by"), ref["verdict"].get("decided_by")
    if decided != ref_decided:
        # a passing run names the residual nearest its bound; two residuals
        # within RESIDUAL_AGREEMENT of each other may trade places, as the
        # rounding of LAPACK's eigensolvers is not exactly homogeneous
        residuals = ref["residuals"]
        assert code == 0 and decided in residuals and ref_decided in residuals, command
        assert abs(residuals[decided] - residuals[ref_decided]) <= 2 * RESIDUAL_AGREEMENT


def _check_scaled(tmp_path, name: str, exponents) -> None:
    problem = FILES[name]()
    reference = _reports(tmp_path, problem, 0)
    for k in exponents:
        scaled = _reports(tmp_path, problem, k)
        for command in reference:
            _same_verdict(f"{command} at 2^{k}", reference[command], scaled[command])


@pytest.mark.parametrize("name", list(FILES))
def test_scaled_files_get_the_verdicts_of_the_unscaled(tmp_path, name):
    _check_scaled(tmp_path, name, EXPONENTS)


def test_the_file_at_the_largest_float_keeps_its_verdicts_scaled_down(tmp_path):
    """The block of ``random --n0 1 --n1 1 --coupling 1e308`` gets the
    verdicts of its copies scaled by 2^-k (scaled up it leaves the float
    range). Its Riccati residuals are nonzero and are formed with no
    overflow, which would raise a RuntimeWarning here. Newton runs on the
    blocks scaled by one power of two, the same iteration for every copy:
    from X = 0 its first iterate is of the size of the coupling over the
    gap, and its residual overflows, which ends the iteration unconverged
    (exit 1), not as an input error."""
    problem = random_case(1, 1, gap=1.0, coupling=1e308, seed=0)
    reference = _reports(tmp_path, problem, 0, COMMANDS)
    code, report = reference["check"]
    assert code == 0
    assert reference["riccati-solve"][0] == 1
    assert all(report["residuals"][f"riccati_{name}"] > 0.0 for name in ("x0", "x1", "block"))
    for k in (-40, -60, -400, -600):
        scaled = _reports(tmp_path, problem, k, COMMANDS)
        for command in reference:
            _same_verdict(f"{command} at 2^{k}", reference[command], scaled[command])


@pytest.mark.parametrize(
    "name, perturb",
    [
        ("largest_float", "1e3"), ("largest_float", "1e-3"), ("nonhermitian", "1.7e308"),
        ("random_4", "1.7e308"),
    ],
)
def test_check_of_a_pair_past_the_float_range_fails_its_gates(tmp_path, name, perturb):
    """``check --perturb-x0`` with a perturbation that carries the diagonal
    blocks of the forms, or the distances of their spectra from B's, past
    the float range: the spectral identity reads NaN or infinite distances,
    the resolvent sweep a NaN defect for a graph past the float range, and
    the check fails (1), not as an input error (3) or a crash (4). Products
    and distances past the range are formed with no overflow warning, which
    would be an error here and exit 4."""
    if name == "largest_float":
        problem = random_case(1, 1, gap=1.0, coupling=1e308, seed=0)
    elif name == "random_4":
        problem = random_case(4, 4, gap=1.0, coupling=0.5, seed=0)
    else:
        problem = FILES[name]()
    path, out = tmp_path / "problem.json", tmp_path / "report.json"
    save_problem(path, problem)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["check", str(path), f"--perturb-x0={perturb}", "--out", str(out)])
    report = json.loads(out.read_text())
    assert code == 1, report.get("error")
    # "nan" or "inf" as text, or a distance over --tol
    identity = [float(report["residuals"][f"spectral_identity_{side}"]) for side in ("left", "right")]
    assert not all(d <= 1e-8 for d in identity)


def test_the_subnormal_gapped_file_keeps_its_exit_codes(tmp_path):
    """The gapped file scaled by 2^-1070: its entries are subnormal and keep
    a few digits each. B's eigensolve factors it scaled up by a power of
    two, as it factors the file at the largest float scaled down, and its
    eigenvalues are scaled back. The spectral route then refuses the
    subspace below mu on its invariance residual (exit 1), as does
    ``subordinated``, and Newton, which never factors B, converges.
    ``relbound`` forms its resolvent norms on the blocks and shifts scaled
    up by a power of two, so no reciprocal distance overflows: it passes,
    with the unscaled file's ``b_star`` to the few digits the subnormal
    entries keep, and no RuntimeWarning (an error here)."""
    reports = _reports(tmp_path, FILES["gapped"](), -1070)
    assert {command: code for command, (code, _) in reports.items()} == {
        "check": 1,
        "diagonalize": 1,
        "triangularize": 1,
        "riccati-solve": 0,
        "subordinated": 1,
        "neumann": 1,
        "relbound": 0,
    }
    errors = [reports[c][1]["error"]["type"] for c in ("check", "diagonalize", "triangularize")]
    assert errors == ["NumericError"] * 3
    (_, reference), = _reports(tmp_path, FILES["gapped"](), 0, [COMMANDS[-1]]).values()
    b_star = reports["relbound"][1]["certificates"]["relative_bound"]["b_star"]
    assert b_star == pytest.approx(reference["certificates"]["relative_bound"]["b_star"], rel=0.01)


@settings(max_examples=5, deadline=None)
@given(st.sampled_from(list(FILES)), st.integers(-600, 600))
def test_any_power_of_two_keeps_the_verdicts(tmp_path_factory, name, k):
    _check_scaled(tmp_path_factory.mktemp("scaled"), name, [k])


# --- no gate measures against an absolute floor ---------------------------

#: The builtin ``max``/``min`` calls and ``or`` expressions with a numeric
#: constant that are no floor: the Neumann criterion ``max(1, norm(Y))``, the
#: Dirac angle clamp, and the box of the sampled shifts, which B = 0 needs.
ALLOWED = {
    ("criteria.py", "neumann_certificate", "max(1.0, norm_y)"),
    ("dirac.py", "run_dirac_pipeline", "min(1.0, s + eps / (1.0 - eps))"),
    ("cli.py", "_sample_shifts", "b.norm or 1.0"),
}


def _is_number(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _is_floor(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("max", "min")
        and any(map(_is_number, node.args))
    ) or (
        isinstance(node, ast.BoolOp)
        and isinstance(node.op, ast.Or)
        and any(map(_is_number, node.values))
    )


def _floors(path: pathlib.Path) -> list[tuple[str, str, str]]:
    """``(file, function, source)`` of each builtin max/min call with a numeric
    constant argument and each ``or`` with a numeric constant operand, in
    the innermost function that holds it."""
    out = []

    def visit(node, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if _is_floor(node):
            out.append((path.name, function, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return out


def test_no_gate_has_an_absolute_floor():
    found = {f for path in sorted(PACKAGE.glob("*.py")) for f in _floors(path)}
    assert found - ALLOWED == set()
