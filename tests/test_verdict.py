"""Every gate of every report command can decide its verdict.

Each command runs on a small gapped file (``dirac`` on its smallest grid)
with its ``run`` wrapped so that one gate at a time reads twice its bound.
The command must then fail with that gate in ``verdict.decided_by``, exit 1:
a gate is a residual or a check, and a refused hypothesis is an error, not a
gate. Unforced, every command passes, and the gate that decided is one
nearest its bound, the largest value / bound.
"""

import dataclasses
import json

import pytest

from blockdiag import cli, random_case, run_theorem, save_problem
from blockdiag.cli import main

ARGV = {
    "check": ["check", "{file}"],
    "diagonalize": ["diagonalize", "{file}"],
    "triangularize": ["triangularize", "{file}"],
    "riccati-solve": ["riccati-solve", "{file}"],
    "subordinated": ["subordinated", "{file}"],
    "neumann": ["neumann", "{file}", "--lambda", "0,3"],
    "relbound": ["relbound", "{file}"],
    "dirac": ["dirac", "--n", "4"],
}


def _run(command, original, argv, tmp_path, monkeypatch, forced=None):
    """Exit code, report and unforced gates of one run, ``forced`` at 2 x bound."""
    gates = []

    def run(args, report, problem):
        gates[:] = original.run(args, report, problem)
        return [g._replace(value=2.0 * g.bound) if g.name == forced else g for g in gates]

    monkeypatch.setitem(cli.COMMANDS, command, dataclasses.replace(original, run=run))
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    return code, json.loads(out.read_text()), gates


@pytest.mark.parametrize("command", list(ARGV))
def test_every_gate_can_decide(tmp_path, monkeypatch, command):
    path = tmp_path / "gapped.json"
    save_problem(path, random_case(4, 4, gap=1.0, coupling=0.5, seed=0))
    argv = [a.format(file=path) for a in ARGV[command]]
    original = cli.COMMANDS[command]

    code, report, gates = _run(command, original, argv, tmp_path, monkeypatch)
    assert code == 0
    if not gates:
        # a measurement: nothing to decide
        assert command == "relbound" and report["verdict"] == {}
        return
    ratios = {g.name: g.value / g.bound for g in gates}
    assert len(ratios) == len(gates)
    assert {g.kind for g in gates} <= {"residual", "check"}
    decided = report["verdict"]["decided_by"]
    assert ratios[decided] == max(ratios.values())
    gate = next(g for g in gates if g.name == decided)
    assert report["verdict"]["margin"] == pytest.approx(gate.bound - gate.value)

    for gate in gates:
        code, report, _ = _run(command, original, argv, tmp_path, monkeypatch, gate.name)
        assert code == 1, gate.name
        assert report["verdict"] == {"decided_by": gate.name, "margin": -gate.bound}
        if gate.kind == "residual":
            assert report["residuals"][gate.name] == 2.0 * gate.bound
        else:
            assert report["flags"][gate.name] is False


def test_subordinated_and_dirac_are_decided_by_a_residual(tmp_path):
    """No gate of ``subordinated`` or ``dirac`` repeats a residual or cannot
    fail, so a residual decides: at a ``--tol`` that ``invariance_L`` fails
    by 1.5x, it decides with margin ``tol - value``, and passing runs name
    a residual gate."""
    problem = random_case(6, 6, gap=1.0, coupling=0.5, seed=0)
    path, out = tmp_path / "problem.json", tmp_path / "report.json"
    save_problem(path, problem)
    value = run_theorem(problem.block, mu=problem.mu).invariance_residuals[0]
    tol = value / 1.5
    assert main(["subordinated", str(path), "--tol", repr(tol), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["verdict"] == {"decided_by": "invariance_L", "margin": tol - value}
    assert report["residuals"]["invariance_L"] == value
    for argv in (["subordinated", str(path)], ["dirac", "--n", "8"]):
        assert main([*argv, "--out", str(out)]) == 0, argv
        report = json.loads(out.read_text())
        assert report["verdict"]["decided_by"] in report["residuals"], argv
