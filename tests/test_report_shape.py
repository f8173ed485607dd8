"""Every CLI report field, pinned command by command.

Each command runs on a small gapped file and on a closed-gap file with a
kernel planted at its threshold mu = 0; ``dirac`` runs on its smallest
grid. ``subordinated`` on the gapped file with its coupling moved off
``W0 = W1*``, and ``dirac`` with a potential too deep for subordination,
refuse their hypotheses with the check's report as ``error.diagnostics``.
The nested key paths of ``residuals``, ``spectra``, ``flags``,
``certificates`` and ``verdict`` (or of ``error``, when the command exits
with one) must equal the listing below, so a field can only appear or
disappear on purpose.
"""

import json

import pytest

from blockdiag import BlockMatrix, ProblemFile, random_case, save_problem
from blockdiag.cli import main

SECTIONS = ("residuals", "spectra", "flags", "certificates", "verdict", "error")

ERROR = ["error.exit_code", "error.message", "error.type"]

SUBORDINATED = [
    "certificates.contraction.norm_X",
    "certificates.subordination.gap",
    "certificates.subordination.inf_spec_A1",
    "certificates.subordination.mu",
    "certificates.subordination.sup_spec_A0",
    "flags.kernel_split_ok",
    "residuals.adjointness",
    "residuals.invariance_L",
    "residuals.invariance_L_perp",
    "residuals.offdiag_left",
    "residuals.offdiag_right",
    "spectra",
    "verdict.decided_by",
    "verdict.margin",
]

RELBOUND = [
    "certificates.relative_bound.a",
    "certificates.relative_bound.b_star",
    "certificates.relative_bound.resolvent_growth",
    "certificates.relative_bound.sweep",
    "flags",
    "residuals",
    "spectra",
    "verdict",
]

#: (file, command line after the file) -> (exit code, sorted key paths)
SHAPES = {
    ("gapped", ("check",)): (0, [
        "certificates.complementarity.norm_Y",
        "certificates.complementarity.sigma_min",
        "flags.complementary",
        "flags.hermitian",
        "flags.symmetric_offdiag",
        "residuals.extended_identity",
        "residuals.extended_right_form",
        "residuals.offdiag_left",
        "residuals.offdiag_right",
        "residuals.resolvent_invariance_max",
        "residuals.riccati_block",
        "residuals.riccati_x0",
        "residuals.riccati_x1",
        "residuals.spectral_identity_left",
        "residuals.spectral_identity_right",
        "spectra.B",
        "spectra.diag_left",
        "verdict.decided_by",
        "verdict.margin",
    ]),
    ("gapped", ("diagonalize",)): (0, [
        "certificates.conditioning.left",
        "certificates.conditioning.right",
        "flags.reliable",
        "residuals.offdiag_left",
        "residuals.offdiag_right",
        "spectra.left_block0",
        "spectra.left_block1",
        "spectra.right_block0",
        "spectra.right_block1",
        "verdict.decided_by",
        "verdict.margin",
    ]),
    ("gapped", ("triangularize",)): (0, [
        "certificates",
        "flags",
        "residuals.lower_left",
        "spectra.block0",
        "spectra.block1",
        "verdict.decided_by",
        "verdict.margin",
    ]),
    ("gapped", ("riccati-solve",)): (0, [
        "certificates.newton.frames",
        "certificates.newton.iterations",
        "certificates.newton.schur_steps",
        "certificates.newton.sweeps",
        "certificates.newton.trace",
        "flags",
        "residuals.final",
        "residuals.x0_forward_error_bound",
        "spectra",
        "verdict.decided_by",
        "verdict.margin",
    ]),
    ("gapped", ("subordinated",)): (0, SUBORDINATED),
    ("gapped", ("neumann", "--lambda", "0,3")): (0, [
        "certificates.neumann.lambda",
        "certificates.neumann.norm_V_resolvent",
        "certificates.neumann.norm_Y",
        "certificates.neumann.product",
        "certificates.neumann.sigma_min_AYV",
        "certificates.neumann.sigma_min_B",
        "flags.holds",
        "residuals",
        "spectra",
        "verdict.decided_by",
        "verdict.margin",
    ]),
    ("gapped", ("relbound",)): (0, RELBOUND),
    # mu = 0 is an eigenvalue of B: every spectral split there is ill-posed
    ("kernel", ("check",)): (2, ERROR),
    ("kernel", ("diagonalize",)): (2, ERROR),
    ("kernel", ("triangularize",)): (2, ERROR),
    ("kernel", ("riccati-solve",)): (2, ERROR),
    ("kernel", ("subordinated",)): (0, SUBORDINATED),
    ("kernel", ("neumann", "--lambda", "0,3")): (2, ERROR),
    ("kernel", ("relbound",)): (0, RELBOUND),
    ("asymmetric", ("subordinated",)): (2, sorted(ERROR + [
        "error.diagnostics.gap",
        "error.diagnostics.inf_spec_A1",
        "error.diagnostics.mu",
        "error.diagnostics.subordinated",
        "error.diagnostics.sup_spec_A0",
    ])),
    ("deep", ("dirac", "--n", "4", "--amplitude", "5")): (2, sorted(ERROR + [
        "error.diagnostics.block_identity_residual",
        "error.diagnostics.inf_spec_A0",
        "error.diagnostics.k_min",
        "error.diagnostics.margin",
        "error.diagnostics.norm_bound",
        "error.diagnostics.subordinated",
        "error.diagnostics.sup_spec_A1",
        "error.diagnostics.u_inf",
    ])),
    (None, ("dirac", "--n", "4")): (0, [
        "certificates.contraction.norm_X",
        "certificates.subordination.block_identity_residual",
        "certificates.subordination.inf_spec_A0",
        "certificates.subordination.k_min",
        "certificates.subordination.margin",
        "certificates.subordination.sup_spec_A1",
        "certificates.subordination.u_inf",
        "flags.kernel_split_ok",
        "residuals.adjointness",
        "residuals.fw_unitarity",
        "residuals.invariance_L",
        "residuals.invariance_L_perp",
        "residuals.offdiag_left",
        "residuals.offdiag_right",
        "residuals.split_identity",
        "residuals.subspace_angle_minus",
        "residuals.subspace_angle_plus",
        "spectra.H",
        "spectra.block_minus",
        "spectra.block_plus",
        "verdict.decided_by",
        "verdict.margin",
    ]),
}


def _key_paths(obj, prefix=""):
    """Dotted paths to the leaves of nested dicts; an empty dict is a leaf."""
    if not isinstance(obj, dict) or not obj:
        return [prefix]
    return [
        path
        for key, value in obj.items()
        for path in _key_paths(value, f"{prefix}.{key}" if prefix else key)
    ]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("shape")
    gapped = random_case(4, 4, gap=1.0, coupling=0.5, seed=0)
    b = gapped.block
    cases = {
        "gapped": gapped,
        "kernel": random_case(4, 4, gap=0.0, coupling=0.5, seed=0, kernel_dim=2),
        "asymmetric": ProblemFile(BlockMatrix(b.A0, b.A1, 1.001 * b.W0, b.W1), mu=gapped.mu),
    }
    for name, problem in cases.items():
        save_problem(root / f"{name}.json", problem)
    return root


@pytest.mark.parametrize(
    "case", list(SHAPES), ids=lambda c: f"{c[0]}-{c[1][0]}" if c[0] else c[1][0]
)
def test_report_key_paths(files, tmp_path, case):
    name, command = case
    out = tmp_path / "report.json"
    path = files / f"{name}.json"
    # a label that names no file, None or "deep" (a deep potential), runs without one
    file_args = [str(path)] if path.exists() else []
    code = main([command[0], *file_args, *command[1:], "--out", str(out)])
    report = json.loads(out.read_text())
    selected = {key: report[key] for key in SECTIONS if key in report}
    assert (code, sorted(_key_paths(selected))) == SHAPES[case]
