"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

* A smoke pass of every workload at tiny sizes through the untraced and
  the traced run, checking the result line against ``BENCHMARK.json``.
* Output checks that must fail: a wrong X, a wrong report, a wrong exit
  code, a raising call.
* Outside a full checkout (no ``src/``) the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


class SmokeTest(unittest.TestCase):
    def test_every_workload_both_runs(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(WORKLOADS), sorted(w["name"] for w in spec["workloads"]))
        for name in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    done = bench("--workload", name, "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace), "--size", "tiny")
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"}
                    )
                    self.assertTrue(result["correct"], done.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in spec[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_outside_checkout_fails_without_result(self):
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            done = bench("--workload", "theorem", "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=tmp)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)


class FailingCheckTest(unittest.TestCase):
    """Each output check must be able to fail."""

    def one_pass(self, name, workdir):
        workload = WORKLOADS[name]("tiny")
        inputs = workload.generate(0, workdir)
        ref = workload.reference(inputs)
        _, messages, outputs = run.run_pass(workload, inputs, ref, None, "pass0")
        self.assertEqual(messages, [None] * len(outputs))
        return workload, ref, outputs

    def test_wrong_x(self):
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            theorem, ref, (result,) = self.one_pass("theorem", tmp)
            wrong = dataclasses.replace(result, X=result.X + 1e-6)
            self.assertIn("X vs eigh reference", theorem.check(wrong, ref))
            newton, ref, ((x, trace),) = self.one_pass("newton", tmp)
            self.assertIn("X vs eigh reference", newton.check((x + 1e-6, trace), ref))

    def test_wrong_dirac_angle(self):
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            dirac, ref, (result,) = self.one_pass("dirac", tmp)
            wrong = dataclasses.replace(result, angle_minus=1e-3)
            self.assertIn("angle_minus", dirac.check(wrong, ref))

    def test_wrong_report_and_exit_code(self):
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            cli, ref, outputs = self.one_pass("cli", tmp)
            command, code, out = outputs[0]
            self.assertIn("exit code", cli.check((command, 1, out), ref))
            report = json.loads(Path(out).read_text())
            report["residuals"]["riccati_x0"] = 1e-3
            Path(out).write_text(json.dumps(report))
            self.assertIn("riccati_x0", cli.check(outputs[0], ref))

    def test_raising_call_fails(self):
        class Raising(WORKLOADS["theorem"]):
            def prepare(self, inputs):
                return [lambda: 1 / 0]

        workload = Raising("tiny")
        _, messages, _ = run.run_pass(workload, None, None, None, "pass0")
        self.assertTrue(messages[0].startswith("raised ZeroDivisionError"))


if __name__ == "__main__":
    (HERE / "out").mkdir(exist_ok=True)
    unittest.main()
