"""Self-tests of the benchmark itself (not of treecalc).

    python3 bench/selftest.py

They run the benchmark's children, so they take about a minute.  The
file is not named ``test_*.py`` on purpose: the repository's test suite
does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402

SEED = 1
TIMEOUT_S = 170.0
# Work counters and ratios; they must not depend on timing.
EXACT_SUFFIXES = (".calls", ".items", ".trees", ".passes", ".ops", ".hit_ratio", ".useful_ratio")


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S + 10,
    )


class FaultInjection(unittest.TestCase):
    def test_wrong_polynomial_is_a_failure_not_a_crash(self):
        payload = json.dumps(inputs.make_inputs("hook-levels", SEED)).encode()
        plain = run._repetition("hook-levels", payload, False, None, TIMEOUT_S)
        faulty = run._repetition("hook-levels", payload, False, "qhook_imaj", TIMEOUT_S)
        for record in (plain, faulty):
            self.assertNotIn("crashed", record)
        self.assertEqual(plain["failed"], 0, plain["failures"])
        # one wrong shape, and every operation still ran
        self.assertEqual(faulty["failed"], 1)
        self.assertEqual(faulty["attempted"], plain["attempted"])
        self.assertTrue(faulty["failures"][0][0].startswith("hook formulas"))
        self.assertNotEqual(faulty["outcomes"], plain["outcomes"])


class TracedRuns(unittest.TestCase):
    """At one seed, tracing changes no outcome and no count."""

    def test_outcomes_and_counts_repeat(self):
        for workload in inputs.WORKLOADS:
            with self.subTest(workload=workload):
                payload = json.dumps(inputs.make_inputs(workload, SEED)).encode()
                plain = run._repetition(workload, payload, False, None, TIMEOUT_S)
                first = run._repetition(workload, payload, True, None, TIMEOUT_S)
                second = run._repetition(workload, payload, True, None, TIMEOUT_S)
                for record in (plain, first, second):
                    self.assertNotIn("crashed", record)
                    self.assertEqual(record["failed"], 0, record["failures"])
                self.assertEqual(plain["outcomes"], first["outcomes"])
                self.assertEqual(first["outcomes"], second["outcomes"])
                exact = [name for name in first["layers"] if name.endswith(EXACT_SUFFIXES)]
                self.assertIn("identities.ops", exact)
                for name in exact:
                    self.assertEqual(first["layers"][name], second["layers"][name], name)


class Contract(unittest.TestCase):
    def test_benchmark_json_names_every_workload(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(inputs.WORKLOADS))

    def test_inputs_follow_the_seed(self):
        for workload in inputs.WORKLOADS:
            same = inputs.digest(inputs.make_inputs(workload, SEED))
            self.assertEqual(same, inputs.digest(inputs.make_inputs(workload, SEED)))
        for workload in ("hook-levels", "word-algebras", "series-expansions"):
            self.assertNotEqual(
                inputs.digest(inputs.make_inputs(workload, SEED)),
                inputs.digest(inputs.make_inputs(workload, SEED + 1)),
            )

    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory(prefix=".selftest-", dir=ROOT) as tmp:
            alone = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", alone)
            shutil.copytree(BENCH, alone / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            done = _bench(
                "--workload", "tree-sums", "--seed", str(SEED), "--seconds", "1", "--trace", "0",
                cwd=alone,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
