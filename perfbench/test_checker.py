"""Tests of the benchmark's own checks: deliberately wrong answers must
fail them, and BENCHMARK.json must list every metric the command prints.

    python3 perfbench/test_checker.py
"""

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import qfam  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def op_named(ops, name):
    return next(op for op in ops if op.name == name)


class LadderChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ops = workloads.ladder_ops(SEED)

    def test_perturbed_comultiplication_fails_coassociativity(self):
        op = op_named(self.ops, "coassociativity cyclic-8")
        sg = op.call.args[0]
        self.assertTrue(op.check(op.call()))
        delta = sg.comultiplication.matrix.copy()
        delta[0, 0] += 1e-6
        perturbed = qfam.QuantumSemigroup(
            sg.algebra, qfam.StarMorphism(sg.algebra, sg.comultiplication.codomain, delta)
        )
        self.assertFalse(op.check(qfam.coassociativity_defect(perturbed)))

    def test_nonassociative_table_expects_defect_one(self):
        op = op_named(self.ops, f"coassociativity nonassociative-{workloads.NONASSOC_ORDER}")
        self.assertTrue(op.check(1.0))
        self.assertFalse(op.check(0.0))

    def test_wrong_expected_rank_fails(self):
        op = op_named(self.ops, f"cancellation-left left-zero-{workloads.LEFT_ZERO_ORDER}")
        rank = op.call()
        self.assertEqual(rank, workloads.LEFT_ZERO_ORDER)
        self.assertTrue(op.check(rank))
        self.assertFalse(workloads.equals(rank + 1)(rank))
        self.assertFalse(op.check(rank + 1))

    def test_podles_rank_must_be_full(self):
        op = op_named(self.ops, "podles-rank M3")
        report = op.call()
        self.assertTrue(op.check(report))
        short = qfam.DensityReport(rank=report.rank - 1, total=report.total, full=False)
        self.assertFalse(op.check(short))

    def test_oracle_ranks_match_closed_forms(self):
        n = 6
        self.assertEqual(oracles.left_cancellation_rank(oracles.cyclic_table(n)), n * n)
        self.assertEqual(oracles.right_cancellation_rank(oracles.cyclic_table(n)), n * n)
        self.assertEqual(oracles.left_cancellation_rank(oracles.left_zero_table(n)), n)
        self.assertEqual(oracles.right_cancellation_rank(oracles.left_zero_table(n)), n * n)
        table, _ = oracles.map_monoid(2)
        self.assertTrue(oracles.is_associative(table))
        self.assertTrue(oracles.is_associative(
            oracles.relabel_table(oracles.cyclic_table(n), np.arange(n)[::-1].copy())))


class DocumentChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.OUT.mkdir(exist_ok=True)
        cls.workdir = Path(tempfile.mkdtemp(prefix="test-", dir=run.OUT))
        cls.ops = workloads.cli_document_ops(SEED, cls.workdir)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir)

    def test_compose_output_with_one_entry_changed_fails(self):
        op = op_named(self.ops, "compose phase-5")
        rc, text = op.call()
        self.assertTrue(op.check((rc, text)))
        doc = json.loads(text)
        doc["result"]["morphism"][3][0][0] += 1e-6
        self.assertFalse(op.check((rc, json.dumps(doc))))

    def test_wrong_exit_code_fails(self):
        op = op_named(self.ops, "check-cancellation left-zero-6")
        rc, text = op.call()
        self.assertEqual(rc, 1)
        self.assertTrue(op.check((rc, text)))
        self.assertFalse(op.check((0, text)))

    def test_known_faults_are_counted_but_keep_the_pass_correct(self):
        faults = [op for op in self.ops if op.known_fault]
        self.assertEqual(len(faults), 2)
        good = op_named(self.ops, "check-podles haar-4")
        answers = [op.call() for op in faults + [good]]
        failed, correct = workloads.judge(faults + [good], answers)
        self.assertTrue(correct)
        self.assertEqual(failed, [op.name for op in faults if not op.check(op.call())])
        failed, correct = workloads.judge([good], [(1, answers[-1][1])])
        self.assertEqual((failed, correct), ([good.name], False))


class BenchmarkFile(unittest.TestCase):
    def test_lists_every_printed_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(tracing.LAYER_METRICS))
        layers = tracing.Tracer(alloc=False).metrics()
        passes = [{"mode": "off", "batch_s": 1.0},
                  {"mode": "spans", "batch_s": 1.1, "layers": layers},
                  {"mode": "alloc", "batch_s": 1.2, "layers": layers}]
        self.assertEqual(list(run.layer_metrics(passes)),
                         [m["name"] for m in spec["per_layer"]])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(run.WORKLOADS, workloads.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
