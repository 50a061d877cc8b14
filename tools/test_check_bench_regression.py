#!/usr/bin/env python3
"""Self-test for tools/check_bench_regression.py on small in-memory reports.

Covers the unit handling (each row is labelled with its own time_unit, and a
tracked row whose unit changed between baseline and new run fails instead of
being compared) and the missing-tracked-row failure.

Run: python3 tools/test_check_bench_regression.py
"""

import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_regression as cbr  # noqa: E402


def row(name, cpu_time, unit):
    return {"name": name, "run_type": "iteration", "cpu_time": cpu_time,
            "time_unit": unit}


def times(*rows):
    doc = {"benchmarks": list(rows)}
    assert cbr.validate_doc(doc, "<memory>") == []
    return cbr.times_from_doc(doc)


def run(base, new, threshold=0.30):
    out, err = io.StringIO(), io.StringIO()
    status = cbr.compare(base, new, threshold, out=out, err=err)
    return status, out.getvalue(), err.getvalue()


ENGINE = "BM_InferenceEngine/8/process_time"
GEMM = "BM_GemmKernel/32/64/128"


class Units(unittest.TestCase):

    def test_ms_row_is_labelled_ms(self):
        base = times(row(ENGINE, 2.5, "ms"), row(GEMM, 9000.0, "ns"))
        status, out, _ = run(base, base)
        self.assertEqual(status, 0)
        self.assertIn(f"{ENGINE}: 2.5 -> 2.5 ms", out)
        self.assertIn(f"{GEMM}: 9000 -> 9000 ns", out)
        self.assertNotIn("2.5 -> 2.5 ns", out)

    def test_tracked_unit_mismatch_fails(self):
        base = times(row(ENGINE, 2.5, "ms"), row(GEMM, 9000.0, "ns"))
        # Same duration written in another unit: a raw comparison would read
        # a 1e6x regression (or pass a real one); the checker must refuse.
        new = times(row(ENGINE, 2.5e6, "ns"), row(GEMM, 9000.0, "ns"))
        status, out, err = run(base, new)
        self.assertEqual(status, 1)
        self.assertIn(f"UNITS    {ENGINE}: baseline in ms, new run in ns", out)
        self.assertIn("changed time_unit", err)
        self.assertNotIn(f"OK        {ENGINE}", out)

    def test_mismatched_rows_stay_out_of_the_scale(self):
        base = times(row(GEMM, 100.0, "ns"), row("BM_Untracked", 1.0, "ms"))
        new = times(row(GEMM, 100.0, "ns"), row("BM_Untracked", 1e6, "ns"))
        status, out, _ = run(base, new)
        self.assertEqual(status, 0)
        self.assertIn("over 1 benchmarks): 1.00x", out)


class MissingRows(unittest.TestCase):

    def test_missing_tracked_row_fails(self):
        base = times(row(ENGINE, 2.5, "ms"), row(GEMM, 9000.0, "ns"))
        new = times(row(GEMM, 9000.0, "ns"))
        status, out, err = run(base, new)
        self.assertEqual(status, 1)
        self.assertIn(f"MISSING  {ENGINE}", out)
        self.assertIn("missing from the new run", err)

    def test_missing_untracked_row_passes(self):
        base = times(row(GEMM, 9000.0, "ns"), row("BM_Untracked", 1.0, "ms"))
        new = times(row(GEMM, 9000.0, "ns"))
        status, _, _ = run(base, new)
        self.assertEqual(status, 0)


if __name__ == "__main__":
    unittest.main()
