"""Tests of run.py: output parsing and the host-fingerprint comparison."""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402

HOST = {"cpu_model": "Intel(R) Xeon(R) Processor", "nproc": 4,
        "isa": "sse2 sse4.2 avx avx2 fma avx512f avx512bw avx512vl",
        "l1d_kib": 48, "l2_kib": 2048, "l3_kib": 307200,
        "kernel_backend": "avx512", "build_type": "Release"}
RESULT = {"correct": True, "attempted": 35, "failed": 0,
          "metrics": {"throughput_fps": {"value": 3.5, "unit": "1/s"}}}


def output(host=HOST, result=RESULT):
    return "\n".join([json.dumps({"host": host}),
                      json.dumps({"detail": {"workload": "flow_540p"}}),
                      json.dumps(result)]) + "\n"


class ParseOutput(unittest.TestCase):
    def test_splits_host_detail_and_result(self):
        host, detail, result = run.parse_output(output())
        self.assertEqual(host, HOST)
        self.assertEqual(detail["workload"], "flow_540p")
        self.assertEqual(result, RESULT)

    def test_rejects_a_last_line_that_is_not_a_result(self):
        with self.assertRaises(ValueError):
            run.parse_output(json.dumps({"host": HOST}) + "\n")
        with self.assertRaises(ValueError):
            run.parse_output("")


class HostComparison(unittest.TestCase):
    def write(self, directory, name, host):
        path = Path(directory) / name
        path.write_text(json.dumps({"host": host, "detail": {}, "result": RESULT}))
        return str(path)

    def test_same_host_compares(self):
        self.assertEqual(run.host_mismatches(HOST, dict(HOST)), [])
        with tempfile.TemporaryDirectory() as d:
            self.assertEqual(run.compare(self.write(d, "a", HOST),
                                         self.write(d, "b", HOST)), 0)

    def test_different_host_is_flagged(self):
        other = dict(HOST, nproc=8, kernel_backend="avx2")
        diff = run.host_mismatches(HOST, other)
        self.assertEqual(len(diff), 2)
        self.assertTrue(any(d.startswith("nproc") for d in diff))
        with tempfile.TemporaryDirectory() as d:
            self.assertEqual(run.compare(self.write(d, "a", HOST),
                                         self.write(d, "b", other)), 3)

    def test_missing_fingerprint_is_flagged(self):
        self.assertNotEqual(run.host_mismatches(HOST, None), [])
        self.assertNotEqual(run.host_mismatches({}, HOST), [])


if __name__ == "__main__":
    unittest.main()
