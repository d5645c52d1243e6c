"""Self-tests of the benchmark's own readouts (perfbench/pblib.py).

  python3 -m unittest discover -s perfbench/tests
  python3 perfbench/run.py --self-test     (also runs the C++ oracle test)
"""

import math
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir))
import pblib  # noqa: E402


def span(id_, name, start, end, parent, tid=0):
    return {"id": id_, "name": name, "start": start, "end": end,
            "tid": tid, "parent": parent}


class NearestRankTest(unittest.TestCase):
    def test_ranks(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(pblib.nearest_rank(values, 50), 50)
        self.assertEqual(pblib.nearest_rank(values, 99), 99)
        self.assertEqual(pblib.nearest_rank(values, 100), 100)
        self.assertEqual(pblib.nearest_rank(values, 0.5), 1)

    def test_rank_rounds_up(self):
        # rank ceil(0.5 * 5) = 3 -> the third smallest.
        self.assertEqual(pblib.nearest_rank([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(pblib.nearest_rank([7], 99), 7)

    def test_empty_and_bad_percentile(self):
        self.assertIsNone(pblib.nearest_rank([], 50))
        with self.assertRaises(ValueError):
            pblib.nearest_rank([1], 0)

    def test_readout_counts_samples_and_hides_thin_tails(self):
        few = pblib.readout(list(range(500)))
        self.assertEqual(few["n"], 500)
        self.assertEqual(few["p50"], 249)
        self.assertIsNone(few["p99"])  # only 5 samples beyond p99
        enough = pblib.readout(list(range(1000)))
        self.assertEqual(enough["n"], 1000)
        self.assertEqual(enough["p99"], 989)
        self.assertEqual(pblib.readout([])["n"], 0)


class SelfTimeTest(unittest.TestCase):
    def test_children_subtracted_and_remainder_explicit(self):
        nodes = [
            span(0, "op", 0, 100, -1),
            span(1, "a", 10, 30, 0),
            span(2, "b", 20, 50, 0),   # overlaps a: union covers 10..50
            span(3, "c", 12, 14, 1),
        ]
        rows, roots = pblib.self_time_table(nodes)
        self.assertEqual(roots, 1)
        by_path = {r["path"]: r for r in rows}
        self.assertEqual(by_path[("op",)]["self"], 60)  # unattributed
        self.assertEqual(by_path[("op", "a")]["self"], 18)
        self.assertEqual(by_path[("op", "a", "c")]["self"], 2)
        self.assertEqual(by_path[("op", "b")]["self"], 30)
        self.assertEqual([r["path"] for r in rows],
                         [("op",), ("op", "a"), ("op", "a", "c"),
                          ("op", "b")])

    def test_roots_aggregate_by_path(self):
        nodes = [span(0, "op", 0, 10, -1), span(1, "x", 0, 4, 0),
                 span(2, "op", 20, 40, -1), span(3, "x", 25, 30, 2),
                 span(4, "y", 30, 32, 2)]
        rows, roots = pblib.self_time_table(nodes)
        self.assertEqual(roots, 2)
        by_path = {r["path"]: r for r in rows}
        self.assertEqual(by_path[("op",)]["total"], 30)
        self.assertEqual(by_path[("op",)]["self"], 30 - 4 - 5 - 2)
        self.assertEqual(by_path[("op", "x")]["calls"], 2)
        self.assertEqual(by_path[("op", "x")]["total"], 9)
        text = pblib.render_table(rows, roots, unit="us", scale=1.0)
        self.assertIn("unattributed", text)

    def test_child_outside_parent_is_clipped(self):
        rows, _ = pblib.self_time_table(
            [span(0, "op", 0, 10, -1), span(1, "late", 8, 15, 0)])
        self.assertEqual({r["path"]: r["self"] for r in rows}[("op",)], 8)

    def test_program_spans_nest_by_containment(self):
        nodes = [
            span(0, "op", 0, 100, -1),
            span(1, "assoc.mine", 10, 90, 0),
            span("p0", "assoc/fp_growth/mine", 11, 89, None),
            span("p1", "assoc/fp_growth/grow", 20, 80, None),
            span("p2", "worker", 30, 40, None, tid=7),
        ]
        pblib.infer_parents(nodes)
        parents = {n["id"]: n["parent"] for n in nodes}
        self.assertEqual(parents["p0"], 1)
        self.assertEqual(parents["p1"], "p0")
        self.assertEqual(parents["p2"], -1)  # other thread: its own root
        rows, _ = pblib.self_time_table(nodes)
        self.assertAlmostEqual(pblib.sum_named(
            rows, {"assoc.mine", "assoc/fp_growth/grow"}), 80)


class DumpTest(unittest.TestCase):
    DUMP = "\n".join([
        "# TYPE dmt_serve_requests counter",
        "dmt_serve_requests 10",
        "# TYPE dmt_serve_latency_total_us histogram",
        'dmt_serve_latency_total_us_bucket{le="5"} 2',
        'dmt_serve_latency_total_us_bucket{le="18"} 5',
        'dmt_serve_latency_total_us_bucket{le="+Inf"} 10',
        "dmt_serve_latency_total_us_sum 400",
        "dmt_serve_latency_total_us_count 10",
    ])

    def test_histogram_readout(self):
        dump = pblib.parse_prometheus(self.DUMP)
        self.assertEqual(dump["values"]["dmt_serve_requests"], 10)
        hist = dump["histograms"]["dmt_serve_latency_total_us"]
        self.assertEqual(pblib.hist_percentile(hist, 20), 5)
        self.assertEqual(pblib.hist_percentile(hist, 50), 18)
        self.assertEqual(pblib.hist_percentile(hist, 90), math.inf)
        self.assertEqual(pblib.hist_mean(hist), 40)
        self.assertEqual(pblib.hist_percentile(None, 50), 0.0)

    def test_steal_share(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "stat")
            with open(path, "w") as f:
                f.write("cpu  100 0 50 800 10 0 0 40 0 0\n")
            before = pblib.read_proc_stat(path)
            with open(path, "w") as f:
                f.write("cpu  200 0 100 1600 20 0 0 80 0 0\n")
            after = pblib.read_proc_stat(path)
        self.assertEqual(before, (40, 1000))
        self.assertAlmostEqual(pblib.steal_share(before, after), 0.04)


if __name__ == "__main__":
    unittest.main()
