"""Tests for the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import http.server
import json
import os
import sys
import threading
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib as bl  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_highest_with_ten_beyond(self):
        self.assertEqual(bl.tail_percentile(10000), 99.9)
        self.assertEqual(bl.tail_percentile(1000), 99.0)
        self.assertEqual(bl.tail_percentile(999), 95.0)
        self.assertEqual(bl.tail_percentile(200), 95.0)
        self.assertEqual(bl.tail_percentile(100), 90.0)
        self.assertEqual(bl.tail_percentile(40), 75.0)
        self.assertEqual(bl.tail_percentile(20), 50.0)

    def test_too_few_samples(self):
        self.assertIsNone(bl.tail_percentile(19))
        self.assertIsNone(bl.tail_percentile(0))

    def test_min_beyond_is_a_parameter(self):
        self.assertEqual(bl.tail_percentile(1000, min_beyond=100), 90.0)


class StatisticsTest(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(bl.geomean([1.0, 100.0]), 10.0)
        self.assertAlmostEqual(bl.geomean([2.0, 8.0, 4.0]), 4.0)
        self.assertAlmostEqual(bl.geomean([3.5]), 3.5)

    def test_geomean_rejects_empty_and_nonpositive(self):
        with self.assertRaises(ValueError):
            bl.geomean([])
        with self.assertRaises(ValueError):
            bl.geomean([1.0, 0.0])

    def test_percentile_interpolates(self):
        self.assertEqual(bl.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(bl.percentile([4, 1, 3, 2], 0), 1)
        self.assertEqual(bl.percentile([4, 1, 3, 2], 100), 4)
        self.assertAlmostEqual(bl.percentile(range(101), 99), 99.0)

    def test_windowed_percentile_ignores_one_burst(self):
        times = [i / 100.0 for i in range(500)]           # 5 s
        values = [1.0 if t < 4.0 else 50.0 for t in times]  # last 1 s bursts
        self.assertEqual(bl.percentile(values, 90), 50.0)
        self.assertEqual(bl.median(
            bl.window_percentiles(values, times, (0.0, 5.0), 90, 5)), 1.0)


class FakeServer:
    """Loopback HTTP/1.1 server answering POSTs at once, except that the
    request numbered `stall_at` sleeps `stall_s` first."""

    def __init__(self, stall_at, stall_s):
        count = {"n": 0}
        lock = threading.Lock()

        class Handler(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                with lock:
                    count["n"] += 1
                    n = count["n"]
                if n == stall_at:
                    threading.Event().wait(stall_s)
                body = b'{"ok":true}'
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self.httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0),
                                                     Handler)
        self.port = self.httpd.server_address[1]
        self.thread = threading.Thread(target=self.httpd.serve_forever)
        self.thread.start()

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join()


class Req:
    def __init__(self, i, lane=0):
        self.i, self.lane = i, lane

    def send(self, conn):
        return conn.request("POST", "/query", "q%d" % self.i)


class OpenLoopTest(unittest.TestCase):
    def test_stall_inflates_latency_of_queued_requests(self):
        rate, stall = 50.0, 0.4
        server = FakeServer(stall_at=3, stall_s=stall)
        done = {}
        lock = threading.Lock()

        def on_done(desc, status, body, due, sent, end):
            with lock:
                done[desc.i] = (status, due, sent, end)

        try:
            loop = bl.OpenLoop(rate, 1, lambda: bl.Conn(server.port), Req,
                               on_done)
            issued, unsent = loop.run(0.5, grace=2.0)
        finally:
            server.close()
        self.assertEqual(issued, 25)
        self.assertEqual(unsent, 0)
        self.assertEqual(len(done), 25)
        self.assertTrue(all(v[0] == 200 for v in done.values()))
        # Request 2 (the third) stalls; request 3 was due 20 ms later but
        # could only be sent once the stall ended, and the due-time
        # latency charges it the wait.
        _, due, sent, end = done[3]
        self.assertGreater(sent - due, stall - 0.1)
        self.assertGreater(end - due, stall - 0.1)
        self.assertLess(end - sent, stall / 2)  # service time alone is short
        # Every request due during the stall inherits part of it.
        for i in range(3, 3 + int(stall * rate) - 2):
            self.assertGreater(done[i][3] - done[i][1], 0.05, i)
        # Requests before the stall are unaffected.
        self.assertLess(done[0][3] - done[0][1], stall / 2)

    def test_stall_in_one_lane_spares_the_other(self):
        server = FakeServer(stall_at=1, stall_s=0.4)
        done = {}

        def on_done(desc, status, body, due, sent, end):
            done[desc.i] = (desc.lane, end - due)

        try:
            # Request 0 (lane 1) stalls; even requests run in lane 0.
            loop = bl.OpenLoop(50.0, 2, lambda: bl.Conn(server.port),
                               lambda i: Req(i, lane=0 if i % 2 else 1),
                               on_done)
            loop.run(0.3, grace=2.0)
        finally:
            server.close()
        lane0 = [lat for lane, lat in done.values() if lane == 0]
        lane1 = [lat for i, (lane, lat) in done.items() if lane == 1 and i]
        self.assertTrue(lane0 and lane1)
        self.assertLess(max(lane0), 0.2)
        self.assertGreater(min(lane1), 0.1)

    def test_unsent_requests_are_counted(self):
        server = FakeServer(stall_at=1, stall_s=1.0)
        try:
            loop = bl.OpenLoop(100.0, 1, lambda: bl.Conn(server.port), Req,
                               lambda *a: None)
            issued, unsent = loop.run(0.2, grace=0.1)
        finally:
            server.close()
        self.assertEqual(issued, 20)
        self.assertGreater(unsent, 10)


# A trimmed /metrics.json (schema v2) as hexastore_server renders it.
SAMPLE = {
    "version": 2,
    "counters": {
        "hexa_plan_cache_hits": 300, "hexa_plan_cache_misses": 100,
        "hexa_plan_cache_evictions": 42, "hexa_plan_cache_invalidations": 5,
        "hexa_server_rejected": 1, "hexa_server_deadline_exceeded": 0,
        "hexa_delta_compactions_total": 4, "hexa_delta_seals_total": 0,
        "hexa_delta_l0_merges_total": 0, "hexa_delta_base_merges_total": 4,
        "hexa_delta_seal_overflows_total": 0,
        "hexa_delta_merge_run_ops_total": 1000,
        "hexa_delta_base_rebuild_triples_total": 9000,
        "hexa_delta_staged_ops_total": 5000,
        "hexa_filter_probes_total": 200, "hexa_filter_skips_total": 150,
        "hexa_wal_fsyncs_total": 12, "hexa_wal_checkpoints_total": 3,
    },
    "gauges": {"hexa_delta_size_triples": 250000,
               "hexa_wal_appended_bytes": 64000},
    "histograms": {
        "hexa_server_request_latency_ns": {
            "count": 10, "sum_ns": 1, "max_ns": 9, "sample_shift": 0,
            "p50_ns": 400000.0, "p90_ns": 1.0, "p99_ns": 1.0,
            "p999_ns": 1.0, "buckets": []},
        "hexa_base_merge_latency_ns": {"max_ns": 250000000,
                                       "p99_ns": 1.0},
        "hexa_wal_fsync_latency_ns": {"max_ns": 1, "p99_ns": 1500.0},
        "hexa_wal_checkpoint_latency_ns": {"max_ns": 7000000,
                                           "p99_ns": 1.0},
    },
    "trace": None,
    "slow_queries": None,
}


class ScrapeTest(unittest.TestCase):
    def test_layer_metrics_from_fixed_sample(self):
        s = bl.Scrape(json.dumps(SAMPLE))
        self.assertEqual(s.value("hexa_delta_size_triples"), 250000)
        self.assertEqual(s.value("absent"), 0)
        m = bl.scraped_layer_metrics(s, read_p50_ms=0.8, write_triples=3200)
        self.assertAlmostEqual(m["plan_cache.hit_rate"], 0.75)
        self.assertEqual(m["plan_cache.evictions"], 42)
        self.assertEqual(m["plan_cache.invalidations"], 5)
        self.assertAlmostEqual(m["server.handle_share"], 0.5)
        self.assertEqual(m["server.rejected"], 1)
        self.assertEqual(m["delta.base_merges"], 4)
        self.assertAlmostEqual(m["delta.base_merge_ms_max"], 250.0)
        self.assertAlmostEqual(m["delta.write_amp"], 2.0)
        self.assertAlmostEqual(m["filter.skip_rate"], 0.75)
        self.assertAlmostEqual(m["wal.bytes_per_triple"], 20.0)
        self.assertEqual(m["wal.fsyncs"], 12)
        self.assertAlmostEqual(m["wal.fsync_us_p99"], 1.5)
        self.assertEqual(m["wal.checkpoints"], 3)
        self.assertAlmostEqual(m["wal.checkpoint_ms_max"], 7.0)

    def test_empty_registry_reads_as_zero(self):
        m = bl.scraped_layer_metrics(bl.Scrape("{}"), read_p50_ms=1.0,
                                     write_triples=0)
        self.assertEqual(m["plan_cache.hit_rate"], 0.0)
        self.assertEqual(m["wal.bytes_per_triple"], 0.0)


def body(vars_, rows):
    return json.dumps({"head": {"vars": vars_}, "results": {"bindings": [
        dict(zip(vars_, r)) for r in rows]}}).encode()


def uri(v):
    return {"type": "uri", "value": v}


def count(n):
    return {"type": "literal", "value": str(n), "datatype": bl.XSD_INTEGER}


class DecodeTest(unittest.TestCase):
    def test_terms(self):
        self.assertEqual(bl.term_of(uri("http://a")), "<http://a>")
        self.assertEqual(bl.term_of({"type": "literal", "value": 'x"y'}),
                         '"x\\"y"')
        self.assertEqual(bl.term_of({"type": "literal", "value": "chat",
                                     "xml:lang": "fr"}), '"chat"@fr')
        self.assertEqual(bl.term_of(count(7)), 7)
        self.assertEqual(bl.term_of({"type": "bnode", "value": "b0"}),
                         "_:b0")

    def test_combine_modes(self):
        union = {"combine": "union", "requests": [
            {"row": ["<s>", "?p", "?o"]}, {"row": ["?s", "?p", "<s>"]}]}
        got = bl.combine(union, [body(["p", "o"], [[uri("p"), uri("o")]]),
                                 body(["s", "p"], [[uri("x"), uri("p")]])])
        self.assertEqual(got, sorted([("<s>", "<p>", "<o>"),
                                      ("<x>", "<p>", "<s>")], key=repr))
        popular = {"combine": "popular", "requests": [
            {"row": ["?p", "?o"]}, {"row": ["?p", "?o", "?n"]}]}
        got = bl.combine(popular, [
            body(["p", "o"], [[uri("p"), uri("a")], [uri("p"), uri("b")]]),
            body(["p", "o", "n"], [[uri("p"), uri("a"), count(3)],
                                   [uri("p"), uri("b"), count(1)],
                                   [uri("p"), uri("c"), count(9)]])])
        self.assertEqual(got, [("<p>", "<a>", 3)])
        freq = {"combine": "freq_union", "requests": [
            {"row": ["?p", "?n"]}, {"row": ["?s", "?p", "?n"]},
            {"row": ["?s"]}]}
        got = bl.combine(freq, [
            body(["p", "n"], [[uri("p"), count(2)]]),
            body(["s", "p", "n"], [[uri("k"), uri("p"), count(5)],
                                   [uri("i"), uri("p"), count(1)],
                                   [uri("i"), uri("q"), count(4)]]),
            body(["s"], [[uri("k")]])])
        self.assertEqual(got, sorted([("<p>", 3), ("<q>", 4)], key=repr))


if __name__ == "__main__":
    unittest.main()
