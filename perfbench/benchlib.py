"""Helpers for perfbench/run.py: statistics, the HTTP client, the
open-loop generator, /metrics.json scraping and result decoding.

Kept free of process management so test_benchlib.py can exercise each
piece against fixed inputs or a fake server.
"""

import json
import math
import queue
import socket
import threading
import time

XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"

# Percentiles the tail metric may be reported at, lowest first.
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


# ---------------------------------------------------------------------------
# Statistics.

def percentile(values, p):
    """Linear-interpolated percentile `p` (0-100) of `values`."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    pos = (len(s) - 1) * p / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def samples_beyond(n, p):
    """How many of `n` samples lie above percentile `p`."""
    return round(n * (100.0 - p) / 100.0, 6)


def tail_percentile(n, min_beyond=10, candidates=TAIL_CANDIDATES):
    """The highest candidate percentile with at least `min_beyond` of `n`
    samples above it, or None when even the median has fewer."""
    best = None
    for p in candidates:
        if samples_beyond(n, p) >= min_beyond:
            best = p
    return best


def geomean(values):
    """Geometric mean of positive values."""
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values):
    return percentile(values, 50.0)


def window_slices(values, times, span, windows):
    """`values` grouped by which of `windows` equal slices of `span`
    (start, end) their time falls in; outside the span, the nearest."""
    start, end = span
    width = (end - start) / windows
    slices = [[] for _ in range(windows)]
    for v, t in zip(values, times):
        k = int((t - start) / width) if width > 0 else 0
        slices[min(max(k, 0), windows - 1)].append(v)
    return slices


def window_percentiles(values, times, span, p, windows):
    """Percentile `p` of the values whose time falls in each of `windows`
    equal slices of `span` (start, end). Values outside the span count in
    the nearest slice; empty slices are skipped."""
    return [percentile(s, p)
            for s in window_slices(values, times, span, windows) if s]


# ---------------------------------------------------------------------------
# HTTP.

class Conn:
    """One keep-alive HTTP/1.1 connection with TCP_NODELAY; reconnects
    after an error. Each request goes out in one sendall() and the
    response is read by Content-Length, so the calling thread holds the
    GIL only briefly per request."""

    def __init__(self, port, host="127.0.0.1", timeout=60.0):
        self.host, self.port, self.timeout = host, port, timeout
        self._sock = None
        self._buf = b""

    def request(self, method, path, body=b""):
        """Returns (status, body bytes); status -1 on a transport error."""
        if isinstance(body, str):
            body = body.encode()
        head = ("%s %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n\r\n"
                % (method, path, self.host, len(body))).encode()
        try:
            if self._sock is None:
                self._sock = socket.create_connection((self.host, self.port),
                                                      self.timeout)
                self._sock.setsockopt(socket.IPPROTO_TCP,
                                      socket.TCP_NODELAY, 1)
                self._buf = b""
            self._sock.sendall(head + body)
            return self._read_response()
        except (OSError, ValueError):
            self.close()
            return -1, b""

    def _read_response(self):
        buf = self._buf
        while True:
            end = buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            chunk = self._sock.recv(65536)
            if not chunk:
                raise OSError("connection closed")
            buf += chunk
        lines = buf[:end].split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length, close = 0, False
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection" and value.strip().lower() == b"close":
                close = True
        start = end + 4
        parts = [buf[start:start + length]]
        have = len(parts[0])
        while have < length:
            chunk = self._sock.recv(min(length - have, 1 << 20))
            if not chunk:
                raise OSError("connection closed")
            parts.append(chunk)
            have += len(chunk)
        self._buf = buf[start + length:] if len(parts) == 1 else b""
        if close:
            self.close()
        return status, b"".join(parts)

    def query(self, sparql):
        return self.request("POST", "/query", sparql)

    def close(self):
        if self._sock is not None:
            self._sock.close()
            self._sock = None


# ---------------------------------------------------------------------------
# Open loop.

class OpenLoop:
    """Sends requests on a fixed schedule regardless of completions.

    One scheduler thread releases request i at `start + i / rate` into
    the queue of its lane (`desc.lane`, default 0), each lane drained by
    one worker thread owning one connection. Latency runs from the due
    time, so a stall also charges every request queued behind it; how far
    behind its due time a request was actually sent is its lateness.
    """

    def __init__(self, rate, lanes, make_conn, next_request, on_done):
        self.rate = float(rate)
        self.make_conn = make_conn        # () -> Conn
        self.next_request = next_request  # i -> request descriptor
        self.on_done = on_done            # (desc, status, body, due, sent, end)
        self._queues = [queue.Queue() for _ in range(lanes)]

    def run(self, seconds, grace=1.0):
        """Blocks for `seconds`, then up to `grace` more while the queues
        drain. Returns (issued, unsent): requests released, and those
        still queued after the grace period (never sent)."""
        workers = [threading.Thread(target=self._worker, args=(q,),
                                    daemon=True) for q in self._queues]
        for w in workers:
            w.start()
        start = time.monotonic()
        issued = 0
        while True:
            due = start + issued / self.rate
            if due >= start + seconds:
                break
            wait = due - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            desc = self.next_request(issued)
            lane = getattr(desc, "lane", 0) % len(self._queues)
            self._queues[lane].put((desc, due))
            issued += 1
        deadline = time.monotonic() + grace
        while (any(not q.empty() for q in self._queues)
               and time.monotonic() < deadline):
            time.sleep(0.001)
        unsent = 0
        for q in self._queues:
            while True:
                try:
                    q.get_nowait()
                    unsent += 1
                except queue.Empty:
                    break
            q.put(None)
        for w in workers:
            w.join()
        return issued, unsent

    def _worker(self, q):
        conn = self.make_conn()
        try:
            while True:
                item = q.get()
                if item is None:
                    return
                desc, due = item
                sent = time.monotonic()
                status, body = desc.send(conn)
                end = time.monotonic()
                self.on_done(desc, status, body, due, sent, end)
        finally:
            conn.close()


# ---------------------------------------------------------------------------
# /metrics.json.

class Scrape:
    """One /metrics.json document (schema v2)."""

    def __init__(self, text):
        doc = json.loads(text)
        self.counters = doc.get("counters", {})
        self.gauges = doc.get("gauges", {})
        self.histograms = doc.get("histograms", {})

    def value(self, name, default=0):
        if name in self.counters:
            return self.counters[name]
        return self.gauges.get(name, default)

    def hist(self, name, field, default=0.0):
        return self.histograms.get(name, {}).get(field, default)


def ratio(num, den):
    return float(num) / den if den else 0.0


def scraped_layer_metrics(scrape, read_p50_ms, write_triples):
    """Per-layer metrics read from the server's own counters at the end of
    a run. `read_p50_ms` is the client's /query median and
    `write_triples` the triples /insert and /erase acknowledged."""
    v = scrape.value
    hits = v("hexa_plan_cache_hits")
    misses = v("hexa_plan_cache_misses")
    staged = v("hexa_delta_staged_ops_total")
    handle_p50_ns = scrape.hist("hexa_server_request_latency_ns", "p50_ns")
    return {
        "plan_cache.hit_rate": ratio(hits, hits + misses),
        "plan_cache.evictions": v("hexa_plan_cache_evictions"),
        "plan_cache.invalidations": v("hexa_plan_cache_invalidations"),
        "server.handle_share": ratio(handle_p50_ns, read_p50_ms * 1e6),
        "server.rejected": v("hexa_server_rejected"),
        "server.deadline_exceeded": v("hexa_server_deadline_exceeded"),
        "delta.compactions": v("hexa_delta_compactions_total"),
        "delta.seals": v("hexa_delta_seals_total"),
        "delta.folds": v("hexa_delta_l0_merges_total"),
        "delta.base_merges": v("hexa_delta_base_merges_total"),
        "delta.seal_overflows": v("hexa_delta_seal_overflows_total"),
        "delta.base_merge_ms_max":
            scrape.hist("hexa_base_merge_latency_ns", "max_ns") / 1e6,
        "delta.write_amp": ratio(
            v("hexa_delta_merge_run_ops_total")
            + v("hexa_delta_base_rebuild_triples_total"), staged),
        "filter.skip_rate": ratio(v("hexa_filter_skips_total"),
                                  v("hexa_filter_probes_total")),
        "wal.bytes_per_triple": ratio(v("hexa_wal_appended_bytes"),
                                      write_triples),
        "wal.fsyncs": v("hexa_wal_fsyncs_total"),
        "wal.fsync_us_p99":
            scrape.hist("hexa_wal_fsync_latency_ns", "p99_ns") / 1e3,
        "wal.checkpoints": v("hexa_wal_checkpoints_total"),
        "wal.checkpoint_ms_max":
            scrape.hist("hexa_wal_checkpoint_latency_ns", "max_ns") / 1e6,
    }


# ---------------------------------------------------------------------------
# SPARQL JSON results -> canonical rows.

def _escape(lexical):
    return (lexical.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t"))


def term_of(binding):
    """A W3C SPARQL JSON term as its N-Triples spelling; xsd:integer
    literals (COUNT results) as ints."""
    kind, value = binding["type"], binding["value"]
    if kind == "uri":
        return "<" + value + ">"
    if kind == "bnode":
        return "_:" + value
    if "xml:lang" in binding:
        return '"' + _escape(value) + '"@' + binding["xml:lang"]
    datatype = binding.get("datatype")
    if datatype == XSD_INTEGER:
        return int(value)
    if datatype:
        return '"' + _escape(value) + '"^^<' + datatype + ">"
    return '"' + _escape(value) + '"'


def rows_of(body, template):
    """Rows of a SELECT response shaped by `template`: each element is a
    "?var" taken from the binding or a constant N-Triples term."""
    doc = json.loads(body)
    rows = []
    for b in doc["results"]["bindings"]:
        rows.append(tuple(term_of(b[t[1:]]) if t.startswith("?") else t
                          for t in template))
    return rows


def combine(query, bodies):
    """Folds one paper query's response bodies into its canonical result
    (sorted list of rows), the shape of the hand-coded oracle."""
    parts = [rows_of(body, req["row"])
             for body, req in zip(bodies, query["requests"])]
    mode = query["combine"]
    if mode == "union":
        out = set()
        for rows in parts:
            out.update(rows)
    elif mode == "popular":
        # Candidate (p, o) pairs, kept when store-wide popularity > 1.
        counts = {(p, o): n for p, o, n in parts[1]}
        out = {(p, o, counts[(p, o)]) for p, o in parts[0]
               if counts.get((p, o), 0) > 1}
    elif mode == "freq_union":
        # Known-subject frequencies plus those of inferred subjects not
        # already known.
        freq = dict(parts[0])
        known = {row[0] for row in parts[2]}
        for s, p, n in parts[1]:
            if s not in known:
                freq[p] = freq.get(p, 0) + n
        out = set(freq.items())
    else:
        raise ValueError("unknown combine mode " + mode)
    return sorted(out, key=repr)


def canonical_oracle(query):
    return sorted((tuple(r) for r in query["oracle"]), key=repr)
