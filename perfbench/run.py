#!/usr/bin/env python3
"""The repository benchmark: hexastore_server driven over loopback HTTP.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the server and perfbench_tool from source (Release) into
.bench_build/, generates the workload's inputs from the seed, starts
hexastore_server as a child process configured only through HEXA_*
variables (defaults except port, data file and WAL dir), drives it from
this one process with at most three connections, checks every answer
against an oracle, and prints one JSON object as the last line of stdout.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones (scraped server counters, client spans and the traced
in-process probes of perfbench_tool). README.md in this directory has
the workloads, metrics and predictions.

Exit codes: 0 all checks passed; 1 an oracle or validity check failed
(the result line is still printed, with "correct": false); 2 the
benchmark could not run (no result line).
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib as bl  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
SERVER = os.path.join(BUILD, "hexastore", "src", "server", "hexastore_server")
TOOL = os.path.join(BUILD, "perfbench_tool")

WORKLOADS = ("paper_queries", "served_mixed", "ingest_churn")
# Tail percentile per workload, fixed so parent and change compare the
# same one: the highest with >= 10 samples beyond it in one window at
# 30 s runs on a 4-core machine (bl.tail_percentile). BENCHMARK.json
# states it per workload; a run with fewer samples fails its checks.
TAIL = {"paper_queries": 95.0, "served_mixed": 95.0, "ingest_churn": 95.0}
# Each latency percentile is the median over this many equal time windows
# of the measured phase, so one burst cannot move a run's figure.
WINDOWS = {"paper_queries": 1, "served_mixed": 8, "ingest_churn": 4}
SETUPS = 3            # server set-ups per run; setup_s is their median
# perfbench_tool's data seed. The datasets are the same for every
# benchmark seed: from one generator seed to the next, their term and
# triple counts (and so the dictionary's and the indexes' table loads)
# moved query and insert latencies by up to 60%, more than a change under
# test would. The benchmark seed draws the request order and the write
# bodies instead.
DATA_SEED = 1
UB = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
TAKES = "<" + UB + "takesCourse>"
PREFIX = "PREFIX ub: <" + UB + "> "
# abl_server's analytic templates: predicates no writer touches, so their
# bodies must stay byte-identical for the whole run.
STABLE = [
    "SELECT ?s ?dept WHERE { ?s ub:worksFor ?dept } LIMIT 20",
    "SELECT DISTINCT ?prof WHERE { ?s ub:advisor ?prof . "
    "?prof ub:worksFor ?dept } ORDER BY ?prof LIMIT 10",
    "SELECT ?x ?n WHERE { ?x ub:name ?n } LIMIT 20",
    "SELECT ?s WHERE { ?s ub:type ?c . ?s ub:emailAddress ?e } LIMIT 10",
]
COUNT_ALL = "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }"

# served_mixed: offered rates (open loop) and the erase window.
MIXED_READ_RATE = 100.0   # req/s over two reader connections
MIXED_WRITE_RATE = 60.0   # /insert batches per second, one connection
MIXED_BATCH = 8           # triples per /insert
MIXED_WINDOW = 100        # batches live before their /erase
# ingest_churn: pool batches, live window (> 64k compact_threshold so
# erased triples have left the staging buffer) and the reader's pause.
CHURN_BATCH = 256
CHURN_WINDOW = 320
CHURN_WRITERS = 1
# The reader's COUNT scans over two churned predicates of similar size
# (~3k live triples each, ~3 ms): a point lookup's ~0.3 ms is mostly
# per-request overhead, which moved 30% from run to run with the host's
# other load.
CHURN_SCANS = ("worksFor", "doctoralDegreeFrom")
# The churn reader waits for each reply and then pauses. A sync base
# merge (the default compaction) stalls reads, and merges fill about half
# of the run; an open-loop reader's queue would put half of all reads
# behind one and its median would flip between the stalled and the free
# mode from run to run. The writers' latencies carry the stalls instead.
CHURN_READ_PAUSE_S = 0.015
WARMUP_S = 2.0
# paper_queries splits its measured reads into PAPER_ROUNDS rounds, each
# followed by one block of a closed-loop write probe: QUIET_PAIRS
# 256-triple insert+erase pairs in all (~5 s), a fixed number so every
# run takes the staging buffer through the same states. Reads and writes
# thus both sample the whole run; the write metrics are the median over
# the blocks.
PAPER_ROUNDS = 4
QUIET_PAIRS = 4096


class BenchError(Exception):
    """The benchmark could not run (exit 2, no result line)."""


def log(msg):
    print(msg, flush=True)


# ---------------------------------------------------------------------------
# Build and metadata.

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no hexastore sources next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "build.log"), "a") as out:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                      "hexastore_server", "perfbench_tool"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=out) != 0:
                raise BenchError("build failed: see .bench_build/build.log")


def metadata(args, inputs, server_env):
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=")[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "none"
    except OSError:
        commit = "none"
    digest = hashlib.sha1()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT,
                                                                    "src"))):
        dirnames.sort()
        for name in sorted(filenames):
            with open(os.path.join(dirpath, name), "rb") as f:
                digest.update(name.encode() + f.read())
    return {
        "nproc": os.cpu_count(),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "git_commit": commit,
        "src_sha1": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "data_seed": DATA_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "load_triples": inputs["load_triples"],
        "pool_triples": inputs["pool_triples"],
        "datasets": ("barton 200000 + lubm 200000"
                     if args.workload == "paper_queries" else "lubm 200000"),
        "server_env": server_env,
        "tail_percentile": TAIL[args.workload],
    }


# ---------------------------------------------------------------------------
# Server processes.

LIVE = []  # every server process started, for cleanup


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Server:
    def __init__(self, workdir, data_file=None, wal_dir=None):
        self.port = free_port()
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("HEXA_")}
        self.env["HEXA_PORT"] = str(self.port)
        self.config = {"HEXA_PORT": str(self.port)}
        if wal_dir is not None:
            self.env["HEXA_WAL_DIR"] = wal_dir
            self.config["HEXA_WAL_DIR"] = os.path.relpath(wal_dir, ROOT)
        self.args = [SERVER] + ([data_file] if data_file else [])
        self.log_path = os.path.join(workdir, "server.log")
        self.proc = None

    def start(self):
        """Spawns the server; returns seconds until /healthz answers 200."""
        start = time.monotonic()
        with open(self.log_path, "a") as err:
            self.proc = subprocess.Popen(self.args, env=self.env,
                                         stdout=subprocess.DEVNULL,
                                         stderr=err)
        LIVE.append(self.proc)
        conn = bl.Conn(self.port, timeout=5.0)
        try:
            while True:
                if self.proc.poll() is not None:
                    raise BenchError("server exited during set-up; see "
                                     + self.log_path)
                if time.monotonic() - start > 120:
                    raise BenchError("server not healthy after 120 s")
                status, _ = conn.request("GET", "/healthz")
                if status == 200:
                    return time.monotonic() - start
                time.sleep(0.002)
        finally:
            conn.close()

    def rss_bytes(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
        return 0

    def stop(self):
        if self.proc is None:
            return 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        code = self.proc.returncode
        LIVE.remove(self.proc)
        self.proc = None
        return code


def stop_all():
    for proc in list(LIVE):
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        LIVE.remove(proc)


def scrape(port):
    conn = bl.Conn(port)
    status, body = conn.request("GET", "/metrics.json")
    conn.close()
    if status != 200:
        raise BenchError("/metrics.json answered %d" % status)
    return bl.Scrape(body)


class RssSampler(threading.Thread):
    """Samples server VmRSS over live triples `samples` times, evenly over
    `seconds`; `live` returns the live-triple count the client tracks
    from acknowledgements (no extra connection to the server)."""

    def __init__(self, srv, live, seconds, samples=5):
        super().__init__(daemon=True)
        self.srv, self.live = srv, live
        self.interval = seconds / (samples + 0.5)
        self.samples = samples
        self.ratios = []
        self.stopped = threading.Event()

    def run(self):
        for _ in range(self.samples):
            if self.stopped.wait(self.interval):
                return
            self.ratios.append(self.srv.rss_bytes() / self.live())


def count_all(conn):
    status, body = conn.query(COUNT_ALL)
    if status != 200:
        return None
    return bl.rows_of(body, ["?n"])[0][0]


# ---------------------------------------------------------------------------
# Bookkeeping shared by the workloads.

class Run:
    """Samples, failures and client spans of one run (thread-safe)."""

    def __init__(self, trace):
        self.lock = threading.Lock()
        self.trace = trace
        self.reads = []          # (shape, ms, traced_slice)
        self.writes = []         # ms
        self.read_t = []         # completion times of reads / writes
        self.write_t = []
        self.late_ms = []        # open-loop send lateness
        self.attempted = 0
        self.failed = 0
        self.failures = {}       # reason -> count
        self.spans = []          # client spans (trace mode)
        self.t0 = time.monotonic()

    def traced_now(self):
        # Trace mode alternates 1 s slices with client spans on and off;
        # obs.trace_overhead compares the two.
        return self.trace and int(time.monotonic() - self.t0) % 2 == 1

    def attempt(self, ok, reason=None):
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures[reason] = self.failures.get(reason, 0) + 1

    def span(self, name, start, end, traced):
        if traced:
            with self.lock:
                self.spans.append((len(self.spans), name, start, end))

    def read(self, shape, ms, traced):
        with self.lock:
            self.reads.append((shape, ms, traced))
            self.read_t.append(time.monotonic())

    def write(self, ms, t=None):
        with self.lock:
            self.writes.append(ms)
            self.write_t.append(time.monotonic() if t is None else t)


class Request:
    """One open-loop request: a SPARQL query on connection `lane`."""

    def __init__(self, shape, sparql, lane=0):
        self.shape, self.sparql, self.lane = shape, sparql, lane

    def send(self, conn):
        return conn.query(self.sparql)


def zipf_ranks(n, s, rng, count):
    """`count` draws of ranks 0..n-1 with P(rank k) ~ 1/(k+1)^s."""
    weights = [1.0 / (k + 1) ** s for k in range(n)]
    return rng.choices(range(n), weights=weights, k=count)


def quiet_writes(conn, run, bodies, seconds=None, pairs=None):
    """Closed loop with no readers, for `seconds` or `pairs` steps: each
    body is inserted and at once erased again, so the live size and the
    staging buffer do not grow. Returns, for "/insert" and "/erase", the
    latencies ("ms"), completion times ("t") and acknowledged triples
    ("n") of each request."""
    out = {path: {"ms": [], "t": [], "n": []}
           for path in ("/insert", "/erase")}
    start = time.monotonic()
    i = 0
    while (i < pairs if pairs is not None
           else time.monotonic() - start < seconds):
        body = bodies[i % len(bodies)]
        i += 1
        for path, key in (("/insert", "inserted"), ("/erase", "erased")):
            t = time.monotonic()
            status, resp = conn.request("POST", path, body)
            e = time.monotonic()
            run.attempt(status == 200, "quiet %s status %d" % (path, status))
            rec = out[path]
            rec["ms"].append((e - t) * 1000.0)
            rec["t"].append(e)
            rec["n"].append(json.loads(resp)[key] if status == 200 else 0)
    return out


def probe_bodies(courses, per_body, count, tag):
    rng = random.Random(tag)
    bodies = []
    for b in range(count):
        lines = ["<http://perfbench.example.org/%s%d_%d> %s %s .\n"
                 % (tag, b, k, TAKES, rng.choice(courses))
                 for k in range(per_body)]
        bodies.append("".join(lines))
    return bodies


# ---------------------------------------------------------------------------
# Workloads. Each returns a dict of results beyond what Run collects.

def run_paper(srv, inputs, seconds, seed, run):
    """Closed loop, one connection: the twelve paper queries as SPARQL,
    cycled in whole passes (in an order drawn from the seed); every body
    must match the one verified against the hand-coded plan at set-up."""
    conn = bl.Conn(srv.port)
    queries = list(inputs["queries"])
    random.Random(seed).shuffle(queries)
    expected = {}
    oracle_failed = []
    for qi, q in enumerate(queries):
        bodies = []
        for ri, req in enumerate(q["requests"]):
            status, body = conn.query(req["sparql"])
            if status != 200:
                raise BenchError("%s answered %d at set-up" % (q["name"],
                                                               status))
            bodies.append(body)
            expected[(qi, ri)] = hashlib.sha1(body).digest()
        if bl.combine(q, bodies) != bl.canonical_oracle(q):
            oracle_failed.append(q["name"])
    for name in oracle_failed:
        run.attempt(False, "oracle mismatch " + name)
    passes = []
    per_query = {q["name"]: [] for q in queries}

    def one_pass(measured):
        pass_start = time.monotonic()
        for qi, q in enumerate(queries):
            q_ms = 0.0
            for ri, req in enumerate(q["requests"]):
                traced = run.traced_now()
                t = time.monotonic()
                status, body = conn.query(req["sparql"])
                e = time.monotonic()
                ok = (status == 200
                      and hashlib.sha1(body).digest() == expected[(qi, ri)])
                q_ms += (e - t) * 1000.0
                if measured:
                    run.attempt(ok, "%s status %d or changed body"
                                % (q["name"], status))
                    run.read(q["name"] + "." + str(ri), (e - t) * 1000.0,
                             traced)
                    run.span("client.query." + q["name"], t, e, traced)
                elif not ok:
                    run.attempt(False, "%s status %d or changed body"
                                % (q["name"], status))
            if measured:
                per_query[q["name"]].append(q_ms)
        if measured:
            passes.append((time.monotonic() - pass_start) * 1000.0)

    bodies = probe_bodies(inputs["courses"], CHURN_BATCH, 64,
                          "quiet%d-" % seed)
    blocks = []
    result = {"per_query": per_query, "passes": passes,
              "oracle_failed": oracle_failed, "write_triples": 0}
    warm_end = time.monotonic() + WARMUP_S
    while time.monotonic() < warm_end:
        one_pass(False)
    run.t0 = time.monotonic()
    measured_s = 0.0
    for r in range(PAPER_ROUNDS):
        start = time.monotonic()
        while time.monotonic() - start < seconds / PAPER_ROUNDS:
            one_pass(True)
        measured_s += time.monotonic() - start
        if r == PAPER_ROUNDS - 1:
            live = scrape(srv.port).value("hexa_delta_size_triples")
            result["rss_per_triple"] = [srv.rss_bytes() / live]
        probe = quiet_writes(conn, run, bodies,
                             pairs=QUIET_PAIRS // PAPER_ROUNDS)
        ins, era = probe["/insert"], probe["/erase"]
        # The write metrics are the /insert half only: erases cost
        # 0.4-0.6 ms from run to run against inserts' ~0.7 ms, and the
        # median of the two pooled would sit on the edge between them.
        for ms, t in zip(ins["ms"], ins["t"]):
            run.write(ms, t)
        blocks.append(ins)
        result["write_triples"] += sum(ins["n"]) + sum(era["n"])
        # The writes moved the plan cache's stamps: one unmeasured pass
        # re-probes the plans before reads are measured again.
        one_pass(False)
    conn.close()
    result["measured_s"] = measured_s
    result["scrape"] = scrape(srv.port)
    result["quiet_ms"] = [ms for b in blocks for ms in b["ms"]]
    result["write_blocks"] = [b["ms"] for b in blocks]
    result["ingest_triples_per_s"] = bl.median(
        [sum(b["n"]) / (sum(b["ms"]) / 1000.0) for b in blocks])
    return result


def run_served(srv, inputs, seconds, seed, run):
    """Open loop: reads at MIXED_READ_RATE over two connections (90%
    selective LQ1/LQ3/LQ4 shapes on Zipf-drawn courses and professors,
    10% analytic templates) and /insert batches at MIXED_WRITE_RATE on a
    third, each checked for visibility on its own connection and erased
    MIXED_WINDOW batches later."""
    rng = random.Random(seed)
    courses = list(inputs["courses"])
    profs = list(inputs["professors"])
    rng.shuffle(courses)
    rng.shuffle(profs)
    total = int(MIXED_READ_RATE * (WARMUP_S + seconds)) + 1
    course_draw = zipf_ranks(len(courses), 1.1, rng, total)
    prof_draw = zipf_ranks(len(profs), 1.1, rng, total)
    kinds = rng.choices(("LQ1", "LQ3", "LQ4", "analytic"),
                        weights=(40, 40, 10, 10), k=total)
    requests = []
    for i in range(total):
        kind = kinds[i]
        c, p = courses[course_draw[i]], profs[prof_draw[i]]
        if kind == "LQ1":
            requests.append(Request("LQ1", "SELECT ?s ?p WHERE { ?s ?p %s }"
                                    % c))
        elif kind == "LQ3":
            requests.append(Request("LQ3", "SELECT ?p ?o WHERE { %s ?p ?o }"
                                    % p))
        elif kind == "LQ4":
            requests.append(Request(
                "LQ4", PREFIX + "SELECT ?c ?s ?p WHERE { %s ub:teacherOf "
                "?c . ?s ?p ?c }" % p, lane=1))
        else:
            t = i % len(STABLE)
            requests.append(Request("analytic%d" % t, PREFIX + STABLE[t],
                                    lane=1))
    write_courses = [courses[k] for k in zipf_ranks(
        len(courses), 1.1, rng, int(MIXED_WRITE_RATE * (WARMUP_S + seconds)
                                    * MIXED_BATCH) + MIXED_BATCH)]
    stable_bodies = {}
    measuring = threading.Event()
    conn = bl.Conn(srv.port)
    baseline = count_all(conn)
    conn.close()

    def on_read(desc, status, body, due, sent, end):
        ok = status == 200
        reason = "%s status %d" % (desc.shape, status)
        if ok and desc.shape.startswith("analytic"):
            with run.lock:
                first = stable_bodies.setdefault(desc.shape, body)
            if first != body:
                ok, reason = False, desc.shape + " body changed"
        if measuring.is_set():
            traced = run.traced_now()
            run.attempt(ok, reason)
            run.read(desc.shape, (end - due) * 1000.0, traced)
            run.late_ms.append((sent - due) * 1000.0)
            run.span("client.query." + desc.shape, due, end, traced)
        elif not ok:
            run.attempt(False, reason)

    def next_request(i):
        return requests[min(i, total - 1)]

    stop_writer = threading.Event()
    writer_stats = {"inserted": 0, "erased": 0}

    def writer():
        conn = bl.Conn(srv.port)
        start = time.monotonic()
        live = []
        j = 0
        while not stop_writer.is_set():
            due = start + j / MIXED_WRITE_RATE
            wait = due - time.monotonic()
            if wait > 0:
                if stop_writer.wait(wait):
                    break
            subj = "<http://perfbench.example.org/mixed%d>" % j
            picks = write_courses[j * MIXED_BATCH:(j + 1) * MIXED_BATCH]
            body = "".join("%s %s %s .\n" % (subj, TAKES, c) for c in picks)
            status, resp = conn.request("POST", "/insert", body)
            end = time.monotonic()
            ok = status == 200
            measured = measuring.is_set()
            if ok:
                writer_stats["inserted"] += json.loads(resp)["inserted"]
                # Read-your-writes on the same connection.
                qs, qb = conn.query("SELECT ?c WHERE { %s %s ?c }"
                                    % (subj, TAKES))
                seen = ({r[0] for r in bl.rows_of(qb, ["?c"])}
                        if qs == 200 else set())
                if not set(picks) <= seen:
                    run.attempt(False, "insert not visible to next query")
                elif measured:
                    run.attempt(True)
                live.append(body)
            if measured:
                run.attempt(ok, "insert status %d" % status)
                run.write((end - due) * 1000.0)
            elif not ok:
                run.attempt(False, "insert status %d" % status)
            if len(live) > MIXED_WINDOW:
                old = live.pop(0)
                t = time.monotonic()
                status, resp = conn.request("POST", "/erase", old)
                if status == 200:
                    writer_stats["erased"] += json.loads(resp)["erased"]
                if measured:
                    run.attempt(status == 200, "erase status %d" % status)
                    run.write((time.monotonic() - t) * 1000.0)
            j += 1
        conn.close()

    sampler = RssSampler(srv, lambda: baseline + writer_stats["inserted"]
                         - writer_stats["erased"], seconds)

    def begin_measuring():
        run.t0 = time.monotonic()
        measuring.set()
        sampler.start()

    loop = bl.OpenLoop(MIXED_READ_RATE, 2, lambda: bl.Conn(srv.port),
                       next_request, on_read)
    w = threading.Thread(target=writer)
    w.start()
    timer = threading.Timer(WARMUP_S, begin_measuring)
    timer.start()
    try:
        issued, unsent = loop.run(WARMUP_S + seconds)
    finally:
        timer.cancel()
        stop_writer.set()
        w.join()
        sampler.stopped.set()
        if sampler.is_alive():
            sampler.join()
    for _ in range(unsent):
        run.attempt(False, "read unsent at end")
    measured_s = time.monotonic() - run.t0
    result = {"measured_s": measured_s, "scrape": scrape(srv.port),
              "rss_per_triple": sampler.ratios}
    acked = writer_stats["inserted"]
    result["ingest_triples_per_s"] = acked / (WARMUP_S + seconds)
    conn = bl.Conn(srv.port)
    probe = quiet_writes(
        conn, run, probe_bodies(courses, MIXED_BATCH, 64, "quiet"), 1.0)
    conn.close()
    result["quiet_ms"] = probe["/insert"]["ms"]
    result["write_triples"] = (writer_stats["inserted"]
                               + writer_stats["erased"])
    return result


def run_churn(srv, inputs, seconds, seed, run, workdir, wal_dir):
    """Closed loop: CHURN_WRITERS writer connections insert 256-triple
    pool batches (in an order drawn from the seed) and erase the batch
    CHURN_WINDOW steps older; one reader connection alternates COUNT
    scans of the CHURN_SCANS predicates, pausing CHURN_READ_PAUSE_S after
    each reply. Then the acknowledged count is checked, the server
    stopped with SIGTERM and restarted on its WAL dir alone
    (recover_s)."""
    with open(os.path.join(workdir, "pool.nt")) as f:
        lines = f.readlines()
    pool = ["".join(lines[i:i + CHURN_BATCH]).encode()
            for i in range(0, len(lines) - CHURN_BATCH + 1, CHURN_BATCH)]
    random.Random(seed).shuffle(pool)
    courses = inputs["pool_courses"]
    # Each scan's COUNT lies between the preload's triples of its
    # predicate and those plus every pool triple of it.
    bounds = {}
    with open(os.path.join(workdir, "data.nt")) as f:
        preload = [line.split(" ", 2)[1] for line in f]
    for shape in CHURN_SCANS:
        pred = "<" + UB + shape + ">"
        low = preload.count(pred)
        bounds[shape] = (low, low + sum(1 for line in lines
                                        if line.split(" ", 2)[1] == pred))
    del preload
    conn = bl.Conn(srv.port)
    baseline = count_all(conn)
    conn.close()
    lock = threading.Lock()
    step = {"next": 0, "inserted": 0, "erased": 0}
    inserted_evt = {}
    measuring = threading.Event()
    filled = threading.Event()
    stop = threading.Event()
    acked = []  # triples of measured inserts

    def writer():
        c = bl.Conn(srv.port)
        while not stop.is_set():
            with lock:
                k = step["next"]
                step["next"] += 1
                inserted_evt[k] = threading.Event()
            if k >= CHURN_WINDOW:
                filled.set()
            measured = measuring.is_set()
            t = time.monotonic()
            status, resp = c.request("POST", "/insert", pool[k % len(pool)])
            e = time.monotonic()
            ok = status == 200
            n = json.loads(resp)["inserted"] if ok else 0
            with lock:
                step["inserted"] += n
                if measured:
                    acked.append(n)
            inserted_evt[k].set()
            if measured:
                run.attempt(ok, "insert status %d" % status)
                run.write((e - t) * 1000.0)
            elif not ok:
                run.attempt(False, "insert status %d" % status)
            if k >= CHURN_WINDOW:
                old = k - CHURN_WINDOW
                inserted_evt[old].wait()
                t = time.monotonic()
                status, resp = c.request("POST", "/erase",
                                         pool[old % len(pool)])
                e = time.monotonic()
                ok = status == 200
                with lock:
                    step["erased"] += json.loads(resp)["erased"] if ok else 0
                if measured:
                    run.attempt(ok, "erase status %d" % status)
                    run.write((e - t) * 1000.0)
                elif not ok:
                    run.attempt(False, "erase status %d" % status)
        c.close()

    def reader():
        c = bl.Conn(srv.port)
        i = 0
        while measuring.is_set():
            shape = CHURN_SCANS[i % len(CHURN_SCANS)]
            i += 1
            traced = run.traced_now()
            t = time.monotonic()
            status, body = c.query(PREFIX + "SELECT (COUNT(*) AS ?n) "
                                   "WHERE { ?s ub:%s ?o }" % shape)
            e = time.monotonic()
            low, high = bounds[shape]
            n = bl.rows_of(body, ["?n"])[0][0] if status == 200 else None
            run.attempt(n is not None and low <= n <= high,
                        "%s status %d count %s outside [%d, %d]"
                        % (shape, status, n, low, high))
            run.read(shape, (e - t) * 1000.0, traced)
            run.span("client.query." + shape, t, e, traced)
            time.sleep(CHURN_READ_PAUSE_S)
        c.close()

    sampler = RssSampler(srv, lambda: baseline + step["inserted"]
                         - step["erased"], seconds)
    writers = [threading.Thread(target=writer)
               for _ in range(CHURN_WRITERS)]
    read_thread = threading.Thread(target=reader)
    for w in writers:
        w.start()
    try:
        if not filled.wait(120):
            raise BenchError("write window never filled")
        time.sleep(WARMUP_S / 2)
        run.t0 = time.monotonic()
        measuring.set()
        sampler.start()
        read_thread.start()
        time.sleep(seconds)
        measuring.clear()
        measured_s = time.monotonic() - run.t0
    finally:
        measuring.clear()
        stop.set()
        for w in writers:
            w.join()
        if read_thread.is_alive():
            read_thread.join()
        sampler.stopped.set()
        if sampler.is_alive():
            sampler.join()
    result = {"measured_s": measured_s, "scrape": scrape(srv.port),
              "rss_per_triple": sampler.ratios}
    result["ingest_triples_per_s"] = sum(acked) / measured_s
    conn = bl.Conn(srv.port)
    probe = quiet_writes(
        conn, run, probe_bodies(courses, CHURN_BATCH, 16, "quiet%d-" % seed),
        1.0)
    q_ins, q_era = sum(probe["/insert"]["n"]), sum(probe["/erase"]["n"])
    result["quiet_ms"] = probe["/insert"]["ms"]
    result["write_triples"] = step["inserted"] + step["erased"] + q_ins + q_era
    expected = baseline + step["inserted"] - step["erased"] + q_ins - q_era
    before = count_all(conn)
    conn.close()
    run.attempt(before == expected,
                "COUNT(*) %s != acknowledged %d before stop" % (before,
                                                                expected))
    if srv.stop() != 0:
        run.attempt(False, "server exit code on SIGTERM")
    restarted = Server(workdir, data_file=None, wal_dir=wal_dir)
    result["recover_s"] = restarted.start()
    conn = bl.Conn(restarted.port)
    after = count_all(conn)
    conn.close()
    restarted.stop()
    run.attempt(after == expected,
                "COUNT(*) %s != acknowledged %d after restart" % (after,
                                                                  expected))
    result["counts"] = {"baseline": baseline, "expected": expected,
                        "before_stop": before, "after_restart": after}
    return result


# ---------------------------------------------------------------------------
# Metrics.

def shape_geomean(reads):
    by_shape = {}
    for shape, ms, _ in reads:
        by_shape.setdefault(shape, []).append(ms)
    return bl.geomean([bl.median(v) for v in by_shape.values()])


def shape_summary(reads):
    """Per request shape: sample count and latency percentiles (ms)."""
    by_shape = {}
    for shape, ms, _ in reads:
        by_shape.setdefault(shape, []).append(ms)
    return {k: {"n": len(v), "p50": bl.median(v),
                "p95": bl.percentile(v, 95.0), "p99": bl.percentile(v, 99.0)}
            for k, v in sorted(by_shape.items())}


def trace_overhead(reads):
    """Median over traced-slice reads of latency relative to the same
    shape's untraced median, minus one."""
    base = {}
    for shape, ms, traced in reads:
        if not traced:
            base.setdefault(shape, []).append(ms)
    base = {k: bl.median(v) for k, v in base.items()}
    rel = [ms / base[shape] for shape, ms, traced in reads
           if traced and shape in base and base[shape] > 0]
    return bl.median(rel) - 1.0 if rel else 0.0


def latency_groups(workload, run, res):
    """Read and write latencies in the groups each percentile is taken
    over before the median across them: equal time windows of the
    measured phase, or paper_queries' write probe blocks."""
    span = (run.t0, run.t0 + res["measured_s"])
    k = WINDOWS[workload]
    reads = bl.window_slices([ms for _, ms, _ in run.reads], run.read_t,
                             span, k)
    writes = (res["write_blocks"] if "write_blocks" in res
              else bl.window_slices(run.writes, run.write_t, span, k))
    return {"read": [g for g in reads if g], "write": [g for g in writes if g]}


def end_to_end(workload, run, res, setups):
    tail = TAIL[workload]
    reads = [ms for _, ms, _ in run.reads]
    groups = latency_groups(workload, run, res)

    def lat(kind, p):
        return bl.median([bl.percentile(g, p) for g in groups[kind]])
    if workload == "paper_queries":
        geo = bl.geomean([bl.median(v) for v in res["per_query"].values()])
    else:
        geo = shape_geomean(run.reads)
    m = {
        "setup_s": (bl.median(setups), "s", len(setups)),
        "rss_bytes_per_triple": (bl.median(res["rss_per_triple"]), "B",
                                 len(res["rss_per_triple"])),
        "read_p50_ms": (lat("read", 50.0), "ms", len(reads)),
        "read_tail_ms": (lat("read", tail), "ms", len(reads)),
        "read_geomean_ms": (geo, "ms", len(reads)),
        "write_p50_ms": (lat("write", 50.0), "ms", len(run.writes)),
        "write_tail_ms": (lat("write", tail), "ms", len(run.writes)),
        "ingest_triples_per_s": (res["ingest_triples_per_s"], "1/s",
                                 len(run.writes)),
    }
    return m


def per_layer(workload, run, res, tool_metrics):
    reads = [ms for _, ms, _ in run.reads]
    m = bl.scraped_layer_metrics(res["scrape"], bl.median(reads),
                                 res["write_triples"])
    m["server.insert_quiet_us_p50"] = bl.median(res["quiet_ms"]) * 1000.0
    m["obs.trace_overhead"] = trace_overhead(run.reads)
    m["gen.late_ms_p99"] = (bl.percentile(run.late_ms, 99.0)
                            if run.late_ms else 0.0)
    m["wal.recover_s"] = res.get("recover_s", 0.0)
    passes = res.get("passes", [])
    m["paper.pass_p50_ms"] = bl.median(passes) if passes else 0.0
    m["paper.pass_max_ms"] = max(passes) if passes else 0.0
    m.update(tool_metrics)
    return m


# ---------------------------------------------------------------------------
# Main.

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    workdir = os.path.join(OUT, "run-%d" % os.getpid())
    results_dir = os.path.join(OUT, "results")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(workdir)
    watchdog = threading.Timer(170.0, lambda: (stop_all(), os._exit(2)))
    watchdog.daemon = True
    watchdog.start()
    try:
        subprocess.check_call([TOOL, "gen", "--workload", args.workload,
                               "--seed", str(DATA_SEED), "--out", workdir])
        with open(os.path.join(workdir, "inputs.json")) as f:
            inputs = json.load(f)
        data = os.path.join(workdir, "data.nt")
        durable = args.workload == "ingest_churn"

        setups = []
        for i in range(SETUPS):
            wal = os.path.join(workdir, "wal-%d" % i) if durable else None
            srv = Server(workdir, data_file=data, wal_dir=wal)
            setups.append(srv.start())
            if i + 1 < SETUPS:
                srv.stop()
                if wal:
                    shutil.rmtree(wal)
        run = Run(args.trace == 1)
        if args.workload == "paper_queries":
            res = run_paper(srv, inputs, args.seconds, args.seed, run)
        elif args.workload == "served_mixed":
            res = run_served(srv, inputs, args.seconds, args.seed, run)
        else:
            res = run_churn(srv, inputs, args.seconds, args.seed, run,
                            workdir, wal)
        srv.stop()

        checks = validity(args.workload, res, run)
        meta = metadata(args, inputs, srv.config)
        if args.trace:
            out = subprocess.run([TOOL, "trace", "--workload", args.workload,
                                  "--seed", str(DATA_SEED), "--out", workdir],
                                 capture_output=True, text=True)
            if out.returncode != 0:
                raise BenchError("perfbench_tool trace failed: "
                                 + out.stderr[-2000:])
            tool_metrics = json.loads(out.stdout.strip().splitlines()[-1])
            metrics = per_layer(args.workload, run, res, tool_metrics)
            report = {k: (v, unit_of(k), None) for k, v in metrics.items()}
            tag = "%s-seed%d" % (args.workload, args.seed)
            shutil.copy(os.path.join(workdir, "spans.json"),
                        os.path.join(results_dir, "spans-tool-%s.json" % tag))
            with open(os.path.join(results_dir,
                                   "spans-client-%s.json" % tag), "w") as f:
                json.dump([{"id": i, "name": n, "start_s": s - run.t0,
                            "end_s": e - run.t0, "parent": None}
                           for i, n, s, e in run.spans], f)
        else:
            report = end_to_end(args.workload, run, res, setups)
    finally:
        watchdog.cancel()
        stop_all()
        shutil.rmtree(workdir, ignore_errors=True)

    correct = run.failed == 0 and all(ok for ok, _ in checks.values())
    log("perfbench %s seed=%d trace=%d: %d attempted, %d failed "
        "(fail_frac %.6f)" % (args.workload, args.seed, args.trace,
                              run.attempted, run.failed,
                              bl.ratio(run.failed, run.attempted)))
    for reason, n in sorted(run.failures.items()):
        log("  failure: %s x%d" % (reason, n))
    for name, (ok, detail) in sorted(checks.items()):
        log("  check %-28s %s  %s" % (name, "ok" if ok else "FAILED", detail))
    for name, (value, unit, n) in sorted(report.items()):
        log("  %-40s %14.6g %-6s%s" % (name, value, unit,
                                       "" if n is None else " (n=%d)" % n))
    record = {"meta": meta, "correct": correct, "attempted": run.attempted,
              "failed": run.failed, "failures": run.failures,
              "checks": {k: {"ok": ok, "detail": d}
                         for k, (ok, d) in checks.items()},
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in report.items()},
              "shapes": shape_summary(run.reads),
              "windows": {
                  kind: {"p%g" % p: [bl.percentile(g, p) for g in gs]
                         for p in (50.0, TAIL[args.workload])}
                  for kind, gs in latency_groups(args.workload, run,
                                                 res).items()},
              "extra": {k: v for k, v in res.items()
                        if k in ("counts", "oracle_failed", "measured_s")}}
    with open(os.path.join(results_dir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in report.items()}}))
    return 0 if correct else 1


def validity(workload, res, run):
    """Did the layer the workload exists for do work? Each entry is
    (ok, detail); a failed one marks the run incorrect."""
    s = res["scrape"]
    checks = {}
    for kind, groups in latency_groups(workload, run, res).items():
        n = sum(len(g) for g in groups) // max(len(groups), 1)
        checks[kind + "_tail_samples"] = (
            bl.samples_beyond(n, TAIL[workload]) >= 10,
            "p%g over %d samples per window (highest supported: p%s)"
            % (TAIL[workload], n, bl.tail_percentile(n)))
    if workload == "paper_queries":
        failed = res["oracle_failed"]
        checks["paper_oracles"] = (not failed, "%d of 12 failed %s"
                                   % (len(failed), failed))
    elif workload == "served_mixed":
        ev = s.value("hexa_plan_cache_evictions")
        inv = s.value("hexa_plan_cache_invalidations")
        checks["plan_cache_churn"] = (ev > 0 and inv > 0,
                                      "evictions %d invalidations %d"
                                      % (ev, inv))
        late = bl.percentile(run.late_ms, 99.0) if run.late_ms else 0.0
        checks["generator_on_time"] = (late < 100.0,
                                       "late p99 %.2f ms" % late)
    else:
        merges = max(s.value("hexa_delta_base_merges_total"),
                     s.value("hexa_delta_compactions_total"),
                     s.value("hexa_delta_seals_total")
                     + s.value("hexa_delta_l0_merges_total"))
        ckpt = s.value("hexa_wal_checkpoints_total")
        checks["compaction_ran"] = (merges >= 3 and ckpt >= 1,
                                    "merges %d checkpoints %d"
                                    % (merges, ckpt))
    return checks


def unit_of(name):
    for suffix, unit in (("_us", "us"), ("_ns", "ns"), ("_ms", "ms"),
                         ("_s", "s"), ("_us_p50", "us"), ("_ns_p50", "ns"),
                         ("_ns_max", "ns"), ("_us_p99", "us"),
                         ("_ms_max", "ms"), ("_ms_p99", "ms"),
                         ("_ns_per_triple", "ns"), ("bytes_per_triple", "B")):
        if name.endswith(suffix):
            return unit
    if name.endswith(("rate", "share", "overhead", "unaccounted",
                      "over_hand", "write_amp", "per_row_out")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    def _terminate(signum, frame):
        stop_all()
        sys.exit(2)

    signal.signal(signal.SIGTERM, _terminate)
    # Hand the GIL over often: the scheduler and reader threads should not
    # wait behind another thread's bookkeeping.
    sys.setswitchinterval(0.0005)
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError) as e:
        stop_all()
        print("perfbench: " + str(e), file=sys.stderr)
        sys.exit(2)
