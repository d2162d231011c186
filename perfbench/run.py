#!/usr/bin/env python3
"""End-to-end benchmark for cfd-prop: the shipped `cfdprop` binary, driven
from outside, on three seeded workloads.

    python3 perfbench/run.py --workload cover|serve-read|serve-churn \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It builds `bin/cfdprop.exe`
and the benchmark's own `perfbench/tool/pbtool.exe` with dune into
`.bench_build/`, writes its inputs and scratch files there too, and
prints as its last stdout line one JSON object
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
metrics are the end-to-end ones (tracing off); with `--trace 1` they are
the per-layer ledger from an in-process replay of the same inputs.
perfbench/README.md defines every metric and the workloads.

Workloads (all closed loops from this one process and thread):
  cover        one `cfdprop cover` process per doc of a fixed Fig. 5-8 set,
               in seeded order, round after round.
  serve-read   `cfdprop serve --tcp 0 --domains 2`, one session, ~90%
               distinct `propagates` probes and ~10% `cover` pulls.
  serve-churn  the same daemon and doc, ~10% Sigma-deltas (a random walk of
               add_cfd/remove_cfd) and ~90% Zipf(1.1) probes over 256.
"""

import argparse
import gc
import hashlib
import json
import os
import random
import select
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "perfbench")
CFDPROP = os.path.join(BUILD, "dune", "default", "bin", "cfdprop.exe")
PBTOOL = os.path.join(BUILD, "dune", "default", "perfbench", "tool", "pbtool.exe")
PINNED = os.path.join(BENCH_DIR, "pinned.json")

WORKLOADS = ("cover", "serve-read", "serve-churn")
SETUP_STARTS = 7  # cold daemon starts per run; setup_s is their median
CONNECTIONS = 2  # nproc of the reference host
REQUEST_TIMEOUT_S = 20.0
PROCESS_TIMEOUT_S = 60.0
# Requests a connection sends before it is closed and the next one takes
# over.  The daemon serves one connection to EOF, so every connection
# after the first waits about one share for its first reply.
SHARE = {"serve-read": 4000, "serve-churn": 400}
# Requests generated per second of run: well above what the loop can
# send, so a run never runs out of distinct probes.
STREAM_PER_S = {"serve-read": 12000, "serve-churn": 1000}
# The daemon's VmRSS is sampled every RSS_STEP replies, RSS_SAMPLES times:
# its memos grow with every request, so fixed counts fix the work behind
# the figure, and the mean over the samples evens out where each falls in
# a GC cycle.
RSS_STEP = {"serve-read": 8000, "serve-churn": 500}
RSS_SAMPLES = 12
# Requests replayed in-process for the per-layer ledger.
REPLAY = {"serve-read": 20000, "serve-churn": 2000}
TRACE_TCP_SECONDS = 8  # TCP phase of a traced run (client p50, HOL wait)


class BenchError(Exception):
    """The benchmark itself could not run: no result is printed."""


T0 = time.monotonic()


def log(msg):
    print(f"[{time.monotonic() - T0:7.2f}s] {msg}", file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Statistics.  A timing is reported as its median and its "tail": a
# percentile with at least ten samples beyond it at the sample counts a
# run reaches at the reference commit, the highest one that is steady from
# run to run on a shared 2-core host (above p90/p95, serve-read spread
# 0.26-1.9 across ten runs; above p95, serve-churn mixes in head-of-line
# waits and post-recompute memo misses).  It is fixed per workload and operation class (TAIL_Q), so
# a faster or slower commit is measured by the same definition; every run
# prints how many samples lie beyond it.
#
# On cover, p80 falls inside one doc's block of samples (8 docs per class
# whose times differ far more than one doc's runs do) rather than on the
# border between two docs; p90 would leave fewer than ten beyond it.

TAIL_Q = {
    "cover": (0.8, 0.8),
    "serve-read": (0.9, 0.95),
    "serve-churn": (0.95, 0.95),
}


def _ceil(x):
    i = int(x)
    return i if i == x else i + 1


def quantile(sorted_xs, q):
    if not sorted_xs:
        return 0.0
    rank = _ceil(q * len(sorted_xs))
    return sorted_xs[max(0, min(len(sorted_xs) - 1, rank - 1))]


def summarise(samples, q):
    """The median and the q-quantile of samples, their count, and the
    number of samples beyond the quantile's rank."""
    s = sorted(samples)
    n = len(s)
    return quantile(s, 0.5), quantile(s, q), n, n - _ceil(q * n)


# --------------------------------------------------------------------------
# Build and helpers


def build():
    for need in ("dune-project", os.path.join("bin", "cfdprop.ml"), os.path.join("lib", "serve")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"not a cfd-prop checkout: {need} is missing")
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [
        "dune", "build", "--root", ".", "--build-dir", os.path.join(BUILD, "dune"),
        "./bin/cfdprop.exe", "./perfbench/tool/pbtool.exe",
    ]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stderr[-4000:])


def pbtool(*args):
    r = subprocess.run([PBTOOL, *map(str, args)], capture_output=True, text=True, timeout=170)
    if r.returncode != 0:
        raise BenchError(f"pbtool {args[0]} failed: {r.stderr[-2000:]}")
    return r.stdout


def sha(data):
    return hashlib.sha256(data).hexdigest()


def cover_docs():
    """The fixed doc set: {name: path}, generated afresh from the tree's
    own Workload generators."""
    d = os.path.join(WORK, "docs")
    os.makedirs(d, exist_ok=True)
    names = pbtool("gen-cover", d).split()
    return {n: os.path.join(d, n + ".cfd") for n in names}


# The serve workloads' doc: fixed, so that the seed varies only the
# request stream (cover pulls of another doc would differ in size).
SERVE_DOC = "y25-v40-s1000"


# --------------------------------------------------------------------------
# The daemon


class Daemon:
    """`cfdprop serve --tcp 0 --domains 2`, with its port taken from the
    `listening on` stderr line."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [CFDPROP, "serve", "--tcp", "0", "--domains", "2"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        self.port = None
        deadline = time.monotonic() + 30
        buf = b""
        while self.port is None:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.proc.stderr], [], [], left)[0]:
                self.stop()
                raise BenchError("daemon did not announce its port")
            chunk = os.read(self.proc.stderr.fileno(), 4096)
            if not chunk:
                self.stop()
                raise BenchError("daemon exited before listening")
            buf += chunk
            for line in buf.split(b"\n"):
                if b"listening on" in line:
                    self.port = int(line.rsplit(b":", 1)[1])

    def cpu_s(self):
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stderr.close()


def request(port, line, timeout=120.0):
    """One request on its own connection, closed afterwards."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        s.sendall(line + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(1 << 20)
            if not chunk:
                raise BenchError("daemon closed the connection")
            buf += chunk
    return buf[:-1]


def cold_starts(doc_path):
    """Set-up: SETUP_STARTS cold daemons, each timed from spawn to the
    `open` reply on doc_path.  Returns the median and the last daemon,
    still running with its session open."""
    with open(doc_path) as f:
        line = json.dumps({"op": "open", "session": "b", "doc": f.read()}).encode()
    times, daemon = [], None
    for _ in range(SETUP_STARTS):
        if daemon is not None:
            daemon.stop()
        t0 = time.perf_counter()
        daemon = Daemon()
        try:
            reply = json.loads(request(daemon.port, line))
        except BaseException:
            daemon.stop()
            raise
        times.append(time.perf_counter() - t0)
        if reply.get("ok") is not True:
            daemon.stop()
            raise BenchError(f"open failed: {reply}")
    return statistics.median(times), daemon


# --------------------------------------------------------------------------
# The closed-loop load generator


class Conn:
    def __init__(self, port, lo, hi, serial):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.next, self.hi, self.serial = lo, hi, serial
        self.buf = bytearray()
        self.inflight = None  # (request index, send time)
        self.first_wait = None

    def send(self, lines):
        i = self.next
        self.next += 1
        self.inflight = (i, time.perf_counter())
        data = lines[i] + b"\n"
        self.sock.setblocking(True)
        self.sock.sendall(data)
        self.sock.setblocking(False)

    def close(self):
        self.sock.close()


def load_loop(port, lines, seconds, share, digest, probe_every=0, probe=None):
    """Send `lines` in order over up to CONNECTIONS connections, each taking
    the next `share` lines and closing as soon as they are answered, until
    `seconds` have passed.  Every connection keeps one request in flight.
    The reply to request i is kept as its sha256 when digest(i) holds (the
    large `cover` pulls), else as bytes.
    Returns the per-request (latency, reply) map, the first-reply waits of
    every connection after the first, the count of requests that timed out
    or were dropped, the window, and probe() as called after every
    probe_every replies, up to RSS_SAMPLES times."""
    probed = []
    replies = {}  # index -> (latency_s, reply bytes or sha256)
    hol, lost = [], 0
    conns, next_lo, serial = [], 0, 0
    t_start = time.perf_counter()
    deadline = t_start + seconds
    t_last = t_start

    def retire(c):
        conns.remove(c)
        c.close()

    while True:
        now = time.perf_counter()
        while len(conns) < CONNECTIONS and now < deadline and next_lo < len(lines):
            c = Conn(port, next_lo, min(len(lines), next_lo + share), serial)
            next_lo, serial = c.hi, serial + 1
            conns.append(c)
            c.send(lines)
        if not conns:
            break
        ready, _, _ = select.select([c.sock for c in conns], [], [], 0.5)
        now = time.perf_counter()
        for c in [c for c in conns if c.sock in ready]:
            try:
                chunk = c.sock.recv(1 << 20)
            except BlockingIOError:
                continue
            if not chunk:
                lost += c.inflight is not None  # dropped by the daemon: a failure
                retire(c)
                continue
            c.buf += chunk
            while c.inflight is not None:
                nl = c.buf.find(b"\n")
                if nl < 0:
                    break
                reply = bytes(c.buf[:nl])
                del c.buf[: nl + 1]
                i, t_sent = c.inflight
                c.inflight = None
                replies[i] = (now - t_sent, sha(reply) if digest(i) else reply)
                t_last = now
                if probe_every and len(replies) % probe_every == 0 and len(probed) < RSS_SAMPLES:
                    probed.append(probe())
                if c.first_wait is None:
                    c.first_wait = now - t_sent
                    if c.serial > 0:
                        hol.append(c.first_wait)
                if now < deadline and c.next < c.hi:
                    c.send(lines)
            if c.inflight is None:
                retire(c)
        for c in list(conns):
            if c.inflight is not None and now - c.inflight[1] > REQUEST_TIMEOUT_S:
                lost += 1
                retire(c)
    return replies, hol, lost, t_last - t_start, probed


# --------------------------------------------------------------------------
# Answer checks.  Each returns the number of wrong answers; a wrong answer
# counts as failed, it never aborts the run.


def check_cover_output(name, stdout, pinned):
    return 0 if sha(stdout) == pinned["cover_stdout"].get(name) else 1


def check_read(kinds, replies, verdicts, pull_digest):
    """kinds[i] is 'q' or 'c'; verdicts[i] is '1'/'0' for a 'q' (the chase
    on the session cover), '-' otherwise; pull_digest is the pinned digest
    of the `cover` reply."""
    wrong = 0
    for i, (_, reply) in replies.items():
        if kinds[i] == "c":
            wrong += reply != pull_digest
            continue
        try:
            r = json.loads(reply)
        except ValueError:
            wrong += 1
            continue
        want = verdicts[i] == "1"
        wrong += not (r.get("ok") is True and r.get("propagates") is want)
    return wrong


def check_churn(replies, final_reply, expected):
    """Every reply must be ok; the final `cover` must equal a fresh cover
    on the final Sigma, CFD for CFD."""
    wrong = 0
    for i, (_, reply) in replies.items():
        try:
            bad = json.loads(reply).get("ok") is not True
        except ValueError:
            bad = True
        if bad and wrong < 5:
            log(f"wrong reply to request {i}: {reply[:300]!r}")
        wrong += bad
    try:
        got = json.loads(final_reply)
    except ValueError:
        got = {}
    same = all(got.get(k) == expected[k] for k in ("cover", "complete", "always_empty"))
    if not same:
        log("final cover differs from a fresh cover on the final Sigma")
    return wrong + (0 if same else 1)


# --------------------------------------------------------------------------
# Workload: cover


def run_process(path, out_path):
    """One `cfdprop cover` process: wall seconds, CPU seconds, max RSS in
    MB, exit status.  stdout goes to out_path."""

    def on_alarm(signum, frame):
        raise TimeoutError

    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen([CFDPROP, "cover", path], stdin=subprocess.DEVNULL,
                             stdout=out, stderr=subprocess.DEVNULL)
        old = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROCESS_TIMEOUT_S)
        try:
            _, status, ru = os.wait4(p.pid, 0)
        except TimeoutError:
            p.kill()
            _, status, ru = os.wait4(p.pid, 0)
            status = -1
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        wall = time.perf_counter() - t0
    p.returncode = status
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, status


def workload_cover(seed, seconds, trace, pinned):
    docs = cover_docs()
    bad_docs = 0
    for name, path in docs.items():
        with open(path, "rb") as f:
            bad_docs += sha(f.read()) != pinned["docs"].get(name)
    rng = random.Random(seed)
    names = sorted(docs)
    if trace:
        order = names[:]
        rng.shuffle(order)
        ledger = json.loads(pbtool("replay-cover", *[docs[n] for n in order]))
        # No requests and no daemon on this workload.
        ledger.update({f"server.wire_us.{op}": 0.0 for op in ("propagates", "cover", "delta")})
        ledger["server.hol_wait_ms"] = 0.0
        ledger["workload.repeated_probe_share"] = 0.0
        return {"attempted": len(order), "failed": bad_docs, "ledger": ledger, "report": []}

    setup_s, daemon = cold_starts(docs[SERVE_DOC])
    daemon.stop()

    out_path = os.path.join(WORK, "cover.out")
    walls = {"primary": [], "secondary": []}
    cpu, rss, failed, done = 0.0, [], 0, 0
    t_start = time.perf_counter()
    last_round = 0.0
    while True:
        # Whole rounds only, so every run sees the same mix of docs.
        elapsed = time.perf_counter() - t_start
        if done and elapsed + last_round > seconds:
            break
        order = names[:]
        rng.shuffle(order)
        r0 = time.perf_counter()
        for name in order:
            wall, c, m, status = run_process(docs[name], out_path)
            with open(out_path, "rb") as f:
                out = f.read()
            ok = status == 0 and check_cover_output(name, out, pinned) == 0
            failed += not ok
            done += 1
            cpu += c
            rss.append(m)
            walls["secondary" if name.startswith("ec11-") else "primary"].append(wall)
        last_round = time.perf_counter() - r0
    window = time.perf_counter() - t_start
    return {
        "attempted": done,
        "failed": failed + bad_docs,
        "setup_s": setup_s,
        "window": window,
        "walls": walls,
        "cpu_ms_per_op": cpu * 1e3 / done,
        "rss_mb": statistics.mean(rss),
        "report": [],
    }


# --------------------------------------------------------------------------
# Workloads: serve-read and serve-churn


def read_stream(kind, seed, doc, seconds):
    reqs = os.path.join(WORK, f"{kind}.req")
    meta = os.path.join(WORK, f"{kind}.meta")
    count = STREAM_PER_S[kind] * max(seconds, TRACE_TCP_SECONDS)
    pbtool("gen-serve", kind.split("-")[1], seed, doc, count, reqs, meta)
    with open(reqs, "rb") as f:
        lines = f.read().split(b"\n")[:-1]
    with open(meta) as f:
        metas = f.read().split("\n")[:-1]
    return reqs, lines, [m[0] for m in metas], [m[2:] for m in metas]


def repeated_share(kinds, probe_ids, n):
    seen, repeats, probes = set(), 0, 0
    for i in range(n):
        if kinds[i] == "q":
            probes += 1
            repeats += probe_ids[i] in seen
            seen.add(probe_ids[i])
    return repeats / probes if probes else 0.0


def workload_serve(kind, seed, seconds, trace, pinned):
    docs = cover_docs()
    doc_name = SERVE_DOC
    doc = docs[doc_name]
    with open(doc, "rb") as f:
        bad_doc = sha(f.read()) != pinned["docs"].get(doc_name)
    reqs, lines, kinds, probe_ids = read_stream(kind, seed, doc, seconds)
    log(f"generated {len(lines)} requests")
    setup_s, daemon = cold_starts(doc)
    log("set up")
    window_s = TRACE_TCP_SECONDS if trace else seconds
    try:
        cpu0 = daemon.cpu_s()
        # A collector pause in the client would be timed as daemon latency;
        # the loop makes no reference cycles, so refcounting frees it all.
        gc.disable()
        replies, hol, lost, window, rss = load_loop(
            daemon.port, lines, window_s, SHARE[kind], lambda i: kinds[i] == "c",
            0 if trace else RSS_STEP[kind], daemon.rss_mb)
        gc.enable()
        cpu1 = daemon.cpu_s()
        if len(rss) < RSS_SAMPLES and not trace:
            log(f"perfbench: {len(rss)} of {RSS_SAMPLES} RSS samples; the rest read at the end")
            rss += [daemon.rss_mb()] * (RSS_SAMPLES - len(rss))
        final = request(daemon.port, b'{"op": "cover", "session": "b"}') if kind == "serve-churn" else None
    finally:
        daemon.stop()
    log(f"window done: {len(replies)} replies")
    attempted = len(replies) + lost
    sent = max(replies) + 1 if replies else 0

    lat = {"q": [], "c": [], "d": []}
    plans = {"noop": 0, "patched": 0, "recomputed": 0}
    applied = []
    for i, (dt, reply) in replies.items():
        k = kinds[i]
        lat["d" if k in "ar" else k].append(dt)
        if k in "ar":
            try:
                plan = json.loads(reply).get("plan")
            except ValueError:
                plan = None
            if plan in plans:
                plans[plan] += 1
            if plan in ("patched", "recomputed"):
                body = json.loads(lines[i])["cfd"]
                applied.append(("+ " if k == "a" else "- ") + body)

    if kind == "serve-read":
        verdicts_path = os.path.join(WORK, "verdicts")
        pbtool("expect-read", doc, reqs, sent, verdicts_path)
        with open(verdicts_path) as f:
            verdicts = f.read()
        wrong = check_read(kinds, replies, verdicts, pinned["cover_pull"].get(doc_name))
        secondary = lat["c"]
    else:
        applied_path = os.path.join(WORK, "applied")
        with open(applied_path, "w") as f:
            f.write("".join(a + "\n" for a in applied))
        expected = json.loads(pbtool("expect-churn", doc, applied_path))
        wrong = check_churn(replies, final, expected)
        secondary = lat["d"]
    log("answers checked")
    failed = lost + wrong + bad_doc
    share = repeated_share(kinds, probe_ids, sent)
    report_lines = [
        ("workload", f"doc {doc_name}, {attempted} requests attempted, repeated-probe share {share:.4f}, "
                     f"delta plans {plans}"),
    ]

    if trace:
        n = min(REPLAY[kind], len(lines))
        ledger = json.loads(pbtool("replay-serve", doc, reqs, n))
        for op, xs in (("propagates", lat["q"]), ("cover", lat["c"]), ("delta", lat["d"])):
            client_us = statistics.median(xs) * 1e6 if xs else 0.0
            inproc = ledger.get(f"server.handle_line_us.{op}.p50", 0.0)
            ledger[f"server.wire_us.{op}"] = client_us - inproc if xs and inproc else 0.0
        ledger["server.hol_wait_ms"] = statistics.median(hol) * 1e3 if hol else 0.0
        ledger["workload.repeated_probe_share"] = repeated_share(kinds, probe_ids, n)
        return {"attempted": attempted, "failed": failed, "ledger": ledger, "report": report_lines}

    return {
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "window": window,
        "walls": {"primary": lat["q"], "secondary": secondary},
        "cpu_ms_per_op": (cpu1 - cpu0) * 1e3 / max(1, len(replies)),
        "rss_mb": statistics.mean(rss) if rss else 0.0,
        "hol": hol,
        "report": report_lines,
    }


# --------------------------------------------------------------------------
# Output

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("primary_p50_ms", "ms"),
    ("primary_tail_ms", "ms"),
    ("secondary_p50_ms", "ms"),
    ("secondary_tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("rss_mb", "MB"),
]

# Names of the primary / secondary operation class per workload, for the
# human-readable report (the names the ledger in README.md uses).
OP_NAMES = {
    "cover": ("cover (|Y| 25 and 50 docs)", "cover (|Ec| 11 docs)"),
    "serve-read": ("query (propagates)", "pull (cover)"),
    "serve-churn": ("query (propagates)", "delta (add_cfd/remove_cfd)"),
}


def end_to_end(workload, r):
    pq, sq = TAIL_Q[workload]
    pp50, ptail, pn, pbeyond = summarise(r["walls"]["primary"], pq)
    sp50, stail, sn, sbeyond = summarise(r["walls"]["secondary"], sq)
    done = pn + sn
    metrics = {
        "setup_s": r["setup_s"],
        "throughput_ops_s": done / r["window"],
        "primary_p50_ms": pp50 * 1e3,
        "primary_tail_ms": ptail * 1e3,
        "secondary_p50_ms": sp50 * 1e3,
        "secondary_tail_ms": stail * 1e3,
        "cpu_ms_per_op": r["cpu_ms_per_op"],
        "rss_mb": r["rss_mb"],
    }
    pname, sname = OP_NAMES[workload]
    print(f"# {workload}: {done} operations in {r['window']:.3f} s")
    print(f"#   primary   = {pname}: n={pn}, tail = p{pq * 100:g} with {pbeyond} beyond")
    print(f"#   secondary = {sname}: n={sn}, tail = p{sq * 100:g} with {sbeyond} beyond")
    for cls in ("primary", "secondary"):
        every = sorted(r["walls"][cls])
        ladder = ", ".join(f"p{q * 100:g} {quantile(every, q) * 1e3:.4f}"
                           for q in (0.5, 0.75, 0.9, 0.95, 0.99, 0.999))
        print(f"#   {cls} ms: {ladder}")
    if "hol" in r:
        hol = r["hol"]
        print(f"#   head-of-line wait: {len(hol)} connections, median "
              f"{statistics.median(hol) * 1e3 if hol else 0:.1f} ms")
    print(f"#   failed_ratio = {r['failed']}/{r['attempted']} = "
          f"{r['failed'] / max(1, r['attempted']):.6f}")
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        build()
        log("built")
        os.makedirs(WORK, exist_ok=True)
        with open(PINNED) as f:
            pinned = json.load(f)
        if args.workload == "cover":
            r = workload_cover(args.seed, args.seconds, args.trace, pinned)
        else:
            r = workload_serve(args.workload, args.seed, args.seconds, args.trace, pinned)
        for label, text in r["report"]:
            print(f"# {label}: {text}")
        if args.trace:
            metrics = ledger_metrics(r["ledger"])
        else:
            metrics = end_to_end(args.workload, r)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps({
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    }))
    return 0


def ledger_metrics(ledger):
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer"]
    missing = [m["name"] for m in spec if m["name"] not in ledger]
    if missing:
        raise BenchError(f"ledger lacks {missing}")
    for name in sorted(ledger):
        print(f"#   {name} = {ledger[name]:.6g}")
    return {m["name"]: {"value": ledger[m["name"]], "unit": m["unit"]} for m in spec}


if __name__ == "__main__":
    sys.exit(main())
