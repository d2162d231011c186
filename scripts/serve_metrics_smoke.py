#!/usr/bin/env python3
"""Live serve-telemetry smoke.

Boots `cfdprop serve --tcp 0 --metrics-port 0 --replicas 2 --access-log
... --slow-ms 0` (port 0 = kernel-assigned, parsed back from the
announce lines on stderr), drives a short scripted session over TCP —
ping, open, cover, propagates, a Σ-delta, stats, metrics — and then
checks every telemetry surface the flags turn on:

  * the `stats` op reports trace_dropped, memo_entries, and the
    per-session epoch (1 after the single add_cfd) and replica-slot
    count (2, from --replicas 2);
  * the `metrics` op returns the JSON twin of the exposition: request
    histograms for each driven op plus the server gauges, including the
    serve.replicas gauge and the serve.epoch_swaps /
    serve.replica_reads counters from the epoch-swap refactor;
  * GET /metrics answers 200 with a text body (written to METRICS_OUT
    for scripts/check_metrics.py) — scraped *before* the `metrics` op so
    it proves the cross-domain shard merge, not a flush side effect of
    the serving domain; a non-/metrics path answers 404;
  * the access log holds one JSON object per request, in order, with
    the full field set; the open/add_cfd lines carry the session and
    epoch, the add_cfd line the delta plan; with --slow-ms 0 every
    line is marked slow.  The daemon appends to the log, so only the
    lines appended during this run are checked: the smoke can run
    again into the same path.

Usage: serve_metrics_smoke.py CFDPROP_BIN ACCESS_LOG_OUT METRICS_OUT
Exit status: 0 = all surfaces OK, 1 = any check failed (daemon output
is echoed for the CI log).
"""

import json
import os
import re
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

DOC = (
    "schema R1(AC: string, phn: string, name: string, street: string, "
    "city: string, zip: string); "
    "cfd R1([zip] -> [street]); cfd R1([AC] -> [city]); "
    "view V = from [R1(AC, phn, name, street, city, zip)] "
    "constants [CC='44'] "
    "project [CC, AC, phn, name, street, city, zip];"
)

ACCESS_FIELDS = ("ts", "id", "session", "op", "epoch", "plan",
                 "latency_us", "ok", "slow")


def fail(msg):
    print(f"SERVE METRICS SMOKE FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 4:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    binary, access_out, metrics_out = sys.argv[1:]
    # `serve --access-log` appends: remember where this run's lines start.
    try:
        log_start = os.path.getsize(access_out)
    except FileNotFoundError:
        log_start = 0

    proc = subprocess.Popen(
        [binary, "serve", "--tcp", "0", "--metrics-port", "0",
         "--replicas", "2", "--access-log", access_out, "--slow-ms", "0"],
        stderr=subprocess.PIPE, text=True)
    try:
        tcp_port = metrics_port = None
        deadline = time.time() + 60
        while time.time() < deadline and not (tcp_port and metrics_port):
            line = proc.stderr.readline()
            if not line:
                break
            print(line, end="")
            m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
            if m:
                tcp_port = int(m.group(1))
            m = re.search(r"metrics on 127\.0\.0\.1:(\d+)/metrics", line)
            if m:
                metrics_port = int(m.group(1))
        if not (tcp_port and metrics_port):
            fail("daemon did not announce both ports")

        sock = socket.create_connection(("127.0.0.1", tcp_port), timeout=30)
        f = sock.makefile("rw")

        def req(obj):
            f.write(json.dumps(obj) + "\n")
            f.flush()
            resp = json.loads(f.readline())
            if resp.get("ok") is not True:
                fail(f"request {obj} drew {resp}")
            return resp

        req({"op": "ping", "id": 1})
        req({"op": "open", "id": 2, "session": "s", "doc": DOC})
        req({"op": "cover", "id": 3, "session": "s"})
        req({"op": "propagates", "id": 4, "session": "s",
             "cfd": "V([zip] -> [street])"})
        delta = req({"op": "add_cfd", "id": 5, "session": "s",
                     "cfd": "R1([city] -> [AC])"})
        stats = req({"op": "stats", "id": 6})

        # -- HTTP exposition ----------------------------------------------
        # Scraped *before* any `metrics` op runs on the serving domain:
        # the responder lives in its own domain, so this only works if
        # Obs.snapshot merges the serving domain's unflushed shard (a
        # prior regression had the scrape serving zeros until a protocol
        # op happened to flush for it).
        body = urllib.request.urlopen(
            f"http://127.0.0.1:{metrics_port}/metrics", timeout=30
        ).read().decode()
        with open(metrics_out, "w") as out:
            out.write(body)
        if not re.search(
                r'^cfdprop_serve_op_req_us_count\{op="cover"\} [1-9]',
                body, re.M):
            fail("scrape before any metrics op lacks the cover op histogram")
        if not re.search(r"^cfdprop_serve_requests_total [1-9]", body, re.M):
            fail("scrape before any metrics op lacks serve.requests")
        try:
            urllib.request.urlopen(
                f"http://127.0.0.1:{metrics_port}/nope", timeout=30)
            fail("GET /nope did not 404")
        except urllib.error.HTTPError as exc:
            if exc.code != 404:
                fail(f"GET /nope: expected 404, got {exc.code}")

        metrics = req({"op": "metrics", "id": 7})

        # -- stats surface ------------------------------------------------
        for key in ("trace_dropped", "memo_entries"):
            if not isinstance(stats.get(key), int):
                fail(f"stats.{key} missing: {stats}")
        epoch = stats.get("sessions", {}).get("s", {}).get("epoch")
        if epoch != 1:
            fail(f"session epoch after one delta: expected 1, got {epoch!r}")
        replicas = stats.get("sessions", {}).get("s", {}).get("replicas")
        if replicas != 2:
            fail(f"session replicas under --replicas 2: got {replicas!r}")

        # -- metrics op (JSON twin) ---------------------------------------
        hists = metrics.get("hists")
        gauges = metrics.get("gauges")
        if not isinstance(hists, dict) or not isinstance(gauges, dict):
            fail(f"metrics op lacks hists/gauges: {metrics}")
        for op in ("ping", "open", "cover", "propagates", "add_cfd", "stats"):
            h = hists.get(f"serve.req_us.{op}")
            if not h or h.get("count", 0) < 1:
                fail(f"no request histogram for op {op}: {sorted(hists)}")
            if not h["p50_us"] <= h["p90_us"] <= h["p99_us"]:
                fail(f"op {op} percentiles unordered: {h}")
        plan = delta.get("plan")
        if hists.get(f"serve.delta_us.{plan}", {}).get("count", 0) < 1:
            fail(f"no delta-tier histogram for plan {plan!r}")
        if gauges.get("serve.sessions") != 1:
            fail(f"serve.sessions gauge: {gauges}")
        if gauges.get("serve.session_epoch.s") != 1:
            fail(f"serve.session_epoch gauge: {gauges}")
        if "serve.memo_entries" not in gauges or "serve.trace_dropped" not in gauges:
            fail(f"missing gauges: {sorted(gauges)}")
        if gauges.get("serve.replicas") != 2:
            fail(f"serve.replicas gauge under --replicas 2: {gauges}")
        counters = metrics.get("counters")
        if not isinstance(counters, dict):
            fail(f"metrics op lacks counters: {sorted(metrics)}")
        if counters.get("serve.epoch_swaps", 0) < 1:
            fail(f"serve.epoch_swaps after one add_cfd: {counters}")
        if counters.get("serve.replica_reads", 0) < 1:
            fail(f"serve.replica_reads after a propagates op: {counters}")

        sock.close()
        proc.terminate()
        proc.wait(timeout=30)

        # -- access log ----------------------------------------------------
        with open(access_out, "rb") as log:
            log.seek(log_start)
            appended = log.read().decode()
        lines = [json.loads(l) for l in appended.splitlines() if l.strip()]
        if len(lines) != 7:
            fail(f"access log: expected 7 new lines, got {len(lines)}")
        for entry in lines:
            missing = [k for k in ACCESS_FIELDS if k not in entry]
            if missing:
                fail(f"access log line missing {missing}: {entry}")
            if entry["slow"] is not True:  # --slow-ms 0: everything is slow
                fail(f"slow-threshold 0 left a line unmarked: {entry}")
        by_id = {entry["id"]: entry for entry in lines}
        if [entry["id"] for entry in lines] != list(range(1, 8)):
            fail(f"access log ids out of order: {sorted(by_id)}")
        if by_id[5]["op"] != "add_cfd" or by_id[5]["plan"] != plan:
            fail(f"add_cfd log line lacks the delta plan: {by_id[5]}")
        if by_id[5]["epoch"] != 1 or by_id[5]["session"] != "s":
            fail(f"add_cfd log line lacks session/epoch: {by_id[5]}")

        print(
            f"serve metrics smoke OK: {len(lines)} logged requests, "
            f"{len(hists)} histograms, {len(gauges)} gauges, "
            f"{len(body.splitlines())} exposition lines"
        )
        return 0
    finally:
        proc.kill()


if __name__ == "__main__":
    sys.exit(main())
