#!/usr/bin/env python3
"""Cover regression guard.

Compares a smoke-bench JSON dump (bench/main.exe --json) against the
checked-in baseline BENCH_cover.json.  Covers are a pure function of
the workload seeds (1000 + 7*s), so for the same --seeds value every
shared point must match the baseline *exactly* — any drift means the
propagation engine changed semantics, not just speed.  Cover sizes are
compared everywhere; wherever the baseline point carries the cover
digests (digest40/digest50: each seed's sorted cover, digested in seed
order — the fig5-8 and XL points), they must match too, so a change
that swaps one cover CFD for another of the same count is caught at
the byte level.

Timings are environment-dependent and deliberately ignored.

With --stats STATS_JSON, additionally validates the aggregated
observability dump (bench/main.exe --stats-json): it must be
well-formed JSON with a total counters section in which the pipeline's
load-bearing counters — rbr.resolvents_generated, fast_impl.chase_rounds,
the IR conversion edges ir.of_ast / ir.to_ast, and the packed kernel's
fast_impl.mask_prune_skips / fast_impl.rule_wakes /
fast_impl.retired_skips / fast_impl.arena_resets /
fast_impl.goal_stops — are present and nonzero.  A zero on the
RBR/chase counters means the instrumented phases silently stopped
running; a zero on the IR edges means the pipeline stopped routing CFDs
through the interned representation; a zero on mask_prune_skips or
arena_resets means the flat-bitset kernel stopped pruning or stopped
reusing its arena (the PR 5 wide-schema bug was exactly a silent
mask_prune_skips = 0); a zero on rule_wakes means rules with a constant
premise are no longer woken by their key constant (they either never
fire or are scanned in every chase again); a zero on retired_skips
means rules whose premise has held are re-checked for the rest of the
chase; a zero on goal_stops means implied queries went back to chasing
to the fixpoint.  None of these would show up in cover sizes alone.

The same script validates the XL sweep baseline: point rows there carry
extra "gc" objects (and, at 10k/20k, the "ab" record of the retired
packed-vs-reference kernel comparison), which the cover comparison
ignores.

When the smoke dump carries a serve figure (any point with a "serve"
object), the replicated-session counters serve.replica_reads and
serve.epoch_swaps join the mandatory set automatically — a zero on
either means the replica slots or the epoch-swap path silently stopped
running.

--extra-counters NAME[,NAME...] appends counters to the mandatory set —
the fleet smoke requires memo.hits/memo.misses/memo.inserts/fleet.views
(a zero memo.hits on the overlap workload means cross-view sharing
silently stopped).  A name that is absent from total.counters also
resolves from total.hists by its observation count, so the serve smoke
can require the serve.req_us request histogram alongside its counters.

Serve points additionally carry a "serve"."ops" object (per-op request
latency percentiles from the duration channel); when present it is
validated structurally: the scripted stream's ops (propagates, cover,
add_cfd, remove_cfd) must each appear with a positive count and ordered
percentiles p50 <= p95 <= p99.  The op counts are a pure function of
the request script and --seeds (240/2400/21120/240 for
add_cfd/cover/propagates/remove_cfd at --seeds 3), so each must equal
the baseline point's count.  Where a serve point carries "stats", every
op's request histogram must agree with its dispatch counter:
hists["serve.req_us.<op>"].count == counters["serve.op.<op>"] — a
mismatch means the duration channel covered only part of the point.

--bench-file PATH names the baseline explicitly (equivalent to the
positional BASELINE_JSON, which stays supported; the serve smoke guards
against BENCH_serve.json this way).

Usage: check_cover_drift.py SMOKE_JSON [BASELINE_JSON] [--stats STATS_JSON]
                            [--bench-file BASELINE_JSON]
                            [--extra-counters A,B,...]
Exit status: 0 = no drift, 1 = drift or malformed input.
"""

import json
import sys

MANDATORY_COUNTERS = (
    "rbr.resolvents_generated",
    "fast_impl.chase_rounds",
    "ir.of_ast",
    "ir.to_ast",
    "fast_impl.mask_prune_skips",
    "fast_impl.rule_wakes",
    "fast_impl.retired_skips",
    "fast_impl.arena_resets",
    "fast_impl.goal_stops",
)

# Required in addition whenever the smoke dump carries a serve figure
# (the replicated-session refactor): a zero serve.replica_reads means
# queries stopped going through the replica slots, and a zero
# serve.epoch_swaps means the delta stream stopped publishing new
# snapshots.
SERVE_MANDATORY_COUNTERS = (
    "serve.replica_reads",
    "serve.epoch_swaps",
)


def check_stats(path, extra_counters=()):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"STATS GUARD FAILED: cannot parse {path}: {exc}", file=sys.stderr)
        return False
    counters = doc.get("total", {}).get("counters")
    if not isinstance(counters, dict):
        print(
            f"STATS GUARD FAILED: {path} has no total.counters object",
            file=sys.stderr,
        )
        return False
    hists = doc.get("total", {}).get("hists", {})
    if not isinstance(hists, dict):
        hists = {}

    def resolve(name):
        value = counters.get(name)
        if value is None and name in hists:
            value = hists[name].get("count")
        return value

    required = MANDATORY_COUNTERS + tuple(extra_counters)
    bad = []
    for name in required:
        value = resolve(name)
        if not isinstance(value, int) or value <= 0:
            bad.append(f"  {name}: expected a positive count, got {value!r}")
    if bad:
        print(
            f"STATS GUARD FAILED: {path} — instrumented phases did not run",
            file=sys.stderr,
        )
        print("\n".join(bad), file=sys.stderr)
        return False
    summary = ", ".join(f"{n}={resolve(n)}" for n in required)
    print(f"stats guard OK: {summary}")
    return True


SERVE_STREAM_OPS = ("propagates", "cover", "add_cfd", "remove_cfd")


def check_serve_stats(key, stats):
    """Each op's request histogram count equals its dispatch counter."""
    counters = stats.get("counters", {})
    hists = stats.get("hists", {})
    ops = {n[len("serve.op."):] for n in counters if n.startswith("serve.op.")}
    ops |= {n[len("serve.req_us."):] for n in hists if n.startswith("serve.req_us.")}
    bad = []
    for op in sorted(ops):
        timed = hists.get(f"serve.req_us.{op}", {}).get("count")
        counted = counters.get(f"serve.op.{op}")
        if timed != counted:
            bad.append(
                f"  {key[0]} x={key[1]} op={op}: serve.req_us.{op} count "
                f"{timed!r} != serve.op.{op} {counted!r}"
            )
    return bad


def check_serve_ops(points, base):
    """Structural check of the per-op latency percentiles on serve points,
    their counts against the baseline's, and the point stats' request
    histograms against the dispatch counters."""
    serve_pts = [
        (key, pt["serve"]) for key, pt in sorted(points.items())
        if isinstance(pt.get("serve"), dict)
    ]
    if not serve_pts:
        return True  # not a serve smoke
    bad = []
    for key, serve in serve_pts:
        ops = serve.get("ops")
        if not isinstance(ops, dict):
            bad.append(f"  {key[0]} x={key[1]}: no serve.ops object")
            continue
        for op in SERVE_STREAM_OPS:
            entry = ops.get(op)
            if not isinstance(entry, dict):
                bad.append(f"  {key[0]} x={key[1]} op={op}: missing")
                continue
            count = entry.get("count")
            p50 = entry.get("p50_us")
            p95 = entry.get("p95_us")
            p99 = entry.get("p99_us")
            if not isinstance(count, int) or count <= 0:
                bad.append(f"  {key[0]} x={key[1]} op={op}: count={count!r}")
            elif not all(
                isinstance(v, (int, float)) and v > 0 for v in (p50, p95, p99)
            ):
                bad.append(
                    f"  {key[0]} x={key[1]} op={op}: "
                    f"p50={p50!r} p95={p95!r} p99={p99!r}"
                )
            elif not p50 <= p95 <= p99:
                bad.append(
                    f"  {key[0]} x={key[1]} op={op}: percentiles unordered "
                    f"({p50} / {p95} / {p99})"
                )
            base_ops = (base.get(key, {}).get("serve") or {}).get("ops")
            if isinstance(base_ops, dict) and op in base_ops:
                want = base_ops[op].get("count")
                if count != want:
                    bad.append(
                        f"  {key[0]} x={key[1]} op={op}: count {count!r}, "
                        f"baseline {want!r}"
                    )
        if isinstance(points[key].get("stats"), dict):
            bad.extend(check_serve_stats(key, points[key]["stats"]))
    if bad:
        print(
            "SERVE OPS GUARD FAILED: per-op rows malformed or inconsistent",
            file=sys.stderr,
        )
        print("\n".join(bad), file=sys.stderr)
        return False
    nops = sum(len(s.get("ops", {})) for _, s in serve_pts)
    print(
        f"serve ops guard OK: {len(serve_pts)} point(s), "
        f"{nops} per-op percentile row(s)"
    )
    return True


def load_points(path):
    with open(path) as f:
        doc = json.load(f)
    figures = doc.get("figures", {})
    out = {}
    for fig, body in figures.items():
        for pt in body.get("points", []):
            out[(fig, pt["x"])] = pt
    return doc.get("seeds"), out


def main():
    argv = sys.argv[1:]
    stats_path = None
    extra_counters = ()
    if "--stats" in argv:
        i = argv.index("--stats")
        if i + 1 >= len(argv):
            print(__doc__.strip(), file=sys.stderr)
            return 1
        stats_path = argv[i + 1]
        argv = argv[:i] + argv[i + 2 :]
    bench_file = None
    if "--bench-file" in argv:
        i = argv.index("--bench-file")
        if i + 1 >= len(argv):
            print(__doc__.strip(), file=sys.stderr)
            return 1
        bench_file = argv[i + 1]
        argv = argv[:i] + argv[i + 2 :]
    if "--extra-counters" in argv:
        i = argv.index("--extra-counters")
        if i + 1 >= len(argv):
            print(__doc__.strip(), file=sys.stderr)
            return 1
        extra_counters = tuple(
            name for name in argv[i + 1].split(",") if name
        )
        argv = argv[:i] + argv[i + 2 :]
    if len(argv) not in (1, 2):
        print(__doc__.strip(), file=sys.stderr)
        return 1
    smoke_path = argv[0]
    if bench_file is not None and len(argv) == 2:
        print(
            "cannot pass both a positional baseline and --bench-file",
            file=sys.stderr,
        )
        return 1
    base_path = (
        bench_file
        if bench_file is not None
        else argv[1] if len(argv) == 2 else "BENCH_cover.json"
    )

    smoke_seeds, smoke = load_points(smoke_path)
    base_seeds, base = load_points(base_path)

    is_serve_smoke = any(
        isinstance(pt.get("serve"), dict) for pt in smoke.values()
    )
    if is_serve_smoke:
        extra_counters = SERVE_MANDATORY_COUNTERS + tuple(
            name for name in extra_counters
            if name not in SERVE_MANDATORY_COUNTERS
        )

    if stats_path is not None and not check_stats(stats_path, extra_counters):
        return 1

    if smoke_seeds != base_seeds:
        print(
            f"DRIFT GUARD SKIPPED: seed counts differ "
            f"(smoke={smoke_seeds}, baseline={base_seeds}); "
            f"cover means are only comparable for identical --seeds",
            file=sys.stderr,
        )
        return 1

    if not check_serve_ops(smoke, base):
        return 1

    shared = sorted(set(smoke) & set(base))
    if not shared:
        print("DRIFT GUARD FAILED: no shared (figure, x) points", file=sys.stderr)
        return 1

    drift = []
    for key in shared:
        for col in ("cover40", "cover50", "empty_pct", "digest40", "digest50"):
            if col in base[key] and smoke[key].get(col) != base[key][col]:
                drift.append(
                    f"  {key[0]} x={key[1]} {col}: "
                    f"baseline={base[key][col]} got={smoke[key].get(col)}"
                )

    if drift:
        print(f"DRIFT GUARD FAILED: covers diverge from {base_path}")
        print("\n".join(drift))
        print(
            "If the change is intentional (engine semantics changed), "
            "regenerate the baseline with bench/main.exe --json and commit it."
        )
        return 1

    print(f"drift guard OK: {len(shared)} point(s) match the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
