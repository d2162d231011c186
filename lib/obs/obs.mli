(** Engine observability: three recording channels, each behind its own
    flag.

    - {b Counters} ({!set_enabled}): named monotonic counts.
    - {b Durations} ({!set_hist_enabled}): log-linear histograms of
      microseconds.  A timing span is simply the histogram of its
      durations: {!with_span} times its body into one, and request
      latencies are observed directly with {!observe_us}.
    - {b Timeline} ({!set_trace_enabled}): Chrome trace events, one track
      per domain; {!with_span} also emits a begin/end pair there.

    The library is built for a hot path that is instrumented permanently
    but measured rarely: a disabled counter bump or observation costs a
    single atomic load and branch, a disabled span two.  While a channel
    is on, counts and observations land in the calling domain's shard (no
    lock, no contention); the global sink is one more shard, into which a
    domain's shard is merged under a mutex at explicit flush points.  The
    parallel pool flushes a worker's shard at the end of every task,
    {e before} the task is reported complete, so a [Pool.map] caller
    reading a {!snapshot} right after the map returns sees every task's
    contribution (multicore runs report correctly).

    Metrics are registered by name, idempotently: registering the same
    name twice returns the same handle.  Counters are monotonic while
    recording; {!reset} zeroes every channel (typically between benchmark
    points).  Nested [with_span]s each record their own full duration,
    so a parent span includes its children. *)

type counter
type histogram

(** [counter name] registers (or looks up) the counter [name].
    Thread-safe; intended for module-initialisation time. *)
val counter : string -> counter

(** [histogram name] registers (or looks up) the duration histogram
    [name] — a timing span or a latency.  Same registry discipline as
    counters. *)
val histogram : string -> histogram

(** Whether the counter channel is recording.  The hot-path guard. *)
val enabled : unit -> bool

(** [set_enabled true] zeroes every counter and starts recording them;
    [false] stops it (recorded counts stay readable).  The other channels
    are left alone. *)
val set_enabled : bool -> unit

(** Zero every channel — counters, durations and trace events — in the
    sink and in every domain's shard.  Domains still recording may
    straddle the reset, so reset at quiescent points.  A reset between
    benchmark points makes every per-point snapshot and trace file
    self-contained. *)
val reset : unit -> unit

(** [add c n] bumps [c] by [n ≥ 0] in the calling domain's shard.
    No-op when the counter channel is off. *)
val add : counter -> int -> unit

val incr : counter -> unit

(** [with_span h f] runs [f ()].  While the duration channel is on, it
    records [f]'s wall-clock duration in µs into [h] (exceptions
    included).  While the timeline is on, it also emits a duration event
    named after [h] whose end carries the phase's [Gc.quick_stat] deltas
    (minor/major words and collections) as args; the outermost span on
    each domain also publishes those deltas as [gc.*] counters.  With
    both channels off, exactly [f ()]. *)
val with_span : histogram -> (unit -> 'a) -> 'a

(** Seconds from [CLOCK_MONOTONIC] (arbitrary origin, never steps back);
    exposed so instrumented libraries need no clock dependency.  Durations
    are safe across NTP adjustments; do not treat the value as calendar
    time — {!trace_origin_unix_s} anchors it to the epoch. *)
val now : unit -> float

(** [minor_allocated f] runs [f ()] and returns the number of minor-heap
    words it allocated ([Gc.minor_words] delta; the probe itself
    allocates nothing).  This is the mechanical check behind the packed
    kernel's zero-allocation steady-state contract — the kernel test
    suite and the XL bench both assert on it. *)
val minor_allocated : (unit -> unit) -> float

(** Merge the calling domain's shard and trace ring into the global sink
    and clear them.  Cheap when both are clean. *)
val flush_domain : unit -> unit

(** {1 Duration histograms}

    Log-linear histograms over integer microseconds, HdrHistogram-style.
    The first 16 buckets are exact (width 1 µs); every subsequent octave
    splits into 16 sub-buckets, so the relative bucket error is ≤ 6.25%
    at every scale up to ~67 s (values beyond share one overflow bucket;
    the maximum stays exact). *)

(** Whether the duration channel is recording — independent of
    {!enabled} and {!trace_enabled}. *)
val hist_enabled : unit -> bool

(** [set_hist_enabled true] zeroes every histogram and starts recording
    durations; [false] stops it (recorded buckets stay readable).  The
    other channels are left alone. *)
val set_hist_enabled : bool -> unit

(** [observe_us h v] records one observation of [v] microseconds
    (floored to an integer for bucketing; the sum and max keep the exact
    value).  No-op when the channel is disabled. *)
val observe_us : histogram -> float -> unit

(** Total number of buckets in the fixed layout (the last is the
    overflow bucket). *)
val hist_buckets : int

(** [bucket_of_us v] maps a value to its bucket index.  Monotone
    non-decreasing in [v]. *)
val bucket_of_us : float -> int

(** Inclusive lower bound of bucket [i] in µs. *)
val bucket_lower_us : int -> float

(** Exclusive upper bound of bucket [i] in µs ([infinity] for the
    overflow bucket).  [bucket_upper_us i = bucket_lower_us (i + 1)]
    elsewhere. *)
val bucket_upper_us : int -> float

(** One histogram in a snapshot: exact observation count, sum and max
    (µs), and the sparse bucket table [(bucket_index, count)] sorted by
    index with zero buckets omitted. *)
type hist = {
  h_count : int;
  h_sum_us : float;
  h_max_us : float;
  h_buckets : (int * int) list;
}

(** [hist_quantile h q] is the [q]-quantile (rank [ceil (q·n)]) of the
    recorded values at bucket resolution: the result falls in exactly the
    bucket containing the rank-based quantile of the raw observations.
    [0.] on an empty histogram. *)
val hist_quantile : hist -> float -> float

(** Pointwise bucket sum; counts and sums add, maxima take the max. *)
val hist_merge : hist -> hist -> hist

(** An immutable view of the sink: counters as [(name, value)] and
    histograms as [(name, hist)], sorted by name, zero entries omitted.
    [spans] is derived from [hists]: each histogram as [(name, (count,
    total_seconds))]. *)
type snapshot = {
  counters : (string * int) list;
  spans : (string * (int * float)) list;
  hists : (string * hist) list;
}

val empty_snapshot : snapshot

(** [snapshot ()] flushes the calling domain, then reads the sink merged
    with every live domain's unflushed shard — so a reader in one domain
    (a metrics scrape, a stats op) sees what other domains have recorded
    without those domains reaching a flush point.  Increments in flight
    on another domain may be missed by one snapshot and picked up by the
    next; totals are never double-counted and never decrease. *)
val snapshot : unit -> snapshot

(** Pointwise sum: counters add, histograms merge by {!hist_merge}. *)
val merge : snapshot -> snapshot -> snapshot

(** A two-section fixed-width text table: counters, then histograms
    (count, sum, p50/p90/p99 and max in µs). *)
val pp : Format.formatter -> snapshot -> unit

(** [{"counters": {name: int, …}, "hists": {name: {"count": int, "sum_us":
    float, "max_us": float, "p50_us": float, "p90_us": float, "p99_us":
    float, "buckets": [[index, count], …]}, …}}] — names are
    JSON-escaped. *)
val to_json : snapshot -> string

(** {1 Trace-event timeline}

    The third recording channel: timestamped begin/end and
    instant events on one track per domain, exported as Chrome
    trace-event JSON (loadable in Perfetto or [chrome://tracing]).

    Events land in a per-domain ring buffer (no locks on the record
    path) and drain into the global sink at the same flush points as the
    counters.  The ring has a fixed capacity and {e drops} new events on
    overflow (counted, see {!trace_dropped}) instead of overwriting —
    and every recorded ['B'] reserves the slot for its ['E'], so a
    matched pair can never be split by a full buffer. *)

(** One trace event.  [ph] is ['B'] (begin), ['E'] (end) or ['i']
    (instant); [ts_us] is microseconds since the process-wide trace
    origin; [tid] the recording domain's dense track id. *)
type event = {
  ev_name : string;
  ph : char;
  ts_us : float;
  tid : int;
  ev_args : (string * string) list;
}

(** Whether the trace recorder is on — independent of {!enabled}. *)
val trace_enabled : unit -> bool

(** [Unix.gettimeofday] captured at the same instant as the monotonic
    trace origin, exported in the trace's [otherData] as
    [trace_origin_unix_s] so traces from different runs (whose monotonic
    origins are incomparable) can be aligned on wall-clock time. *)
val trace_origin_unix_s : float

(** [set_trace_enabled true] clears the event sink and starts recording;
    [false] stops it (recorded events stay readable). *)
val set_trace_enabled : bool -> unit

(** Per-domain ring capacity (default [65536] events).  Takes effect for
    a domain when its ring is next empty; set it before enabling.
    Raises [Invalid_argument] below 8. *)
val set_trace_capacity : int -> unit

(** [trace_begin name] opens a duration event on the calling domain's
    track.  Must be balanced by {!trace_end}; prefer {!with_span}. *)
val trace_begin : ?args:(string * string) list -> string -> unit

(** [trace_end name] closes the innermost open duration event.  [args]
    values that parse as numbers are exported as JSON numbers. *)
val trace_end : ?args:(string * string) list -> string -> unit

val trace_instant : ?args:(string * string) list -> string -> unit

(** Name the calling domain's track in the exported trace (thread_name
    metadata).  The main domain is pre-named ["main"]. *)
val set_track_name : string -> unit

(** Events dropped to full ring buffers since the last reset (global
    sink plus the calling domain). *)
val trace_dropped : unit -> int

(** [trace_events ()] flushes the calling domain and returns every
    recorded event, grouped by track, chronological within each track. *)
val trace_events : unit -> event list

(** Chrome trace-event JSON: [{"traceEvents": [...], ...}] with one
    [thread_name] metadata record per named track and the drop counter
    in [otherData].  Uses {!trace_events} when [events] is omitted. *)
val trace_to_json : ?events:event list -> unit -> string

(** [write_trace path] writes {!trace_to_json} to [path]. *)
val write_trace : string -> unit
