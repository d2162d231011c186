(** The serve front end: a named-session store plus the line-protocol
    dispatch loop, shared by [cfdprop serve] (stdin/stdout or TCP) and
    the [--serve-qps] bench driver (which calls {!handle_line}
    directly).

    One server owns one shared {!Propagation.Memo}: sessions on the same
    schema share line-1 slices and implication verdicts across epochs
    {e and} across sessions.  Session opens go
    through a table mutex, but the request path is lock-free at the
    server tier: session lookup reads an atomic mirror of the table, and
    the request/error totals are atomics, so {!handle_line} is safe to
    call from several domains.  Per-session concurrency is the session's
    own affair — epoch-swapped snapshots with one compiled engine each
    (see {!Session}). *)

type t

(** [create ()] — [pool] is handed to every session's cover runs, where
    RBR's partitioned prune uses it ({!Propagation.Propcover.options});
    requests themselves run on the calling domain.  [replicas] is
    ignored: every session holds one compiled engine.  The label remains
    because [perfbench/tool/pbtool.ml] passes it.  [max_line] caps
    accepted request lines (default {!Protocol.default_max_len}).

    [access_log] turns on the structured access log: one JSON object per
    handled request ([ts], [id], [session], [op], [epoch], [plan],
    [latency_us], [ok]/[error], and [slow] when over threshold), written
    and flushed under an internal lock (so callers on several domains
    interleave whole lines).  [slow_ms] sets the slow-request threshold: a request
    at or over it is marked [slow] in the log and emits a [serve.slow]
    trace instant (visible whenever the trace recorder is on).

    Request timing runs only when something consumes it — the histogram
    channel, the access log, or [slow_ms]; otherwise the disabled-cost
    contract of {!Obs} holds (one atomic load per channel). *)
val create :
  ?pool:Parallel.Pool.t ->
  ?replicas:int ->
  ?max_line:int ->
  ?access_log:out_channel ->
  ?slow_ms:float ->
  unit ->
  t

val memo : t -> Propagation.Memo.t

(** [prometheus t] — the Prometheus text exposition of the current
    {!Obs.snapshot} plus the server gauges (resident sessions,
    per-session epochs, memo entries, trace drops), rendered at call
    time.  The body behind [GET /metrics]. *)
val prometheus : t -> string

(** [sessions t] — the live sessions, in creation order. *)
val sessions : t -> Session.t list

(** [find_session t name] — a live session by name. *)
val find_session : t -> string -> Session.t option

(** [handle_line t line] — parse, dispatch, render: always returns a
    single response line (never raises; errors become error responses).
    Blank lines and [#]-comment lines (scripted transcripts) return [""]
    — callers skip empty responses. *)
val handle_line : t -> string -> string

(** [run_channels t ic oc] — the stdio loop: read a line, answer, flush,
    until EOF.  Returns the number of error responses produced, from
    which [cfdprop serve --once] derives its exit status (scripted
    transcripts fail when a line errors). *)
val run_channels : t -> in_channel -> out_channel -> int

(** [run_tcp t ~port ()] — bind loopback (or [host]) and serve each
    accepted connection with the stdio loop, one at a time, through
    {!Metrics.listen}.  [on_listen] receives the bound port (useful with
    [port = 0]); [stop] is polled between connections. *)
val run_tcp :
  ?host:string ->
  ?on_listen:(int -> unit) ->
  ?stop:(unit -> bool) ->
  t ->
  port:int ->
  unit ->
  unit
