(** Prometheus text-format exposition for the serve daemon, and the tiny
    zero-dependency HTTP responder behind [cfdprop serve --metrics-port].

    The renderer consumes an {!Obs.snapshot} plus a list of server-side
    gauges (computed at render time — resident sessions, per-session
    epochs, memo entries, trace drops), so the same builder backs both
    the [GET /metrics] endpoint and the ["metrics"] protocol op:

    - counters → [cfdprop_<name>_total] (dots mapped to underscores);
    - histograms (timing spans included) → classic
      [_bucket]/[_sum]/[_count] families [cfdprop_<name>] with
      cumulative [le] bounds in µs.  The per-op histograms
      [serve.req_us.<op>] fold into one [cfdprop_serve_op_req_us] family
      with an [op] label; the per-tier [serve.delta_us.<tier>] ones into
      [cfdprop_serve_delta_us] with a [tier] label.  Only non-empty
      buckets are exposed (any increasing subset of bounds plus [+Inf]
      is a valid Prometheus histogram). *)

(** One gauge sample: a dotted Obs-style name, an optional
    [(label_key, label_value)] pair, and the value. *)
type gauge = {
  g_name : string;
  g_label : (string * string) option;
  g_value : float;
}

(** [prometheus ~gauges snapshot] renders the text exposition format
    (version 0.0.4): one [# TYPE] line per family, then the samples. *)
val prometheus : ?gauges:gauge list -> Obs.snapshot -> string

(** The same payload as response fields for the ["metrics"] protocol op:
    [counters], [hists] (count, sum, max and [p50_us]/[p90_us]/[p99_us]
    per histogram) and [gauges] (labelled gauges keyed
    [name.label_value]). *)
val json_fields : ?gauges:gauge list -> Obs.snapshot -> (string * Json.t) list

(** [listen ~port handle ()] binds loopback (or [host]), listens, and
    runs a blocking accept loop that serves each accepted connection with
    [handle fd], one at a time, then closes it.  I/O errors of one
    connection ([Sys_error], [Sys_blocked_io], [Unix.Unix_error]) drop
    that connection only.  [on_listen] receives the bound port (use port
    0 to let the kernel pick); [stop] is polled every 200 ms between
    connections.  The one accept loop of both front ends:
    {!Server.run_tcp} and {!serve_http}. *)
val listen :
  ?host:string ->
  ?on_listen:(int -> unit) ->
  ?stop:(unit -> bool) ->
  port:int ->
  (Unix.file_descr -> unit) ->
  unit ->
  unit

(** [serve_http ~render ~port ()] runs {!listen} answering
    [GET /metrics] with [render ()] (status 200, content type
    [text/plain; version=0.0.4]); other paths get 404, other methods
    405.  One short-lived connection at a time — a scrape endpoint, not
    a web server.  Spawn it on its own domain or thread. *)
val serve_http :
  ?host:string ->
  ?on_listen:(int -> unit) ->
  ?stop:(unit -> bool) ->
  render:(unit -> string) ->
  port:int ->
  unit ->
  unit
