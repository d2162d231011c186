module C = Cfds.Cfd
module Parser = Syntax.Parser
module Spc = Relational.Spc

let c_requests = Obs.counter "serve.requests"
let c_errors = Obs.counter "serve.errors"
let c_batches = Obs.counter "serve.batches"
let c_opened = Obs.counter "serve.sessions_opened"
let c_closed = Obs.counter "serve.sessions_closed"
let h_req = Obs.histogram "serve.req_us"

(* Per-op telemetry over the fixed wire-name set: a counter
   (serve.op.<name>) and a latency histogram (serve.req_us.<name>) each,
   plus the "invalid" row unparseable requests are accounted under. *)
let per_op =
  List.map
    (fun n ->
      (n, (Obs.counter ("serve.op." ^ n), Obs.histogram ("serve.req_us." ^ n))))
    Protocol.op_names

let op_telemetry name =
  match List.assoc_opt name per_op with
  | Some cs -> cs
  | None -> List.assoc "invalid" per_op

type t = {
  memo : Propagation.Memo.t;
  pool : Parallel.Pool.t option;
  replicas : int;  (* engine slots per session *)
  max_line : int;
  access_log : out_channel option;
  log_lock : Mutex.t;  (* serialises access-log lines under handle_batch *)
  slow_us : float option;
  lock : Mutex.t;  (* guards tbl/order/next_id (session opens/reuse) *)
  tbl : (string, Session.t) Hashtbl.t;
  mutable order : string list;  (* session names, newest first *)
  mutable next_id : int;
  (* Lock-free mirror of (order, tbl), newest first, rebuilt under
     [lock] whenever a session lands — the read path (every request
     naming a session) never touches [lock]. *)
  cache : (string * Session.t) list Atomic.t;
  requests : int Atomic.t;
  errors : int Atomic.t;
}

let create ?pool ?replicas
    ?(max_line = Protocol.default_max_len) ?access_log ?slow_ms () =
  let replicas =
    match replicas with
    | Some n -> max 1 n
    | None -> (
      (* Default: one engine slot per worker domain, so a saturating
         [handle_batch] never queues on a slot. *)
      match pool with Some p -> Parallel.Pool.size p | None -> 1)
  in
  {
    memo = Propagation.Memo.create ();
    pool;
    replicas;
    max_line;
    access_log;
    log_lock = Mutex.create ();
    slow_us = Option.map (fun ms -> ms *. 1000.) slow_ms;
    lock = Mutex.create ();
    tbl = Hashtbl.create 16;
    order = [];
    next_id = 1;
    cache = Atomic.make [];
    requests = Atomic.make 0;
    errors = Atomic.make 0;
  }

let memo t = t.memo
let replicas t = t.replicas

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect f ~finally:(fun () -> Mutex.unlock t.lock)

(* Under t.lock. *)
let rebuild_cache t =
  Atomic.set t.cache
    (List.filter_map
       (fun n ->
         Option.map (fun s -> (n, s)) (Hashtbl.find_opt t.tbl n))
       t.order)

let sessions t = List.rev_map snd (Atomic.get t.cache)
let find_session t name = List.assoc_opt name (Atomic.get t.cache)

(* ------------------------------------------------------------------ *)
(* Rendering helpers *)

(* CFDs travel in the protocol in the bare body form the "cfd" request
   fields use — [V([zip] -> [street])] — so a client can feed a cover or
   sigma entry straight back into a propagates/add_cfd/remove_cfd. *)
let str_cfd c =
  let s = Fmt.str "%a" Parser.print_cfd c in
  let s =
    if String.length s > 4 && String.sub s 0 4 = "cfd " then
      String.sub s 4 (String.length s - 4)
    else s
  in
  if String.length s > 0 && s.[String.length s - 1] = ';' then
    String.sub s 0 (String.length s - 1)
  else s
let jstr_cfd c = Json.Str (str_cfd c)
let jnum n = Json.Num (float_of_int n)
let jcfds l = Json.Arr (List.map jstr_cfd l)

let plan_string = function
  | Session.Noop -> "noop"
  | Session.Patched -> "patched"
  | Session.Recomputed -> "recomputed"

(* Accepts the bare body form ([V([zip] -> [street])]) and, for
   convenience, the full statement form ([cfd V(...);]). *)
let parse_cfd text =
  let attempt doc =
    match Parser.parse_document doc with
    | Ok { Parser.cfds = [ c ]; _ } -> Ok c
    | Ok _ -> Error "expected exactly one CFD"
    | Error msg -> Error ("bad CFD: " ^ msg)
  in
  match attempt (Printf.sprintf "cfd %s;" text) with
  | Ok c -> Ok c
  | Error _ as e -> (
    match attempt text with Ok c -> Ok c | Error _ -> e)

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let do_open t ~session ~doc ~view =
  let* doc = Parser.parse_document doc in
  let* view =
    match view with
    | Some n -> (
      match
        List.find_opt (fun v -> String.equal v.Spc.name n) doc.Parser.views
      with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "no view named %s in doc" n))
    | None -> (
      match doc.Parser.views with
      | [ v ] -> Ok v
      | [] -> Error "doc declares no view"
      | _ -> Error "doc declares several views; pick one with \"view\"")
  in
  let sigma =
    List.filter
      (fun c -> Relational.Schema.mem doc.Parser.schema c.C.rel)
      doc.Parser.cfds
  in
  (* Reserve the name under the table lock, but run the initial cover
     outside it — opens must not block lookups for the whole pipeline. *)
  let* name =
    with_lock t (fun () ->
        let name =
          match session with
          | Some n -> n
          | None ->
            let n = Printf.sprintf "s%d" t.next_id in
            t.next_id <- t.next_id + 1;
            n
        in
        match Hashtbl.find_opt t.tbl name with
        | Some s when not (Session.closed s) ->
          Error (Printf.sprintf "session %s already open" name)
        | Some _ | None ->
          (* a closed session's name may be reused *)
          t.order <- name :: List.filter (fun n -> n <> name) t.order;
          Hashtbl.remove t.tbl name;
          rebuild_cache t;
          Ok name)
  in
  match
    Session.create ?pool:t.pool ~replicas:t.replicas
      ~memo:t.memo ~name ~view ~sigma ()
  with
  | Error _ as e ->
    with_lock t (fun () ->
        t.order <- List.filter (fun n -> n <> name) t.order);
    e
  | Ok s ->
    with_lock t (fun () ->
        Hashtbl.replace t.tbl name s;
        rebuild_cache t);
    Obs.incr c_opened;
    let r = Session.cover s in
    Ok
      [
        ("session", Json.Str name);
        ("epoch", jnum 0);
        ("cover_size", jnum (List.length r.Propagation.Propcover.cover));
        ("always_empty", Json.Bool r.Propagation.Propcover.always_empty);
      ]

let with_session t name f =
  match find_session t name with
  | None -> Error (Printf.sprintf "no session %s" name)
  | Some s -> f s

let delta_fields (d : Session.delta_report) =
  [
    ("plan", Json.Str (plan_string d.Session.plan));
    ("epoch", jnum d.Session.epoch);
    ("cover_size", jnum d.Session.cover_size);
    ("changed", Json.Bool d.Session.changed);
    ("added", jcfds d.Session.added);
    ("removed", jcfds d.Session.removed);
    ( "stale",
      match d.Session.stale with None -> Json.Null | Some l -> jcfds l );
  ]

let stats_fields t =
  let per_session s =
    let st = Session.stats s in
    ( Session.name s,
      Json.Obj
        [
          ("queries", jnum st.Session.queries);
          ("patches", jnum st.Session.patches);
          ("fallbacks", jnum st.Session.fallbacks);
          ("recomputes", jnum st.Session.recomputes);
          ("noops", jnum st.Session.noops);
          ("epoch", jnum st.Session.epoch);
          ("replicas", jnum st.Session.replicas);
          ("closed", Json.Bool (Session.closed s));
        ] )
  in
  let sessions = sessions t in
  [
    ("requests", jnum (Atomic.get t.requests));
    ("errors", jnum (Atomic.get t.errors));
    ("trace_dropped", jnum (Obs.trace_dropped ()));
    ("memo_entries", jnum (Propagation.Memo.entries t.memo));
    ("sessions", Json.Obj (List.map per_session sessions));
  ]

(* Server-side gauges, computed at render time: the histogram/counter
   channels know nothing about resident state, so session counts,
   per-session epochs, memo size, and trace drops are sampled here. *)
let gauges t =
  let sessions = sessions t in
  let open_sessions = List.filter (fun s -> not (Session.closed s)) sessions in
  let g name value = { Metrics.g_name = name; g_label = None; g_value = value } in
  [
    g "serve.sessions" (float_of_int (List.length open_sessions));
    g "serve.replicas" (float_of_int t.replicas);
  ]
  @ List.map
      (fun s ->
        {
          Metrics.g_name = "serve.session_epoch";
          g_label = Some ("session", Session.name s);
          g_value = float_of_int (Session.epoch s);
        })
      open_sessions
  @ [
      g "serve.memo_entries"
        (float_of_int (Propagation.Memo.entries t.memo));
      g "serve.trace_dropped" (float_of_int (Obs.trace_dropped ()));
    ]

let metrics_fields t = Metrics.json_fields ~gauges:(gauges t) (Obs.snapshot ())
let prometheus t = Metrics.prometheus ~gauges:(gauges t) (Obs.snapshot ())

let dispatch t (req : Protocol.request) =
  match req.Protocol.op with
  | Protocol.Ping -> Ok [ ("pong", Json.Bool true) ]
  | Protocol.Stats -> Ok (stats_fields t)
  | Protocol.Metrics -> Ok (metrics_fields t)
  | Protocol.Open { session; doc; view } -> do_open t ~session ~doc ~view
  | Protocol.Close { session } ->
    with_session t session (fun s ->
        if Session.closed s then Error "session closed"
        else begin
          Session.close s;
          Obs.incr c_closed;
          Ok [ ("session", Json.Str session); ("closed", Json.Bool true) ]
        end)
  | Protocol.Cover { session } ->
    with_session t session (fun s ->
        if Session.closed s then Error "session closed"
        else
          let r = Session.cover s in
          Ok
            [
              ("epoch", jnum (Session.epoch s));
              ("cover", jcfds r.Propagation.Propcover.cover);
              ("complete", Json.Bool r.Propagation.Propcover.complete);
              ( "always_empty",
                Json.Bool r.Propagation.Propcover.always_empty );
            ])
  | Protocol.Sigma { session } ->
    with_session t session (fun s ->
        if Session.closed s then Error "session closed"
        else
          Ok
            [
              ("epoch", jnum (Session.epoch s));
              ("sigma", jcfds (Session.sigma s));
            ])
  | Protocol.Propagates { session; cfd } ->
    with_session t session (fun s ->
        let* phi = parse_cfd cfd in
        let* verdict, epoch = Session.propagates s phi in
        Ok [ ("propagates", Json.Bool verdict); ("epoch", jnum epoch) ])
  | Protocol.Explain { session; cfd } ->
    with_session t session (fun s ->
        let* phi = parse_cfd cfd in
        let* e = Session.explain s phi in
        Ok
          [
            ("propagates", Json.Bool e.Session.propagated);
            ("vacuous", Json.Bool e.Session.vacuous);
            ("used", jcfds e.Session.used);
            ( "sources",
              Json.Arr
                (List.map
                   (fun (m, srcs) ->
                     Json.Obj
                       [ ("member", jstr_cfd m); ("from", jcfds srcs) ])
                   e.Session.sources) );
            ("epoch", jnum e.Session.epoch);
          ])
  | Protocol.Add_cfd { session; cfd } ->
    with_session t session (fun s ->
        let* c = parse_cfd cfd in
        let* d = Session.add_cfd s c in
        Ok (delta_fields d))
  | Protocol.Remove_cfd { session; cfd } ->
    with_session t session (fun s ->
        let* c = parse_cfd cfd in
        let* d = Session.remove_cfd s c in
        Ok (delta_fields d))

let is_comment line =
  let n = String.length line in
  let rec first i = if i < n && line.[i] = ' ' then first (i + 1) else i in
  let i = first 0 in
  i >= n || line.[i] = '#'

(* One access-log line: structured JSON, one object per request.  The
   epoch and delta plan are read off the already-rendered response
   fields, so no extra plumbing through Session is needed. *)
let access_log_line ~id ~op ~session ~outcome ~lat_us ~slow =
  let jfield name fields =
    match List.assoc_opt name fields with Some v -> v | None -> Json.Null
  in
  let base =
    [
      ("ts", Json.Num (Unix.gettimeofday ()));
      ("id", (match id with Some j -> j | None -> Json.Null));
      ( "session",
        match session with Some s -> Json.Str s | None -> Json.Null );
      ("op", Json.Str op);
    ]
  in
  let outcome_fields =
    match outcome with
    | Ok fields ->
      [
        ("epoch", jfield "epoch" fields);
        ("plan", jfield "plan" fields);
        ("latency_us", Json.Num lat_us);
        ("ok", Json.Bool true);
      ]
    | Error msg ->
      [
        ("epoch", Json.Null);
        ("plan", Json.Null);
        ("latency_us", Json.Num lat_us);
        ("ok", Json.Bool false);
        ("error", Json.Str msg);
      ]
  in
  let slow_field = if slow then [ ("slow", Json.Bool true) ] else [] in
  Json.to_string (Json.Obj (base @ outcome_fields @ slow_field))

(* The single entry point: never raises, always one response line (or ""
   for blank/comment lines).  Request timing only runs when something
   consumes it — the duration channel, the access log, or the slow-ms
   threshold — so the fully-disabled path keeps its one-atomic-load
   cost. *)
let handle_line_counted t line =
  if is_comment line then ("", false)
  else begin
    let timed =
      Obs.hist_enabled () || t.access_log <> None || t.slow_us <> None
    in
    let t0 = if timed then Obs.now () else 0. in
    Atomic.incr t.requests;
    Obs.incr c_requests;
    let op = ref "invalid" in
    let session = ref None in
    let id, outcome =
      match Protocol.of_line ~max_len:t.max_line line with
      | Error (msg, id) -> (id, Error msg)
      | Ok req ->
        op := Protocol.op_name req.Protocol.op;
        session := Protocol.session_of req.Protocol.op;
        ( req.Protocol.id,
          try dispatch t req with
          | Invalid_argument msg | Failure msg ->
            Error (Printf.sprintf "request failed: %s" msg)
          | exn ->
            Error
              (Printf.sprintf "request failed: %s" (Printexc.to_string exn))
        )
    in
    let op = !op and session = !session in
    let c_op, h_op = op_telemetry op in
    Obs.incr c_op;
    if timed then begin
      let lat_us = (Obs.now () -. t0) *. 1e6 in
      if Obs.hist_enabled () then begin
        Obs.observe_us h_req lat_us;
        Obs.observe_us h_op lat_us
      end;
      let slow =
        match t.slow_us with Some s -> lat_us >= s | None -> false
      in
      if slow then
        Obs.trace_instant
          ~args:
            ([ ("op", op); ("latency_us", Printf.sprintf "%.1f" lat_us) ]
            @ match session with Some s -> [ ("session", s) ] | None -> [])
          "serve.slow";
      match t.access_log with
      | Some oc ->
        let line = access_log_line ~id ~op ~session ~outcome ~lat_us ~slow in
        Mutex.lock t.log_lock;
        output_string oc line;
        output_char oc '\n';
        flush oc;
        Mutex.unlock t.log_lock
      | None -> ()
    end;
    match outcome with
    | Ok fields -> (Protocol.ok ?id fields, false)
    | Error msg ->
      Atomic.incr t.errors;
      Obs.incr c_errors;
      (Protocol.error ?id msg, true)
  end

let handle_line t line = fst (handle_line_counted t line)

let handle_batch t lines =
  Obs.incr c_batches;
  Parallel.Pool.map ?pool:t.pool (handle_line t) lines

(* ------------------------------------------------------------------ *)
(* Front ends *)

let run_channels t ic oc =
  let errors = ref 0 in
  (try
     while true do
       let line = input_line ic in
       let resp, err = handle_line_counted t line in
       if err then incr errors;
       if resp <> "" then begin
         output_string oc resp;
         output_char oc '\n';
         flush oc
       end
     done
   with End_of_file -> ());
  !errors

let run_tcp ?host ?on_listen ?stop t ~port () =
  Metrics.listen ?host ?on_listen ?stop ~port
    (fun fd ->
      ignore
        (run_channels t (Unix.in_channel_of_descr fd)
           (Unix.out_channel_of_descr fd)))
    ()
