(* Prometheus text-format exposition (and its JSON twin) over an
   Obs.snapshot plus server-side gauges.

   The renderer is deliberately independent of Server: it consumes a
   snapshot and a gauge list, so the server can dispatch the "metrics"
   protocol op and the HTTP endpoint through the same builder without a
   module cycle. *)

type gauge = {
  g_name : string;
  g_label : (string * string) option;
  g_value : float;
}

(* --- naming -------------------------------------------------------- *)

(* Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted Obs
   names map dots (and anything else) to underscores under a cfdprop_
   prefix. *)
let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let family name = "cfdprop_" ^ sanitize name

(* Histogram families: the per-op and per-tier Obs histograms are named
   serve.req_us.<op> / serve.delta_us.<tier>; fold the suffix into a
   label so Prometheus sees one family per dimension. *)
let hist_family name =
  let prefixed p = String.length name > String.length p
    && String.sub name 0 (String.length p) = p
  in
  let suffix p = String.sub name (String.length p)
      (String.length name - String.length p)
  in
  if name = "serve.req_us" then ("cfdprop_serve_req_us", None)
  else if prefixed "serve.req_us." then
    ("cfdprop_serve_op_req_us", Some ("op", suffix "serve.req_us."))
  else if prefixed "serve.delta_us." then
    ("cfdprop_serve_delta_us", Some ("tier", suffix "serve.delta_us."))
  else (family name, None)

let escape_label v =
  let b = Buffer.create (String.length v + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let label_str = function
  | None -> ""
  | Some (k, v) -> Printf.sprintf "{%s=\"%s\"}" k (escape_label v)

(* le="..." merged with an optional extra label. *)
let bucket_labels label le =
  match label with
  | None -> Printf.sprintf "{le=\"%s\"}" le
  | Some (k, v) ->
    Printf.sprintf "{%s=\"%s\",le=\"%s\"}" k (escape_label v) le

let fnum v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

(* --- exposition ----------------------------------------------------- *)

let prometheus ?(gauges = []) (s : Obs.snapshot) =
  let b = Buffer.create 4096 in
  let typed = Hashtbl.create 16 in
  let declare fam kind =
    if not (Hashtbl.mem typed fam) then begin
      Hashtbl.add typed fam ();
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" fam kind)
    end
  in
  List.iter
    (fun (name, v) ->
      let fam = family name ^ "_total" in
      declare fam "counter";
      Buffer.add_string b (Printf.sprintf "%s %d\n" fam v))
    s.Obs.counters;
  List.iter
    (fun (name, (hits, secs)) ->
      let fam = family name ^ "_seconds" in
      declare fam "summary";
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" fam hits);
      Buffer.add_string b (Printf.sprintf "%s_sum %.6f\n" fam secs))
    s.Obs.spans;
  (* Histograms: cumulative counts at the upper bounds of the non-empty
     buckets plus +Inf — any increasing subset of bounds is a valid
     Prometheus histogram, so empty buckets are simply not emitted. *)
  List.iter
    (fun (name, h) ->
      let fam, label = hist_family name in
      declare fam "histogram";
      let cum = ref 0 in
      List.iter
        (fun (bk, c) ->
          cum := !cum + c;
          let upper = Obs.bucket_upper_us bk in
          if upper <> infinity then
            Buffer.add_string b
              (Printf.sprintf "%s_bucket%s %d\n" fam
                 (bucket_labels label (fnum upper))
                 !cum))
        h.Obs.h_buckets;
      Buffer.add_string b
        (Printf.sprintf "%s_bucket%s %d\n" fam
           (bucket_labels label "+Inf") h.Obs.h_count);
      Buffer.add_string b
        (Printf.sprintf "%s_sum%s %s\n" fam (label_str label)
           (fnum h.Obs.h_sum_us));
      Buffer.add_string b
        (Printf.sprintf "%s_count%s %d\n" fam (label_str label)
           h.Obs.h_count))
    s.Obs.hists;
  List.iter
    (fun g ->
      let fam = family g.g_name in
      declare fam "gauge";
      Buffer.add_string b
        (Printf.sprintf "%s%s %s\n" fam (label_str g.g_label) (fnum g.g_value)))
    gauges;
  Buffer.contents b

(* --- the same payload as JSON (the "metrics" protocol op) ----------- *)

let json_fields ?(gauges = []) (s : Obs.snapshot) =
  let jnum v = Json.Num v in
  let counters =
    Json.Obj
      (List.map (fun (n, v) -> (n, jnum (float_of_int v))) s.Obs.counters)
  in
  let spans =
    Json.Obj
      (List.map
         (fun (n, (hits, secs)) ->
           ( n,
             Json.Obj
               [
                 ("count", jnum (float_of_int hits)); ("total_s", jnum secs);
               ] ))
         s.Obs.spans)
  in
  let hists =
    Json.Obj
      (List.map
         (fun (n, h) ->
           ( n,
             Json.Obj
               [
                 ("count", jnum (float_of_int h.Obs.h_count));
                 ("sum_us", jnum h.Obs.h_sum_us);
                 ("max_us", jnum h.Obs.h_max_us);
                 ("p50_us", jnum (Obs.hist_quantile h 0.5));
                 ("p90_us", jnum (Obs.hist_quantile h 0.9));
                 ("p99_us", jnum (Obs.hist_quantile h 0.99));
               ] ))
         s.Obs.hists)
  in
  let gauge_name g =
    match g.g_label with
    | None -> g.g_name
    | Some (_, v) -> g.g_name ^ "." ^ v
  in
  let gauges_j =
    Json.Obj (List.map (fun g -> (gauge_name g, jnum g.g_value)) gauges)
  in
  [
    ("counters", counters);
    ("spans", spans);
    ("hists", hists);
    ("gauges", gauges_j);
  ]

(* --- the /metrics HTTP responder ------------------------------------ *)

(* One short-lived connection at a time, select-polled by [listen] so
   [stop] is honoured within 200 ms.  This is a scrape endpoint for one
   Prometheus server, not a web server; keeping it serial keeps it
   trivially correct. *)

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

let handle_client ~render fd =
  (* The accept loop is serial and the reads below block: a peer that
     connects and then sends nothing (or never drains the response) must
     not stall every future scrape — and with it the daemon's shutdown
     join — so both directions get a deadline.  A timed-out read raises
     through to the caller's handler and the connection is dropped. *)
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let request_line = try input_line ic with End_of_file -> "" in
  (* Drain headers so the peer never sees a reset mid-request; cap the
     count against malicious streams. *)
  (try
     let n = ref 0 in
     let continue = ref true in
     while !continue && !n < 256 do
       let l = input_line ic in
       incr n;
       if l = "" || l = "\r" then continue := false
     done
   with End_of_file -> ());
  let respond body = output_string oc body; flush oc in
  (match String.split_on_char ' ' (String.trim request_line) with
  | [ "GET"; path; _ ] when path = "/metrics" || path = "/metrics/" ->
    respond
      (http_response ~status:"200 OK"
         ~content_type:"text/plain; version=0.0.4; charset=utf-8"
         (render ()))
  | [ meth; _; _ ] when meth <> "GET" ->
    respond
      (http_response ~status:"405 Method Not Allowed"
         ~content_type:"text/plain" "only GET is supported\n")
  | _ :: _ :: _ ->
    respond
      (http_response ~status:"404 Not Found" ~content_type:"text/plain"
         "try /metrics\n")
  | _ -> ())

(* The accept loop both TCP front ends share: the line protocol
   ([Server.run_tcp]) and the scrape endpoint ([serve_http]). *)
let listen ?(host = "127.0.0.1") ?on_listen ?(stop = fun () -> false) ~port
    handle () =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock addr;
      Unix.listen sock 16;
      (match on_listen with
      | Some f ->
        let bound =
          match Unix.getsockname sock with
          | Unix.ADDR_INET (_, p) -> p
          | Unix.ADDR_UNIX _ -> port
        in
        f bound
      | None -> ());
      let rec loop () =
        if stop () then ()
        else begin
          (match Unix.select [ sock ] [] [] 0.2 with
          | [], _, _ -> ()
          | _ :: _, _, _ ->
            let fd, _ = Unix.accept sock in
            (* [Sys_blocked_io] is what a channel read/write raises when a
               socket deadline (as [handle_client] sets) expires. *)
            (try handle fd
             with Sys_error _ | Sys_blocked_io | Unix.Unix_error _ -> ());
            (try Unix.close fd with Unix.Unix_error _ -> ()));
          loop ()
        end
      in
      loop ())

let serve_http ?host ?on_listen ?stop ~render ~port () =
  listen ?host ?on_listen ?stop ~port (handle_client ~render) ()
