(* cfdprop — CFD propagation from the command line.

   Reads a declaration file (schemas, source CFDs, SPC views; see
   lib/syntax/parser.mli for the grammar) and answers propagation
   questions:

     cfdprop validate examples/customers.cfd
     cfdprop cover    examples/customers.cfd --view V
     cfdprop check    examples/customers.cfd "V([CC='44', zip] -> [street])"
     cfdprop empty    examples/customers.cfd --view V
*)

open Core
open Relational
module Parser = Syntax.Parser

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  match Parser.parse_document (read_file path) with
  | Ok doc -> doc
  | Error msg ->
    Fmt.epr "%s: %s@." path msg;
    exit 2

let find_view (doc : Parser.document) name =
  let views = doc.Parser.views in
  match name with
  | Some n ->
    (match List.find_opt (fun v -> String.equal v.Spc.name n) views with
     | Some v -> v
     | None ->
       Fmt.epr "no view named %s@." n;
       exit 2)
  | None ->
    (match views with
     | [ v ] -> v
     | [] ->
       Fmt.epr "the file declares no view@.";
       exit 2
     | _ ->
       Fmt.epr "several views declared; pick one with --view@.";
       exit 2)

(* Source CFDs = the CFDs of the document defined on source relations. *)
let source_cfds (doc : Parser.document) =
  List.filter (fun c -> Schema.mem doc.Parser.schema c.Cfds.Cfd.rel) doc.Parser.cfds

let warn_finite (doc : Parser.document) =
  if Schema.db_has_finite_attr doc.Parser.schema then
    Fmt.epr
      "note: the schema has finite-domain attributes; cover computation@ \
       assumes the infinite-domain setting (Section 4).@."

(* --stats / --stats-json: record counters and durations for the run... *)
let start_stats stats stats_json =
  if stats || stats_json <> None then begin
    Obs.set_enabled true;
    Obs.set_hist_enabled true
  end

(* ...then print them to stderr (results go to stdout; the engine stats
   are diagnostics) and/or write them as JSON. *)
let dump_stats stats stats_json =
  if stats || stats_json <> None then begin
    let s = Obs.snapshot () in
    if stats then Fmt.epr "%a" Obs.pp s;
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (Obs.to_json s);
        output_char oc '\n';
        close_out oc;
        Fmt.epr "# wrote engine stats to %s@." path)
      stats_json
  end

(* --- commands ----------------------------------------------------------- *)

let validate path =
  let doc = load path in
  Fmt.pr "%a" Parser.print_document doc;
  let rows =
    List.fold_left
      (fun n rel ->
        n + Relation.cardinality (Database.instance doc.Parser.data (Schema.relation_name rel)))
      0
      (Schema.relations doc.Parser.schema)
  in
  Fmt.pr "# %d relation(s), %d CFD(s), %d CIND(s), %d view(s), %d data row(s)@."
    (List.length (Schema.relations doc.Parser.schema))
    (List.length doc.Parser.cfds)
    (List.length doc.Parser.cinds)
    (List.length doc.Parser.views)
    rows;
  0

let cover path view_name chunk bound stats stats_json why provenance_json =
  let doc = load path in
  warn_finite doc;
  let view = find_view doc view_name in
  let sigma = source_cfds doc in
  let options =
    {
      Propagation.Propcover.default_options with
      Propagation.Propcover.prune_chunk = chunk;
      max_intermediate = bound;
    }
  in
  start_stats stats stats_json;
  let prov = Propagation.Provenance.create () in
  let provenance = if why || provenance_json <> None then Some prov else None in
  let r = Propagation.Propcover.cover ~options ?provenance view sigma in
  if r.Propagation.Propcover.always_empty then
    Fmt.pr "# the view is empty on every source satisfying the CFDs@.";
  if not r.Propagation.Propcover.complete then
    Fmt.pr "# intermediate bound hit: this is a sound subset, not a cover@.";
  List.iter
    (fun c -> Fmt.pr "%a@." Parser.print_cfd c)
    r.Propagation.Propcover.cover;
  Fmt.pr "# %d CFD(s) in the minimal propagation cover@."
    (List.length r.Propagation.Propcover.cover);
  if why then
    List.iter
      (fun c ->
        Fmt.pr "@.";
        Propagation.Provenance.pp_tree ~pp_cfd:Parser.print_cfd prov
          Format.std_formatter c)
      r.Propagation.Propcover.cover;
  Option.iter
    (fun p ->
      let oc = open_out p in
      output_string oc
        (Propagation.Provenance.to_json ~pp_cfd:Parser.print_cfd prov
           r.Propagation.Propcover.cover);
      close_out oc;
      Fmt.epr "# wrote cover provenance to %s@." p)
    provenance_json;
  dump_stats stats stats_json;
  0

(* Propagate the source CFDs through every declared view in one shared-memo
   fleet run; then check any declared view-level CFDs against the fleet's
   covers (isomorphic views share implication verdicts through the memo). *)
let fleet path views_csv domains stats stats_json =
  let doc = load path in
  warn_finite doc;
  let views =
    match views_csv with
    | None -> doc.Parser.views
    | Some csv ->
      let wanted = String.split_on_char ',' csv in
      List.map (fun n -> find_view doc (Some n)) wanted
  in
  if views = [] then begin
    Fmt.epr "the file declares no view@.";
    exit 2
  end;
  let sigma = source_cfds doc in
  start_stats stats stats_json;
  let pool =
    if domains > 1 then Some (Parallel.Pool.create ~size:domains ()) else None
  in
  let options = { Propagation.Fleet.default_options with Propagation.Fleet.pool } in
  let fr = Propagation.Fleet.run ~options views sigma in
  List.iter
    (fun (r : Propagation.Fleet.view_result) ->
      Fmt.pr "@.## view %s — %s%s@." r.Propagation.Fleet.view.Spc.name
        (if r.Propagation.Fleet.memo_hit then "cover shared from an isomorphic view"
         else "cover computed")
        (if r.Propagation.Fleet.always_empty then
           " (the view is empty on every source satisfying the CFDs)"
         else "");
      List.iter
        (fun c -> Fmt.pr "%a@." Parser.print_cfd c)
        r.Propagation.Fleet.cover;
      Fmt.pr "# %d CFD(s)@." (List.length r.Propagation.Fleet.cover))
    fr.Propagation.Fleet.results;
  (* Declared view-level CFDs double as propagation questions. *)
  let failures = ref 0 in
  let in_fleet rel = List.exists (fun (v : Spc.t) -> v.Spc.name = rel) views in
  let questions =
    List.filter
      (fun c ->
        (not (Schema.mem doc.Parser.schema c.Cfds.Cfd.rel))
        && (views_csv = None || in_fleet c.Cfds.Cfd.rel))
      doc.Parser.cfds
  in
  if questions <> [] then Fmt.pr "@.";
  List.iter
    (fun c ->
      match
        Propagation.Fleet.propagates fr ~view:c.Cfds.Cfd.rel c
      with
      | `Propagated -> Fmt.pr "PROPAGATED:     %a@." Parser.print_cfd c
      | `Not_propagated ->
        incr failures;
        Fmt.pr "NOT PROPAGATED: %a@." Parser.print_cfd c
      | `Unknown_view ->
        incr failures;
        Fmt.pr "UNKNOWN VIEW:   %a@." Parser.print_cfd c)
    questions;
  Fmt.pr "@.# fleet: %d view(s) in %d canonical class(es), %d memo entr%s@."
    (List.length fr.Propagation.Fleet.results)
    fr.Propagation.Fleet.classes
    (Propagation.Memo.entries fr.Propagation.Fleet.memo)
    (if Propagation.Memo.entries fr.Propagation.Fleet.memo = 1 then "y" else "ies");
  dump_stats stats stats_json;
  Option.iter Parallel.Pool.shutdown pool;
  if !failures = 0 then 0 else 1

let parse_view_cfd (doc : Parser.document) text =
  match Parser.parse_document (Printf.sprintf "cfd %s;" text) with
  | Ok { Parser.cfds = [ c ]; _ } -> c
  | Ok _ ->
    Fmt.epr "expected exactly one CFD@.";
    exit 2
  | Error msg ->
    Fmt.epr "cannot parse CFD: %s@." msg;
    exit 2
  [@@warning "-27"]

(* The view a CFD argument is asked about: [--view], else the CFD's own
   relation.  The CFD must be over that view's attributes. *)
let query_view doc view_name phi =
  let view =
    find_view doc (match view_name with Some _ -> view_name | None -> Some phi.Cfds.Cfd.rel)
  in
  match Cfds.Cfd.check (Spc.view_schema view) phi with
  | Ok () -> view
  | Error msg ->
    Fmt.epr "bad CFD: %s@." msg;
    exit 2

let check path cfd_text view_name budget =
  let doc = load path in
  let phi = parse_view_cfd doc cfd_text in
  let view = query_view doc view_name phi in
  let sigma = source_cfds doc in
  let strategy = Propagation.Propagate.Auto { budget } in
  match Propagation.Propagate.decide ~strategy view ~sigma phi with
  | Propagation.Propagate.Propagated ->
    Fmt.pr "PROPAGATED: every source satisfying the CFDs yields a view \
            satisfying %a@."
      Parser.print_cfd phi;
    0
  | Propagation.Propagate.Not_propagated witness ->
    Fmt.pr "NOT PROPAGATED; counterexample source database:@.%a@." Database.pp
      witness;
    1
  | Propagation.Propagate.Budget_exceeded ->
    Fmt.pr "UNDECIDED: instantiation budget exhausted (raise --budget)@.";
    3

(* Explain a view CFD: when it is propagated, show which cover CFDs imply
   it (the chase's fired-rule witness) and how each of those was derived
   from Σ; when it is not, show the chase's counterexample tableau. *)
let explain path cfd_text view_name budget =
  let doc = load path in
  warn_finite doc;
  let phi = parse_view_cfd doc cfd_text in
  let view = query_view doc view_name phi in
  let sigma = source_cfds doc in
  let provenance = Propagation.Provenance.create () in
  let r = Propagation.Propcover.cover ~provenance view sigma in
  if r.Propagation.Propcover.always_empty then begin
    Fmt.pr "PROPAGATED (vacuously): the view is empty on every source \
            satisfying the CFDs@.";
    0
  end
  else begin
    let cover = r.Propagation.Propcover.cover in
    let vschema = Spc.view_schema view in
    let compiled = Propagation.Fast_impl.compile vschema cover in
    let fired =
      Bytes.make (Propagation.Fast_impl.num_rules compiled) '\000'
    in
    if Propagation.Fast_impl.implies ~fired compiled phi then begin
      let used = List.filteri (fun i _ -> Bytes.get fired i = '\001') cover in
      Fmt.pr "PROPAGATED: %a@." Parser.print_cfd phi;
      if used = [] then Fmt.pr "  (trivially implied — no cover CFD needed)@."
      else begin
        Fmt.pr "  implied by %d cover CFD(s):@." (List.length used);
        List.iter (fun c -> Fmt.pr "    %a@." Parser.print_cfd c) used;
        Fmt.pr "@.Derivations (each bottoms out in source CFDs):@.";
        List.iter
          (fun c ->
            Fmt.pr "@.";
            Propagation.Provenance.pp_tree ~pp_cfd:Parser.print_cfd provenance
              Format.std_formatter c)
          used
      end;
      0
    end
    else begin
      (* Not implied by the computed cover; the chase oracle is exact, so
         either confirm non-propagation with its counterexample tableau or
         (truncated cover) discover the CFD is propagated after all. *)
      let strategy = Propagation.Propagate.Auto { budget } in
      match Propagation.Propagate.decide ~strategy view ~sigma phi with
      | Propagation.Propagate.Propagated ->
        Fmt.pr "PROPAGATED: %a (certified by the chase oracle; the \
                truncated cover alone does not imply it)@."
          Parser.print_cfd phi;
        0
      | Propagation.Propagate.Not_propagated witness ->
        Fmt.pr "NOT PROPAGATED: %a@." Parser.print_cfd phi;
        Fmt.pr "Counterexample source database (chase tableau): it \
                satisfies every source CFD, yet its view violates the \
                queried CFD:@.%a@."
          Database.pp witness;
        1
      | Propagation.Propagate.Budget_exceeded ->
        Fmt.pr "UNDECIDED: instantiation budget exhausted (raise --budget)@.";
        3
    end
  end

let empty path view_name budget =
  let doc = load path in
  let view = find_view doc view_name in
  let sigma = source_cfds doc in
  let strategy = Propagation.Propagate.Auto { budget } in
  match Propagation.Emptiness.check_spc ~strategy view ~sigma with
  | Propagation.Emptiness.Empty ->
    Fmt.pr "EMPTY: the view is empty on every source satisfying the CFDs@.";
    0
  | Propagation.Emptiness.Nonempty witness ->
    Fmt.pr "NONEMPTY; witness source database:@.%a@." Database.pp witness;
    1
  | Propagation.Emptiness.Budget_exceeded ->
    Fmt.pr "UNDECIDED: instantiation budget exhausted (raise --budget)@.";
    3

(* Audit the declared data: source CFDs and CINDs directly, view-level CFDs
   against the materialised views (application (3) of Section 1 — data
   cleaning). *)
let audit path do_repair =
  let doc = load path in
  let issues = ref 0 in
  let report label n =
    if n > 0 then begin
      incr issues;
      Fmt.pr "  [DIRTY] %-52s %d violation(s)@." label n
    end
    else Fmt.pr "  [clean] %s@." label
  in
  Fmt.pr "Source constraints:@.";
  List.iter
    (fun c ->
      if Schema.mem doc.Parser.schema c.Cfds.Cfd.rel then
        let inst = Database.instance doc.Parser.data c.Cfds.Cfd.rel in
        report
          (Fmt.str "%a" Parser.print_cfd c)
          (List.length (Cfds.Cfd.violations inst c)))
    doc.Parser.cfds;
  List.iter
    (fun c ->
      report
        (Fmt.str "%a" Parser.print_cind c)
        (List.length (Cfds.Cind.violations doc.Parser.data c)))
    doc.Parser.cinds;
  let view_cfds =
    List.filter
      (fun c -> not (Schema.mem doc.Parser.schema c.Cfds.Cfd.rel))
      doc.Parser.cfds
  in
  List.iter
    (fun (v : Spc.t) ->
      let mine =
        List.filter (fun c -> String.equal c.Cfds.Cfd.rel v.Spc.name) view_cfds
      in
      if mine <> [] then begin
        Fmt.pr "View %s (materialised, %d rows):@." v.Spc.name
          (Relation.cardinality (Spc.eval v doc.Parser.data));
        let out = Spc.eval v doc.Parser.data in
        List.iter
          (fun c ->
            report
              (Fmt.str "%a" Parser.print_cfd c)
              (List.length (Cfds.Cfd.violations out c)))
          mine
      end)
    doc.Parser.views;
  if !issues = 0 then begin
    Fmt.pr "No violations.@.";
    0
  end
  else begin
    Fmt.pr "%d constraint(s) violated.@." !issues;
    if do_repair then begin
      let source_sigma = source_cfds doc in
      let repaired = Cfds.Repair.repair_db doc.Parser.data source_sigma in
      Fmt.pr "@.Repaired data (CFD violations only; CINDs are reported, not repaired):@.";
      List.iter
        (fun rel ->
          let inst = Database.instance repaired (Schema.relation_name rel) in
          if not (Relation.is_empty inst) then Fmt.pr "%a@." Relation.pp inst)
        (Schema.relations doc.Parser.schema)
    end;
    1
  end

(* --- cmdliner glue ------------------------------------------------------- *)

open Cmdliner

let path_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Declaration file.")

let stats_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"PATH"
        ~doc:"Write the recorded engine stats to $(docv) as JSON.")

let view_arg =
  Arg.(value & opt (some string) None & info [ "view" ] ~docv:"NAME" ~doc:"View to use.")

let budget_arg =
  Arg.(
    value
    & opt int 200_000
    & info [ "budget" ] ~docv:"N"
        ~doc:"Finite-domain instantiation budget (general setting).")

let validate_cmd =
  Cmd.v
    (Cmd.info "validate" ~doc:"Parse a declaration file and echo it back.")
    Term.(const validate $ path_arg)

let cover_cmd =
  let chunk =
    Arg.(
      value
      & opt (some int) None
      & info [ "prune-chunk" ]
          ~doc:"Partitioned-MinCover pruning chunk inside RBR (Section 4.3).")
  in
  let bound =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-intermediate" ]
          ~doc:"Heuristic bound on the RBR working set (truncates the cover).")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Record engine counters and per-phase durations (count, sum, \
             p50/p90/p99, max) during the cover computation and print them \
             to stderr.")
  in
  let why =
    Arg.(
      value & flag
      & info [ "why" ]
          ~doc:
            "Record derivation provenance and print, for every cover CFD, \
             the tree of RBR resolutions, equivalence classes, renamings \
             and reductions it was obtained by, bottoming out in source \
             CFDs.")
  in
  let provenance_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "provenance-json" ] ~docv:"PATH"
          ~doc:"Write the cover's derivation DAG to $(docv) as JSON.")
  in
  Cmd.v
    (Cmd.info "cover"
       ~doc:"Compute the minimal propagation cover of the source CFDs through a view.")
    Term.(
      const cover $ path_arg $ view_arg $ chunk $ bound $ stats $ stats_json_arg
      $ why $ provenance_json)

let check_cmd =
  let cfd_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"CFD" ~doc:"View CFD, e.g. \"V([CC='44', zip] -> [street])\".")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Decide whether a view CFD is propagated.")
    Term.(const check $ path_arg $ cfd_arg $ view_arg $ budget_arg)

let explain_cmd =
  let cfd_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"CFD" ~doc:"View CFD, e.g. \"V([CC='44', zip] -> [street])\".")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain whether a view CFD is propagated: print the cover CFDs \
          that imply it and their derivations from the source CFDs, or a \
          counterexample source database.")
    Term.(const explain $ path_arg $ cfd_arg $ view_arg $ budget_arg)

let empty_cmd =
  Cmd.v
    (Cmd.info "empty"
       ~doc:"Decide whether the view is empty on every CFD-satisfying source.")
    Term.(const empty $ path_arg $ view_arg $ budget_arg)

let fleet_cmd =
  let views_csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "views" ] ~docv:"V1,V2,..."
          ~doc:"Comma-separated view names to propagate (default: all declared views).")
  in
  let domains =
    Arg.(
      value
      & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:"Propagate the views over a pool of $(docv) worker domains.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Record engine counters (including memo hit/miss rates) and \
             per-phase durations during the fleet run and print them to \
             stderr.")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Propagate the source CFDs through every declared view in one run, \
          sharing covers and implication verdicts between isomorphic views \
          through a cross-view memo; declared view-level CFDs are checked \
          against the fleet covers.")
    Term.(const fleet $ path_arg $ views_csv $ domains $ stats $ stats_json_arg)

let audit_cmd =
  let repair_flag =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:"After reporting, print a repaired version of the data \
                (value modification with deletion fallback).")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Check the declared data against every CFD and CIND; view-level \
          CFDs are checked on the materialised views.")
    Term.(const audit $ path_arg $ repair_flag)

(* ------------------------------------------------------------------ *)
(* serve: resident (view, Σ) sessions behind the line-JSON protocol
   (lib/serve), over stdin/stdout or a loopback TCP socket. *)

let serve once tcp_port domains replicas max_line stats stats_json
    metrics_port access_log slow_ms =
  (* A metrics endpoint without data is useless: --metrics-port records
     what --stats does (durations for percentiles, counters for the
     *_total families). *)
  start_stats (stats || metrics_port <> None) stats_json;
  (* Percentile-grade latency in the log path costs nothing extra once
     requests are being timed anyway. *)
  if access_log <> None || slow_ms <> None then Obs.set_hist_enabled true;
  let pool =
    if domains > 1 then Some (Parallel.Pool.create ~size:domains ())
    else None
  in
  (* Append, as the flag doc promises: a daemon restart must not clobber
     the previous run's log. *)
  let log_oc =
    Option.map
      (open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644)
      access_log
  in
  (* Engine slots per session: default one per worker domain (so a
     saturating batch never queues on one compiled engine), overridable
     with --replicas. *)
  let replicas = if replicas <= 0 then max 1 domains else replicas in
  let server =
    Serve.Server.create ?pool ~replicas ~max_line ?access_log:log_oc ?slow_ms
      ()
  in
  let metrics_stop = Atomic.make false in
  let metrics_domain =
    Option.map
      (fun port ->
        Stdlib.Domain.spawn (fun () ->
            try
              Serve.Metrics.serve_http ~port
                ~on_listen:(fun p ->
                  Fmt.epr "# cfdprop serve: metrics on 127.0.0.1:%d/metrics@." p)
                ~stop:(fun () -> Atomic.get metrics_stop)
                ~render:(fun () -> Serve.Server.prometheus server)
                ()
            with exn ->
              Fmt.epr "# cfdprop serve: metrics endpoint failed: %s@."
                (Printexc.to_string exn)))
      metrics_port
  in
  let errors =
    match tcp_port with
    | Some port ->
      Serve.Server.run_tcp server ~port
        ~on_listen:(fun p ->
          Fmt.epr "# cfdprop serve: listening on 127.0.0.1:%d@." p)
        ();
      0
    | None -> Serve.Server.run_channels server stdin stdout
  in
  Atomic.set metrics_stop true;
  Option.iter Stdlib.Domain.join metrics_domain;
  Option.iter close_out log_oc;
  Option.iter Parallel.Pool.shutdown pool;
  dump_stats stats stats_json;
  (* Scripted transcripts (--once) fail loudly when any line errored. *)
  if once && errors > 0 then 1 else 0

let serve_cmd =
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Process stdin to EOF and exit; nonzero status if any request \
             produced an error response (CI transcript smoke).")
  in
  let tcp_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:
            "Listen on 127.0.0.1:$(docv) instead of stdin/stdout (0 picks \
             a free port, announced on stderr).")
  in
  let domains =
    Arg.(
      value
      & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:"Answer batched requests over a pool of $(docv) worker domains.")
  in
  let replicas =
    Arg.(
      value
      & opt int 0
      & info [ "replicas" ] ~docv:"N"
          ~doc:
            "Compile $(docv) query-engine replicas per session: reads \
             rotate round-robin over them lock-free while Σ-deltas build \
             the next epoch snapshot off to the side and swap it in \
             atomically.  Defaults to --domains, so a saturating batch \
             never queues on one engine.")
  in
  let max_line =
    Arg.(
      value
      & opt int Serve.Protocol.default_max_len
      & info [ "max-line" ] ~docv:"BYTES"
          ~doc:"Reject request lines longer than $(docv) bytes.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Record engine counters (serve.requests, serve.delta_patches, \
             serve.fallbacks, memo hits) and durations (request latencies \
             and per-phase spans); print them to stderr on exit.")
  in
  let metrics_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:
            "Serve Prometheus text-format metrics on \
             127.0.0.1:$(docv)/metrics (0 picks a free port, announced on \
             stderr): request-latency histograms per op and per delta tier, \
             engine counters, and live gauges (resident sessions, session \
             epochs, memo entries, trace drops).  Records what --stats \
             records.")
  in
  let access_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"PATH"
          ~doc:
            "Append one JSON object per handled request to $(docv): \
             timestamp, request id, session, op, epoch, delta plan tier, \
             latency_us, ok/error.")
  in
  let slow_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Mark requests at or over $(docv) milliseconds as slow in the \
             access log, and emit a serve.slow trace instant for each so \
             they are findable in the Perfetto timeline.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident propagation service: line-JSON requests open \
          per-(view, Σ) sessions that stay warm across queries, and \
          add_cfd/remove_cfd patch Σ in place when the delta's relation \
          feeds no view atom and recompute the cover otherwise.")
    Term.(
      const serve $ once $ tcp_port $ domains $ replicas $ max_line $ stats
      $ stats_json_arg $ metrics_port $ access_log $ slow_ms)

let () =
  Format.pp_set_margin Format.std_formatter 10_000;
  Format.pp_set_margin Format.err_formatter 10_000;
  let info =
    Cmd.info "cfdprop" ~version:"1.0.0"
      ~doc:"Propagating functional dependencies with conditions (VLDB 2008)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            validate_cmd;
            cover_cmd;
            check_cmd;
            explain_cmd;
            empty_cmd;
            fleet_cmd;
            audit_cmd;
            serve_cmd;
          ]))
