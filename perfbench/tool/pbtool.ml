(* pbtool — the OCaml half of the end-to-end benchmark (perfbench/run.py).

     pbtool gen-cover DIR                      the fixed Fig. 5-8 doc set
     pbtool gen-serve KIND SEED DOC COUNT REQS META
                                               serve-read / serve-churn streams
     pbtool expect-read DOC REQS N OUT         chase verdicts for N requests
     pbtool expect-churn DOC APPLIED           fresh cover on the final Σ
     pbtool replay-cover DOC...                in-process ledger, batch path
     pbtool replay-serve DOC REQS COUNT        in-process ledger, serve path

   The generators write plain declaration files and protocol request lines:
   the program under test sees nothing but its documented inputs.  The
   checkers use a different decision procedure (the chase-based
   [Implication]) or a from-scratch run, never the daemon's own answer.
   The replays time the public entry points from outside; they add no
   instrumentation to the library and read only what [Obs] already
   records. *)

module P = Propagation
module Parser = Syntax.Parser
module C = Cfds.Cfd
module J = Serve.Json
module Rng = Workload.Rng
open Relational

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("pbtool: " ^ s); exit 2) fmt

(* The protocol's bare CFD body, [V([A] -> [B])], from the statement form
   the printer produces, [cfd V([A] -> [B]);]. *)
let body c =
  let s = Fmt.str "%a" Parser.print_cfd c in
  let n = String.length s in
  let s = if n > 4 && String.sub s 0 4 = "cfd " then String.sub s 4 (n - 4) else s in
  let n = String.length s in
  if n > 0 && s.[n - 1] = ';' then String.sub s 0 (n - 1) else s

let parse_body text =
  match Parser.parse_document (Printf.sprintf "cfd %s;" text) with
  | Ok { Parser.cfds = [ c ]; _ } -> c
  | Ok _ -> die "expected one CFD in %s" text
  | Error m -> die "bad CFD %s: %s" text m

let load_doc path =
  match Parser.parse_document (read_file path) with
  | Ok d -> d
  | Error m -> die "%s: %s" path m

let view_of (doc : Parser.document) =
  match doc.Parser.views with [ v ] -> v | _ -> die "expected exactly one view"

let source_sigma (doc : Parser.document) =
  List.filter (fun c -> Schema.mem doc.Parser.schema c.C.rel) doc.Parser.cfds

let render_doc schema sigma view =
  let b = Buffer.create (1 lsl 17) in
  List.iter
    (fun r -> Buffer.add_string b (Fmt.str "%a\n" Parser.print_schema r))
    (Schema.relations schema);
  List.iter (fun c -> Buffer.add_string b (Fmt.str "%a\n" Parser.print_cfd c)) sigma;
  Buffer.add_string b (Fmt.str "%a\n" Parser.print_view view);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Ledger statistics: a timing is reported as its median and its "tail",
   the highest percentile of the ladder with at least ten samples beyond
   it (rank = ceil (q n), as in [Obs.hist_quantile]).  A replay has a
   fixed request count, so the percentile is fixed per workload. *)

let ladder = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

let tail_q n =
  match
    List.find_opt
      (fun q -> n - int_of_float (Float.ceil (q *. float_of_int n)) >= 10)
      ladder
  with
  | Some q -> q
  | None -> 0.5

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let p50_tail samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  (quantile a 0.5, quantile a (tail_q (Array.length a)))

let hist_p50_tail (h : Obs.hist) =
  (Obs.hist_quantile h 0.5, Obs.hist_quantile h (tail_q h.Obs.h_count))

let median samples = fst (p50_tail samples)

(* ------------------------------------------------------------------ *)
(* The fixed cover set: the paper's default schema, |Σ| = 2000, three
   view shapes that put the time in different Fig. 2 phases (line-1
   MinCover at |Y| = 25; final MinCover at |Y| = 50; RBR at |Ec| = 11),
   at var% 40 and 50.  The instance seeds are the first ones of
   bench/main.ml's sweep (1000 + 7k), so every doc is a Fig. 5-8 point.
   The |Ec| = 11 shape gets as many docs as the other two together:
   run.py reports it as its own operation class and needs enough samples
   of it per run for a tail. *)

let shapes =
  [
    ("y25", 25, 10, 4, [ 1000; 1007 ]);
    ("y50", 50, 10, 4, [ 1000; 1007 ]);
    ("ec11", 25, 10, 11, [ 1000; 1007; 1014; 1021 ]);
  ]

let cover_set =
  List.concat_map
    (fun (tag, y, f, ec, seeds) ->
      List.concat_map
        (fun var ->
          List.map
            (fun seed -> (Printf.sprintf "%s-v%d-s%d" tag var seed, seed, var, y, f, ec))
            seeds)
        [ 40; 50 ])
    shapes

let gen_doc ~seed ~var ~y ~f ~ec =
  let rng = Rng.make seed in
  let schema = Workload.Schema_gen.default rng in
  let sigma =
    Workload.Cfd_gen.generate rng ~schema ~count:2000 ~max_lhs:9 ~var_pct:var
  in
  let view = Workload.View_gen.generate rng ~schema ~y ~f ~ec in
  render_doc schema sigma view

let gen_cover dir =
  List.iter
    (fun (name, seed, var, y, f, ec) ->
      write_file (Filename.concat dir (name ^ ".cfd")) (gen_doc ~seed ~var ~y ~f ~ec);
      print_endline name)
    cover_set

(* ------------------------------------------------------------------ *)
(* Serve request streams.  One line per request on session "b"; META
   gives each line's kind (q = propagates with its probe id, c = cover
   pull, a/r = add_cfd/remove_cfd) so the client can split latencies and
   measure the repeated-probe share of what it actually sent. *)

let request op fields =
  J.to_string (J.Obj ((("op", J.Str op) :: ("session", J.Str "b") :: fields)))

let cfd_request op c = request op [ ("cfd", J.Str (body c)) ]

(* Cumulative Zipf(s) weights over ranks 1..n. *)
let zipf_cdf n s =
  let w = Array.init n (fun k -> 1. /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map (fun x -> acc := !acc +. (x /. total); !acc) w

let zipf rng cdf =
  let u = float_of_int (Rng.int rng 1_000_000_000) /. 1e9 in
  let rec go i = if i >= Array.length cdf - 1 || cdf.(i) > u then i else go (i + 1) in
  go 0

let gen_serve kind seed doc_path count reqs_path meta_path =
  let doc = load_doc doc_path in
  let view = view_of doc in
  let rng = Rng.make seed in
  (* Fixed, like the serve doc's: the seed changes the draws, not their
     distribution (var% 50 probes and deltas run ~25% faster than 40). *)
  let var = 40 in
  let vdb = Schema.db [ Spc.view_schema view ] in
  let reqs = Buffer.create (count * 96) and meta = Buffer.create (count * 8) in
  let emit line m =
    Buffer.add_string reqs line;
    Buffer.add_char reqs '\n';
    Buffer.add_string meta m;
    Buffer.add_char meta '\n'
  in
  let ids = Hashtbl.create 4096 in
  let probe_id c =
    let k = body c in
    match Hashtbl.find_opt ids k with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.add ids k i;
      i
  in
  (match kind with
   | "read" ->
     (* ~90% propagates over fresh probes, ~10% cover pulls, no deltas. *)
     let probes =
       Array.of_list
         (Workload.Cfd_gen.generate rng ~schema:vdb ~count ~max_lhs:3 ~var_pct:var)
     in
     let next = ref 0 in
     for _ = 1 to count do
       if Rng.percent rng 10 then emit (request "cover" []) "c"
       else begin
         let c = probes.(!next) in
         incr next;
         emit (cfd_request "propagates" c) (Printf.sprintf "q %d" (probe_id c))
       end
     done
   | "churn" ->
     (* ~10% Σ-deltas as a random walk (add a never-seen source CFD, or
        remove one added earlier, 50/50), ~90% Zipf(1.1) probes over a
        pool of 256. *)
     let pool =
       Array.of_list
         (Workload.Cfd_gen.generate rng ~schema:vdb ~count:256 ~max_lhs:3 ~var_pct:var)
     in
     let cdf = zipf_cdf (Array.length pool) 1.1 in
     let seen = Hashtbl.create 4096 in
     List.iter
       (fun c -> Hashtbl.replace seen (body (C.canonical c)) ())
       (source_sigma doc);
     (* Adds cycle over the source relations, so that every run patches
        and recomputes in about the same proportion (deltas on relations
        outside the view are patched, the others mostly recompute). *)
     let relations = Array.of_list (Schema.relations doc.Parser.schema) in
     let adds = ref 0 in
     let rec fresh () =
       let schema = Schema.db [ relations.(!adds mod Array.length relations) ] in
       match Workload.Cfd_gen.generate rng ~schema ~count:1 ~max_lhs:9 ~var_pct:var with
       | [ c ] ->
         let k = body (C.canonical c) in
         if Hashtbl.mem seen k then fresh ()
         else begin
           Hashtbl.replace seen k ();
           incr adds;
           c
         end
       | _ -> fresh ()
     in
     let present = ref [||] in
     for _ = 1 to count do
       if Rng.percent rng 10 then begin
         let n = Array.length !present in
         if n > 0 && Rng.bool rng then begin
           let i = Rng.int rng n in
           let c = !present.(i) in
           !present.(i) <- !present.(n - 1);
           present := Array.sub !present 0 (n - 1);
           emit (cfd_request "remove_cfd" c) "r"
         end
         else begin
           let c = fresh () in
           present := Array.append !present [| c |];
           emit (cfd_request "add_cfd" c) "a"
         end
       end
       else
         let c = pool.(zipf rng cdf) in
         emit (cfd_request "propagates" c) (Printf.sprintf "q %d" (probe_id c))
     done
   | k -> die "unknown stream kind %s" k);
  write_file reqs_path (Buffer.contents reqs);
  write_file meta_path (Buffer.contents meta)

(* ------------------------------------------------------------------ *)
(* Answer checks *)

let read_lines path =
  String.split_on_char '\n' (read_file path) |> List.filter (fun l -> l <> "")

let request_cfd line =
  match Serve.Protocol.of_line line with
  | Ok { Serve.Protocol.op = Serve.Protocol.Propagates { cfd; _ }; _ }
  | Ok { Serve.Protocol.op = Serve.Protocol.Add_cfd { cfd; _ }; _ }
  | Ok { Serve.Protocol.op = Serve.Protocol.Remove_cfd { cfd; _ }; _ } ->
    Some cfd
  | _ -> None

let new_session view sigma =
  match
    Serve.Session.create ~memo:(P.Memo.create ()) ~name:"b" ~view ~sigma ()
  with
  | Ok s -> s
  | Error e -> die "session: %s" e

(* One verdict character per request line: '1'/'0' for a propagates
   (decided by the chase on the session's cover), '-' otherwise. *)
let expect_read doc_path reqs_path n out_path =
  let doc = load_doc doc_path in
  let view = view_of doc in
  let r = Serve.Session.cover (new_session view (source_sigma doc)) in
  let vschema = Spc.view_schema view in
  let lines = read_lines reqs_path in
  let b = Buffer.create n in
  List.iteri
    (fun i line ->
      if i < n then
        Buffer.add_char b
          (match request_cfd line with
           | None -> '-'
           | Some text ->
             let phi = parse_body text in
             if r.P.Propcover.always_empty
                || P.Implication.implies vschema r.P.Propcover.cover phi
             then '1'
             else '0'))
    lines;
  write_file out_path (Buffer.contents b)

(* APPLIED holds one "+ body" / "- body" line per delta the daemon applied
   (plan other than noop).  Every added CFD is never-seen and removed at
   most once, so the final Σ does not depend on the order they landed. *)
let expect_churn doc_path applied_path =
  let doc = load_doc doc_path in
  let view = view_of doc in
  let adds, removes =
    List.fold_left
      (fun (a, r) line ->
        let c = C.canonical (parse_body (String.sub line 2 (String.length line - 2))) in
        if line.[0] = '+' then (c :: a, r) else (a, c :: r))
      ([], []) (read_lines applied_path)
  in
  let sigma =
    Serve.Session.normalize_sigma (source_sigma doc @ adds)
    |> List.filter (fun c -> not (List.exists (C.equal c) removes))
  in
  let options = Serve.Session.fresh_options (new_session view []) in
  let r = P.Propcover.cover ~options view sigma in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("cover", J.Arr (List.map (fun c -> J.Str (body c)) r.P.Propcover.cover));
            ("complete", J.Bool r.P.Propcover.complete);
            ("always_empty", J.Bool r.P.Propcover.always_empty);
          ]))

(* ------------------------------------------------------------------ *)
(* The per-layer ledger.  Each replay makes two passes over the same
   inputs: one with every Obs channel off (the in-process time, so the
   wire gap, and the GC cost per operation) and one with counters, spans
   and histograms on (read back through [Obs.snapshot]). *)

let counter (s : Obs.snapshot) name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name s.Obs.counters))

let span_s (s : Obs.snapshot) name =
  match List.assoc_opt name s.Obs.spans with Some (_, t) -> t | None -> 0.

let phases =
  [ "initial_mincover"; "rename"; "compute_eq"; "rbr"; "eq2cfd"; "final_mincover" ]

let set_obs on =
  Obs.set_enabled on;
  Obs.set_hist_enabled on

(* Metrics read off the traced snapshot, common to both paths.  Phase
   times add up to [propcover.cover] through an explicit remainder. *)
let layer_metrics (s : Obs.snapshot) =
  let cover_s = span_s s "propcover.cover" in
  let share x = if cover_s > 0. then x /. cover_s else 0. in
  let phase_rows =
    List.concat_map
      (fun p ->
        let t = span_s s ("propcover." ^ p) in
        [ ("phase." ^ p ^ ".ms", t *. 1e3); ("phase." ^ p ^ ".share", share t) ])
      phases
  in
  let attributed =
    List.fold_left (fun acc p -> acc +. span_s s ("propcover." ^ p)) 0. phases
  in
  let rest = cover_s -. attributed in
  let chases = counter s "fast_impl.chases" in
  let per_chase name = if chases > 0. then counter s name /. chases else 0. in
  let hits = counter s "memo.hits" and misses = counter s "memo.misses" in
  let queries = counter s "serve.queries" in
  let delta_hist tier =
    let name = "serve.delta_us." ^ tier in
    let p50, tail =
      match List.assoc_opt name s.Obs.hists with
      | Some h -> hist_p50_tail h
      | None -> (0., 0.)
    in
    [ (name ^ ".p50", p50); (name ^ ".tail", tail) ]
  in
  phase_rows
  @ [
      ("phase.unattributed.ms", rest *. 1e3);
      ("phase.unattributed.share", share rest);
      ("propcover.cover_ms", cover_s *. 1e3);
      ("propcover.covers", counter s "propcover.covers_computed");
      ("mincover.candidates_tested", counter s "mincover.candidates_tested");
      ("mincover.cfds_removed", counter s "mincover.cfds_removed");
      ("mincover.lhs_attrs_removed", counter s "mincover.lhs_attrs_removed");
      ("mincover.minimal_cover_ms", span_s s "mincover.minimal_cover" *. 1e3);
      ("fast_impl.chases", chases);
      ("fast_impl.rule_apps_per_chase", per_chase "fast_impl.rule_applications");
      ("fast_impl.mask_skips_per_chase", per_chase "fast_impl.mask_prune_skips");
      ("fast_impl.compiles", counter s "fast_impl.compiles");
      ("fast_impl.arena_resets", counter s "fast_impl.arena_resets");
      ("rbr.resolvents_generated", counter s "rbr.resolvents_generated");
      ("rbr.resolvents_deduped", counter s "rbr.resolvents_deduped");
      ("rbr.bucket_nodes_touched", counter s "rbr.bucket_nodes_touched");
      ("rbr.prune_rounds", counter s "rbr.prune_rounds");
      ("rbr.engine_builds", counter s "rbr.engine_builds");
      ("rbr.delta_seeded", counter s "rbr.delta_seeded");
      ("rbr.delta_reuse", counter s "rbr.delta_reuse");
      ("memo.hits", hits);
      ("memo.misses", misses);
      ("memo.hit_ratio", if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
      ("memo.inserts", counter s "memo.inserts");
      ("memo.races", counter s "memo.races");
      ("serve.queries", queries);
      ("serve.replica_reads", counter s "serve.replica_reads");
      ( "session.engine_reach",
        if queries > 0. then counter s "serve.replica_reads" /. queries else 0. );
      ("serve.delta_patches", counter s "serve.delta_patches");
      ("serve.fallbacks", counter s "serve.fallbacks");
      ("serve.epoch_swaps", counter s "serve.epoch_swaps");
    ]
  @ delta_hist "patched" @ delta_hist "recomputed"

let gc_metrics (g0 : Gc.stat) (g1 : Gc.stat) ops =
  let n = float_of_int (max 1 ops) in
  [
    ("gc.minor_words_per_op", (g1.Gc.minor_words -. g0.Gc.minor_words) /. n);
    ( "gc.major_collections_per_op",
      float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) /. n );
  ]

(* server.handle_line_us.<op>.{p50,tail} from per-op samples in µs
   (all 0 on the batch path, which sends no requests). *)
let op_rows per_op =
  List.concat_map
    (fun op ->
      let p50, tail =
        match Hashtbl.find_opt per_op op with Some l -> p50_tail l | None -> (0., 0.)
      in
      [
        ("server.handle_line_us." ^ op ^ ".p50", p50);
        ("server.handle_line_us." ^ op ^ ".tail", tail);
      ])
    [ "propagates"; "cover"; "delta" ]

let print_ledger rows =
  print_endline
    (J.to_string (J.Obj (List.map (fun (k, v) -> (k, J.Num v)) rows)))

let time f =
  let t0 = Obs.now () in
  let r = f () in
  (Obs.now () -. t0, r)

(* The batch path, as [cfdprop cover FILE] runs it: read, parse, cover
   (with the CLI's options), print. *)
let cover_options =
  { P.Propcover.default_options with P.Propcover.prune_chunk = None; max_intermediate = None }

let cover_once path =
  let parse_s, doc = time (fun () -> load_doc path) in
  let view = view_of doc in
  let sigma = source_sigma doc in
  let r = P.Propcover.cover ~options:cover_options view sigma in
  let out = Buffer.create 4096 in
  List.iter (fun c -> Buffer.add_string out (Fmt.str "%a\n" Parser.print_cfd c)) r.P.Propcover.cover;
  (parse_s, r.P.Propcover.cover)

let replay_cover paths =
  set_obs false;
  let g0 = Gc.quick_stat () in
  let plain_s, plain =
    time (fun () -> List.map cover_once paths)
  in
  let g1 = Gc.quick_stat () in
  set_obs true;
  let traced_s, traced = time (fun () -> List.map cover_once paths) in
  let snap = Obs.snapshot () in
  set_obs false;
  let parse_s = List.fold_left (fun acc (p, _) -> acc +. p) 0. traced in
  let cover_s = span_s snap "propcover.cover" in
  let cfd_parse_us =
    List.concat_map
      (fun (_, cover) ->
        List.map (fun c -> let text = body c in fst (time (fun () -> parse_body text)) *. 1e6) cover)
      plain
  in
  print_ledger
    ([
       ("syntax.doc_parse_ms", median (List.map (fun (p, _) -> p *. 1e3) plain));
       ("syntax.cfd_parse_us", median cfd_parse_us);
       ("protocol.of_line_us", 0.);
       ("process.wall_ms", traced_s *. 1e3);
       ("process.parse_ms", parse_s *. 1e3);
       ("process.cover_ms", cover_s *. 1e3);
       ("process.unattributed_ms", (traced_s -. parse_s -. cover_s) *. 1e3);
       ("obs.overhead", traced_s /. plain_s);
       ("session.noops", 0.);
       ("memo.entries_end", 0.);
     ]
    @ op_rows (Hashtbl.create 1)
    @ layer_metrics snap
    @ gc_metrics g0 g1 (List.length paths))

(* The serve path, as the daemon runs it with --domains 2: one server
   with a 2-domain pool (so 2 engine replicas per session), one session
   "b" opened on DOC, then the first COUNT request lines. *)
let serve_pass ~traced doc_text lines =
  set_obs traced;
  let pool = Parallel.Pool.create ~size:2 () in
  let server = Serve.Server.create ~pool ~replicas:2 () in
  let open_line =
    J.to_string
      (J.Obj [ ("op", J.Str "open"); ("session", J.Str "b"); ("doc", J.Str doc_text) ])
  in
  let ok resp =
    match J.parse resp with
    | Ok o -> J.member "ok" o = Some (J.Bool true)
    | Error _ -> false
  in
  let per_op = Hashtbl.create 8 in
  let failed = ref 0 in
  let g0 = Gc.quick_stat () in
  let t0 = Obs.now () in
  if not (ok (Serve.Server.handle_line server open_line)) then die "open failed";
  List.iter
    (fun line ->
      let dt, resp = time (fun () -> Serve.Server.handle_line server line) in
      if not (ok resp) then incr failed;
      let op =
        match Serve.Protocol.of_line line with
        | Ok { Serve.Protocol.op = Serve.Protocol.Add_cfd _ | Serve.Protocol.Remove_cfd _; _ } ->
          "delta"
        | Ok r -> Serve.Protocol.op_name r.Serve.Protocol.op
        | Error _ -> "invalid"
      in
      Hashtbl.replace per_op op
        ((dt *. 1e6) :: Option.value ~default:[] (Hashtbl.find_opt per_op op)))
    lines;
  let wall = Obs.now () -. t0 in
  let g1 = Gc.quick_stat () in
  let snap = if traced then Obs.snapshot () else Obs.empty_snapshot in
  let session =
    match Serve.Server.find_session server "b" with
    | Some s -> s
    | None -> die "session vanished"
  in
  let stats = Serve.Session.stats session in
  let entries = P.Memo.entries (Serve.Server.memo server) in
  Parallel.Pool.shutdown pool;
  set_obs false;
  if !failed > 0 then die "%d error replies in the in-process replay" !failed;
  (wall, per_op, snap, stats, entries, (g0, g1))

let replay_serve doc_path reqs_path count =
  let doc_text = read_file doc_path in
  let lines = List.filteri (fun i _ -> i < count) (read_lines reqs_path) in
  let plain_s, per_op, _, _, _, (g0, g1) = serve_pass ~traced:false doc_text lines in
  let traced_s, _, snap, stats, entries, _ = serve_pass ~traced:true doc_text lines in
  let doc_parse_ms =
    median (List.init 5 (fun _ -> fst (time (fun () -> ignore (Parser.parse_document doc_text))) *. 1e3))
  in
  let bodies = List.filter_map request_cfd lines in
  let cfd_parse_us =
    List.map (fun text -> fst (time (fun () -> ignore (parse_body text))) *. 1e6) bodies
  in
  let of_line_us =
    List.map
      (fun line -> fst (time (fun () -> ignore (Serve.Protocol.of_line line))) *. 1e6)
      lines
  in
  (* Parsing is timed outside the server (the daemon records no parse
     span): one doc parse for the open plus one CFD parse per request. *)
  let parse_s =
    (doc_parse_ms /. 1e3) +. (List.fold_left ( +. ) 0. cfd_parse_us /. 1e6)
  in
  let cover_s = span_s snap "propcover.cover" in
  print_ledger
    ([
       ("syntax.doc_parse_ms", doc_parse_ms);
       ("syntax.cfd_parse_us", median cfd_parse_us);
       ("protocol.of_line_us", median of_line_us);
       ("process.wall_ms", traced_s *. 1e3);
       ("process.parse_ms", parse_s *. 1e3);
       ("process.cover_ms", cover_s *. 1e3);
       ("process.unattributed_ms", (traced_s -. parse_s -. cover_s) *. 1e3);
       ("obs.overhead", traced_s /. plain_s);
       ("session.noops", float_of_int stats.Serve.Session.noops);
       ("memo.entries_end", float_of_int entries);
     ]
    @ op_rows per_op
    @ layer_metrics snap
    @ gc_metrics g0 g1 (List.length lines))

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "gen-cover"; dir ] -> gen_cover dir
  | [ "gen-serve"; kind; seed; doc; count; reqs; meta ] ->
    gen_serve kind (int_of_string seed) doc (int_of_string count) reqs meta
  | [ "expect-read"; doc; reqs; n; out ] -> expect_read doc reqs (int_of_string n) out
  | [ "expect-churn"; doc; applied ] -> expect_churn doc applied
  | "replay-cover" :: (_ :: _ as docs) -> replay_cover docs
  | [ "replay-serve"; doc; reqs; count ] -> replay_serve doc reqs (int_of_string count)
  | _ -> die "usage: see the header of perfbench/tool/pbtool.ml"
