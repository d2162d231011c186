(* The serve path: line protocol, resident sessions, and the Σ-delta
   planner's byte-identity contract.

   Three layers:

   - protocol robustness: malformed JSON, unknown ops, missing fields,
     oversized lines — each yields an error *response*, never a crash,
     and the request id survives into the response;
   - session lifecycle and the delta tiers (Patched / Recomputed / Noop)
     on the paper's running example, where each tier is forced by
     construction;
   - the differential harness: seeded random walks of interleaved
     add/remove/cover/propagates against one resident session, with the
     session's cover compared *byte-identically* against a from-scratch
     [Propcover.cover] on the current Σ after every step, plus a
     multi-domain hammer test for torn state. *)

open Relational
module C = Cfds.Cfd
module P = Propagation
module Json = Serve.Json
module Protocol = Serve.Protocol
module Session = Serve.Session
module Server = Serve.Server
module Gen = QCheck2.Gen

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let ok_exn = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* ------------------------------------------------------------------ *)
(* JSON round-trips (the promoted zero-dep encoder/parser) *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.Str "he said \"hi\"\n\ttab");
        ("n", Json.Num 42.);
        ("frac", Json.Num 1.5);
        ("b", Json.Bool false);
        ("z", Json.Null);
        ("a", Json.Arr [ Json.Num 1.; Json.Str "x"; Json.Obj [] ]);
      ]
  in
  let s = Json.to_string doc in
  check_bool "one line" false (String.contains s '\n');
  (match Json.parse s with
  | Ok d -> check_bool "roundtrip" true (d = doc)
  | Error msg -> Alcotest.failf "reparse failed: %s" msg);
  check_str "int rendering" "42" (Json.to_string (Json.Num 42.));
  check_bool "parse error is a result" true
    (match Json.parse "{\"x\": }" with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Protocol robustness through a live server *)

let field resp name =
  match Json.parse resp with
  | Ok obj -> Json.member name obj
  | Error msg -> Alcotest.failf "unparseable response %s: %s" resp msg

let is_ok resp = field resp "ok" = Some (Json.Bool true)

let test_protocol_errors () =
  let t = Server.create ~max_line:256 () in
  (* malformed JSON: error response, connection-level survival *)
  let r = Server.handle_line t "this is not json" in
  check_bool "malformed -> ok:false" false (is_ok r);
  (* non-object payload *)
  let r = Server.handle_line t "[1, 2]" in
  check_bool "non-object -> ok:false" false (is_ok r);
  (* unknown op, id echoed back *)
  let r = Server.handle_line t "{\"op\": \"frobnicate\", \"id\": 7}" in
  check_bool "unknown op -> ok:false" false (is_ok r);
  check_bool "id echoed on error" true (field r "id" = Some (Json.Num 7.));
  (* missing field *)
  let r = Server.handle_line t "{\"op\": \"cover\"}" in
  check_bool "missing session -> ok:false" false (is_ok r);
  (* oversized line *)
  let big =
    "{\"op\": \"ping\", \"pad\": \"" ^ String.make 300 'x' ^ "\"}"
  in
  let r = Server.handle_line t big in
  check_bool "oversized -> ok:false" false (is_ok r);
  (* unknown session *)
  let r = Server.handle_line t "{\"op\": \"cover\", \"session\": \"nope\"}" in
  check_bool "unknown session -> ok:false" false (is_ok r);
  (* blank and comment lines produce no response *)
  check_str "blank skipped" "" (Server.handle_line t "");
  check_str "comment skipped" "" (Server.handle_line t "  # hello");
  (* the server is still alive *)
  check_bool "ping after abuse" true
    (is_ok (Server.handle_line t "{\"op\": \"ping\"}"))

let example_doc =
  "schema R1(AC: string, phn: string, name: string, street: string, \
   city: string, zip: string); cfd R1([zip] -> [street]); cfd R1([AC] -> \
   [city]); view V = from [R1(AC, phn, name, street, city, zip)] \
   constants [CC='44'] project [CC, AC, phn, name, street, city, zip];"

let open_line ?(session = "s") () =
  Printf.sprintf "{\"op\": \"open\", \"session\": %S, \"doc\": %s}" session
    (Json.to_string (Json.Str example_doc))

let test_lifecycle () =
  let t = Server.create () in
  check_bool "open" true (Server.handle_line t (open_line ()) |> is_ok);
  (* duplicate name refused while open *)
  check_bool "duplicate open refused" false
    (Server.handle_line t (open_line ()) |> is_ok);
  let r =
    Server.handle_line t "{\"op\": \"cover\", \"session\": \"s\"}"
  in
  check_bool "cover" true (is_ok r);
  let r =
    Server.handle_line t
      "{\"op\": \"propagates\", \"session\": \"s\", \"cfd\": \"V([zip] -> \
       [street])\"}"
  in
  check_bool "propagates" true (is_ok r);
  check_bool "verdict true" true
    (field r "propagates" = Some (Json.Bool true));
  (* a cover entry feeds straight back into propagates *)
  let cover_entry =
    match field (Server.handle_line t "{\"op\": \"cover\", \"session\": \"s\"}") "cover" with
    | Some (Json.Arr (Json.Str e :: _)) -> e
    | _ -> Alcotest.fail "no cover entry"
  in
  let r =
    Server.handle_line t
      (Printf.sprintf
         "{\"op\": \"propagates\", \"session\": \"s\", \"cfd\": %S}"
         cover_entry)
  in
  check_bool "cover entry round-trips" true
    (is_ok r && field r "propagates" = Some (Json.Bool true));
  check_bool "close" true
    (Server.handle_line t "{\"op\": \"close\", \"session\": \"s\"}" |> is_ok);
  (* queries against the closed session error; the session stays findable *)
  let r = Server.handle_line t "{\"op\": \"cover\", \"session\": \"s\"}" in
  check_bool "query closed -> error" false (is_ok r);
  check_bool "closed error message" true
    (field r "error" = Some (Json.Str "session closed"));
  (* ... and the name can be reused *)
  check_bool "reopen after close" true
    (Server.handle_line t (open_line ()) |> is_ok)

(* CFD text the parser rejects draws a [bad CFD] error response, not a
   failed request, and so does a CFD over attributes its relation lacks,
   from every op that takes one; the session keeps serving. *)
let test_bad_cfd_text () =
  let t = Server.create () in
  check_bool "open" true (Server.handle_line t (open_line ()) |> is_ok);
  let error_of op cfd =
    let r =
      Server.handle_line t
        (Printf.sprintf "{\"op\": %S, \"session\": \"s\", \"cfd\": %S}" op cfd)
    in
    match field r "error" with
    | Some (Json.Str m) -> m
    | _ -> Alcotest.failf "%s %s: expected an error, got %s" op cfd r
  in
  let big = "V([AC=99999999999999999999999] -> [city])" in
  (* The request text is wrapped as [cfd <text>;] before parsing. *)
  check_str "integer literal out of range"
    (Printf.sprintf
       "bad CFD: lexical error at offset %d: integer literal out of range"
       (4 + String.index big '9'))
    (error_of "propagates" big);
  check_str "duplicate LHS attribute"
    "bad CFD: Cfd.make: duplicate LHS attribute zip"
    (error_of "add_cfd" "R1([zip, zip] -> [street])");
  check_str "add_cfd, unknown attribute" "R1 has no attribute bogus"
    (error_of "add_cfd" "R1([bogus] -> [city])");
  check_str "remove_cfd, unknown attribute" "R1 has no attribute bogus"
    (error_of "remove_cfd" "R1([bogus] -> [city])");
  check_str "propagates, unknown attribute" "V has no attribute bogus"
    (error_of "propagates" "V([bogus] -> [street])");
  check_str "explain, unknown attribute" "V has no attribute bogus"
    (error_of "explain" "V([AC] -> [bogus])");
  check_str "CFD over another relation" "CFD is over W, not V"
    (error_of "propagates" "W([AC] -> [city])");
  check_bool "session still serves" true
    (Server.handle_line t "{\"op\": \"cover\", \"session\": \"s\"}" |> is_ok)

let test_batch_order () =
  let t = Server.create () in
  let lines =
    List.init 12 (fun i -> Printf.sprintf "{\"op\": \"ping\", \"id\": %d}" i)
  in
  Parallel.Pool.with_pool ~size:4 (fun _pool ->
      let resps = Server.handle_batch t lines in
      check_int "one response per line" 12 (List.length resps);
      List.iteri
        (fun i r ->
          check_bool
            (Printf.sprintf "id %d in order" i)
            true
            (field r "id" = Some (Json.Num (float_of_int i))))
        resps)

(* A Tier-A add inserts the CFD into the sorted Σ in place, and a Tier-A
   remove takes it out in place; the [sigma] op must then read
   byte-for-byte as for a session opened on that Σ, which sorts it from
   scratch.  R0 and R2 feed no view atom, so every delta below is Tier A;
   adds land first, last and in between, removes take out the first, the
   last and a middle member, and some CFDs are written with their LHS out
   of canonical order. *)
let test_tier_a_sigma () =
  let schemas =
    "schema R0(A: string, B: string, C: string); schema R1(A: string, B: \
     string, C: string); schema R2(A: string, B: string, C: string); view V \
     = from [R1(A, B, C)] project [A, B, C];"
  in
  let base = [ "R1([A] -> [B])"; "R2([B] -> [C])"; "R2([C='9'] -> [A])" ] in
  let adds = [ "R0([C, A] -> [B])"; "R2([C, B] -> [A='1'])"; "R2([B] -> [A])" ] in
  let doc cfds =
    schemas ^ String.concat "" (List.map (Printf.sprintf " cfd %s;") cfds)
  in
  let open_doc name cfds =
    Printf.sprintf "{\"op\": \"open\", \"session\": %S, \"doc\": %s}" name
      (Json.to_string (Json.Str (doc cfds)))
  in
  let t = Server.create () in
  check_bool "open" true (Server.handle_line t (open_doc "walk" base) |> is_ok);
  let members name =
    match
      field
        (Server.handle_line t
           (Printf.sprintf "{\"op\": \"sigma\", \"session\": %S}" name))
        "sigma"
    with
    | Some (Json.Arr l) -> List.map Json.to_string l
    | Some _ | None -> Alcotest.failf "no sigma for %s" name
  in
  let sigma name = String.concat "," (members name) in
  List.iteri
    (fun k cfd ->
      let r =
        Server.handle_line t
          (Printf.sprintf
             "{\"op\": \"add_cfd\", \"session\": \"walk\", \"cfd\": %S}" cfd)
      in
      check_bool ("tier A add " ^ cfd) true
        (field r "plan" = Some (Json.Str "patched"));
      let fresh = Printf.sprintf "fresh%d" k in
      let sofar = base @ List.filteri (fun j _ -> j <= k) adds in
      check_bool "open fresh" true
        (Server.handle_line t (open_doc fresh sofar) |> is_ok);
      check_str ("sigma after adding " ^ cfd) (sigma fresh) (sigma "walk"))
    adds;
  (* Adding a member again is a noop and leaves Σ as it was. *)
  let before = sigma "walk" in
  let r =
    Server.handle_line t
      "{\"op\": \"add_cfd\", \"session\": \"walk\", \"cfd\": \"R2([B, C] -> [A='1'])\"}"
  in
  check_bool "re-add is a noop" true (field r "plan" = Some (Json.Str "noop"));
  check_str "noop keeps sigma" before (sigma "walk");
  let remove cfd =
    Server.handle_line t
      (Printf.sprintf
         "{\"op\": \"remove_cfd\", \"session\": \"walk\", \"cfd\": %S}" cfd)
  in
  let removes =
    [
      ("R0([C, A] -> [B])", `First);
      ("R2([C='9'] -> [A])", `Last);
      ("R2([B] -> [C])", `Middle);
    ]
  in
  List.iteri
    (fun k (cfd, where) ->
      let before = members "walk" in
      let n = List.length before in
      let r = remove cfd in
      check_bool ("tier A remove " ^ cfd) true
        (field r "plan" = Some (Json.Str "patched"));
      let after = members "walk" in
      check_int ("one fewer member after removing " ^ cfd) (n - 1)
        (List.length after);
      (* The position of the removed member: the first where the two
         lists part. *)
      let rec parted i = function
        | b :: bs, a :: as_ when String.equal a b -> parted (i + 1) (bs, as_)
        | _ -> i
      in
      let i = parted 0 (before, after) in
      check_bool ("position of " ^ cfd) true
        (match where with
         | `First -> i = 0
         | `Last -> i = n - 1
         | `Middle -> 0 < i && i < n - 1);
      Alcotest.(check (list string))
        ("only " ^ cfd ^ " left")
        (List.filteri (fun j _ -> j <> i) before)
        after;
      let gone = List.filteri (fun j _ -> j <= k) (List.map fst removes) in
      let left = List.filter (fun c -> not (List.mem c gone)) (base @ adds) in
      let fresh = Printf.sprintf "fresh-removed%d" k in
      check_bool "open fresh" true
        (Server.handle_line t (open_doc fresh left) |> is_ok);
      check_str ("sigma after removing " ^ cfd) (sigma fresh) (sigma "walk"))
    removes;
  (* Removing a CFD that is not a member is a noop and leaves Σ as it
     was. *)
  let before = sigma "walk" in
  let r = remove "R2([A] -> [C])" in
  check_bool "absent remove is a noop" true
    (field r "plan" = Some (Json.Str "noop"));
  check_str "absent remove keeps sigma" before (sigma "walk")

(* ------------------------------------------------------------------ *)
(* Delta tiers on the running example (Fixtures q1: view over R1 only) *)

let test_delta_tiers () =
  let open Fixtures in
  let memo = P.Memo.create () in
  let s =
    ok_exn (Session.create ~memo ~name:"t" ~view:q1 ~sigma:[ f1; f2 ] ())
  in
  check_int "initial epoch" 0 (Session.epoch s);
  (* recomputes counts the initial cover plus every recomputed delta. *)
  let check_recomputes fallbacks =
    let st = Session.stats s in
    check_int "fallbacks so far" fallbacks st.Session.fallbacks;
    check_int "recomputes = fallbacks + 1" (fallbacks + 1) st.Session.recomputes
  in
  check_recomputes 0;
  (* Tier A: R2 feeds no atom of q1 — patched, cover untouched. *)
  let d = ok_exn (Session.add_cfd s (C.fd "R2" [ "zip" ] "street")) in
  check_recomputes 0;
  check_bool "tier A patched" true (d.Session.plan = Session.Patched);
  check_bool "tier A cover unchanged" false d.Session.changed;
  check_int "tier A epoch" 1 d.Session.epoch;
  (* Noop: the axiom is already present. *)
  let d = ok_exn (Session.add_cfd s f1) in
  check_recomputes 0;
  check_bool "noop" true (d.Session.plan = Session.Noop);
  check_int "noop epoch" 1 d.Session.epoch;
  (* [AC='20', zip] -> [street] is implied by f1, so line 1 absorbs it,
     but it is on R1, which the view reads: the delta recomputes, and the
     cover's bytes stay as they were. *)
  let redundant =
    C.make "R1"
      [ ("AC", Cfds.Pattern.Const (Value.str "20")); ("zip", Cfds.Pattern.Wild) ]
      ("street", Cfds.Pattern.Wild)
  in
  let before = (Session.cover s).P.Propcover.cover in
  let d = ok_exn (Session.add_cfd s redundant) in
  check_recomputes 1;
  check_bool "absorbed add recomputed" true (d.Session.plan = Session.Recomputed);
  check_bool "absorbed add leaves the cover" false d.Session.changed;
  check_int "absorbed add epoch" 2 d.Session.epoch;
  check_bool "absorbed add keeps the cover's bytes" true
    (List.equal
       (fun a b -> C.compare a b = 0)
       before (Session.cover s).P.Propcover.cover);
  (* cfd1 survives into the cover — recomputed. *)
  let d = ok_exn (Session.add_cfd s cfd1) in
  check_recomputes 2;
  check_bool "cfd1 recomputed" true (d.Session.plan = Session.Recomputed);
  check_bool "cfd1 cover changed" true d.Session.changed;
  check_bool "cfd1 added nonempty" true (d.Session.added <> []);
  (* explain materialises attribution; the next removal reports staleness *)
  let e = ok_exn (Session.explain s phi4) in
  check_bool "phi4 propagated" true e.Session.propagated;
  check_bool "phi4 attribution cites cfd1" true
    (List.exists
       (fun (_, srcs) -> List.exists (C.equal (C.canonical cfd1)) srcs)
       e.Session.sources);
  let d = ok_exn (Session.remove_cfd s cfd1) in
  check_recomputes 3;
  check_bool "removal recomputed" true (d.Session.plan = Session.Recomputed);
  check_bool "removal reports stale members" true
    (match d.Session.stale with Some (_ :: _) -> true | _ -> false);
  (* after the walk, the session cover is byte-identical to fresh *)
  let fresh =
    P.Propcover.cover
      ~options:(Session.fresh_options s)
      (Session.view s) (Session.sigma s)
  in
  let r = Session.cover s in
  check_bool "byte-identical to fresh" true
    (List.length r.P.Propcover.cover = List.length fresh.P.Propcover.cover
    && List.for_all2
         (fun a b -> C.compare a b = 0)
         r.P.Propcover.cover fresh.P.Propcover.cover);
  let st = Session.stats s in
  check_int "patches" 1 st.Session.patches;
  check_int "fallbacks" 3 st.Session.fallbacks;
  check_int "noops" 1 st.Session.noops

(* Σ order never reaches the cover: ids are interned from the (schema,
   view) pair before Σ is seen, so on random workloads the cover of Σ,
   of its reverse and of a seeded shuffle are byte-identical.  Sessions
   (which normalise Σ) and the slice memo (which keys on Σ_R) rely on
   this. *)
let sigma_order_invariant seed =
  let rng = Workload.Rng.make seed in
  let relations = Workload.Rng.range rng 2 4 in
  let schema =
    Workload.Schema_gen.generate rng ~relations ~min_arity:3 ~max_arity:6
  in
  let count = Workload.Rng.range rng 6 16 in
  let sigma =
    Workload.Cfd_gen.generate rng ~schema ~count ~max_lhs:4 ~var_pct:50
  in
  let ec = Workload.Rng.range rng 1 2 in
  let y = Workload.Rng.range rng 2 5 in
  let f = Workload.Rng.range rng 0 2 in
  let view = Workload.View_gen.generate rng ~schema ~y ~f ~ec in
  let shuffled = Workload.Rng.sample rng (List.length sigma) sigma in
  let base = P.Propcover.cover view sigma in
  List.for_all
    (fun sigma' ->
      let r = P.Propcover.cover view sigma' in
      r.P.Propcover.always_empty = base.P.Propcover.always_empty
      && r.P.Propcover.complete = base.P.Propcover.complete
      && List.equal
           (fun a b -> C.compare a b = 0)
           r.P.Propcover.cover base.P.Propcover.cover)
    [ List.rev sigma; shuffled ]

let test_sigma_order_invariant () =
  List.iter
    (fun seed ->
      check_bool
        (Printf.sprintf "cover invariant under sigma order (seed %d)" seed)
        true (sigma_order_invariant seed))
    [ 3; 17; 101; 4_096; 271_828 ]

(* ------------------------------------------------------------------ *)
(* The differential harness: delta walks vs from-scratch batch runs *)

let covers_match s =
  let fresh =
    P.Propcover.cover
      ~options:(Session.fresh_options s)
      (Session.view s) (Session.sigma s)
  in
  let r = Session.cover s in
  r.P.Propcover.always_empty = fresh.P.Propcover.always_empty
  && r.P.Propcover.complete = fresh.P.Propcover.complete
  && List.length r.P.Propcover.cover = List.length fresh.P.Propcover.cover
  && List.for_all2
       (fun a b -> C.compare a b = 0)
       r.P.Propcover.cover fresh.P.Propcover.cover

(* One seeded walk: ~12 interleaved add/remove/cover/propagates ops
   against a resident session, the cover checked byte-identically against
   a fresh batch run after every delta, the verdicts checked against an
   engine compiled from the fresh cover.  Exposed as [seed -> bool] for
   the seed-replay corpus in regressions.ml. *)
let walk_matches_batch seed =
  let rng = Workload.Rng.make seed in
  let relations = Workload.Rng.range rng 2 4 in
  let schema =
    Workload.Schema_gen.generate rng ~relations ~min_arity:3 ~max_arity:6
  in
  let count = Workload.Rng.range rng 6 18 in
  let sigma =
    Workload.Cfd_gen.generate rng ~schema ~count ~max_lhs:4 ~var_pct:50
  in
  (* a side pool of candidate axioms the walk adds/removes *)
  let extra =
    Workload.Cfd_gen.generate rng ~schema ~count:10 ~max_lhs:4 ~var_pct:40
  in
  let ec = Workload.Rng.range rng 1 2 in
  let y = Workload.Rng.range rng 2 5 in
  let f = Workload.Rng.range rng 0 2 in
  let view = Workload.View_gen.generate rng ~schema ~y ~f ~ec in
  let vschema = Spc.view_schema view in
  let probes =
    Workload.Cfd_gen.generate rng
      ~schema:(Schema.db [ vschema ])
      ~count:8 ~max_lhs:2 ~var_pct:50
  in
  let memo = P.Memo.create () in
  let s = ok_exn (Session.create ~memo ~name:"w" ~view ~sigma ()) in
  let verdict_matches phi =
    let fresh =
      P.Propcover.cover
        ~options:(Session.fresh_options s)
        (Session.view s) (Session.sigma s)
    in
    let expected =
      fresh.P.Propcover.always_empty
      || P.Implication.implies vschema fresh.P.Propcover.cover phi
    in
    match Session.propagates s phi with
    | Ok (v, _) -> v = expected
    | Error _ -> false
  in
  let steps = Workload.Rng.range rng 10 14 in
  let ok = ref (covers_match s) in
  for step = 1 to steps do
    if !ok then begin
      match Workload.Rng.int rng 4 with
      | 0 ->
        (* add an axiom from the side pool (noops allowed) *)
        let c = Workload.Rng.pick rng extra in
        (match Session.add_cfd s c with
        | Ok _ -> ok := covers_match s
        | Error _ -> ok := false)
      | 1 -> (
        (* remove a random current axiom *)
        match Session.sigma s with
        | [] -> ()
        | cur -> (
          let c = Workload.Rng.pick rng cur in
          match Session.remove_cfd s c with
          | Ok _ -> ok := covers_match s
          | Error _ -> ok := false))
      | 2 -> ok := covers_match s
      | _ ->
        let phi = Workload.Rng.pick rng probes in
        ok := verdict_matches phi;
        if not !ok then
          Fmt.epr "serve walk seed %d: verdict diverged at step %d@." seed
            step
    end
  done;
  (* final: epoch counts every applied delta; stats are consistent *)
  let st = Session.stats s in
  !ok
  && Session.epoch s = st.Session.patches + st.Session.fallbacks
  && covers_match s

let seeds = 45
let gen_seed = Gen.int_range 0 1_000_000

let prop_walk =
  QCheck2.Test.make ~name:"delta walk = fresh batch (byte-identical covers)"
    ~count:seeds gen_seed walk_matches_batch

(* ------------------------------------------------------------------ *)
(* Concurrency: N domains hammering one session *)

let test_concurrent_hammer () =
  let open Fixtures in
  let memo = P.Memo.create () in
  let s =
    ok_exn (Session.create ~memo ~name:"h" ~view:q1 ~sigma:[ f1; f2 ] ())
  in
  (* phi4's verdict flips with cfd1's presence — epoch-dependent. *)
  let results =
    Parallel.Pool.with_pool ~size:4 (fun pool ->
        Parallel.Pool.map ~pool
          (fun i ->
            match i mod 8 with
            | 0 -> (
              match Session.add_cfd s cfd1 with
              | Ok d -> `Delta d.Session.plan
              | Error e -> `Err e)
            | 1 -> (
              match Session.remove_cfd s cfd1 with
              | Ok d -> `Delta d.Session.plan
              | Error e -> `Err e)
            | 2 -> (
              (* Tier A traffic on the non-atom relation *)
              match Session.add_cfd s (C.fd "R2" [ "zip"; "phn" ] "street") with
              | Ok d -> `Delta d.Session.plan
              | Error e -> `Err e)
            | _ -> (
              match Session.propagates s phi4 with
              | Ok (v, ep) -> `Verdict (v, ep)
              | Error e -> `Err e))
          (List.init 64 Fun.id))
  in
  List.iter
    (function `Err e -> Alcotest.failf "hammer op failed: %s" e | _ -> ())
    results;
  (* serializability: one verdict per epoch — a torn cover/compiled pair
     would answer the same epoch both ways *)
  let per_epoch = Hashtbl.create 16 in
  List.iter
    (function
      | `Verdict (v, ep) -> (
        match Hashtbl.find_opt per_epoch ep with
        | None -> Hashtbl.add per_epoch ep v
        | Some v' ->
          check_bool
            (Printf.sprintf "epoch %d answered consistently" ep)
            v' v)
      | _ -> ())
    results;
  let st = Session.stats s in
  let deltas =
    List.length (List.filter (function `Delta _ -> true | _ -> false) results)
  in
  check_bool "fallbacks bounded by deltas" true (st.Session.fallbacks <= deltas);
  check_bool "epoch = patches + fallbacks" true
    (Session.epoch s = st.Session.patches + st.Session.fallbacks);
  check_bool "final cover matches fresh batch" true (covers_match s)

(* ------------------------------------------------------------------ *)
(* Replicated sessions: concurrent readers across replica slots during
   epoch swaps.  Each reader domain runs a long sequential stream of
   propagates against a 4-replica session while the main domain applies
   deltas (recompute swaps and Tier A patch swaps).  Invariants:

   - per reader, observed epochs are monotonically non-decreasing — a
     read from epoch e answered after a read from e+1 on the same
     connection would mean a torn/stale snapshot was served;
   - across all readers, one verdict per epoch (the hammer test's
     serializability check, here against genuinely concurrent slots);
   - the replica slot array has the requested width and was exercised;
   - the final resident cover is byte-identical to a fresh batch run. *)

let test_replicated_swap_torture () =
  let open Fixtures in
  let memo = P.Memo.create () in
  let s =
    ok_exn
      (Session.create ~replicas:4 ~memo ~name:"r" ~view:q1
         ~sigma:[ f1; f2 ] ())
  in
  check_int "replica slots" 4 (Session.replicas s);
  let reader () =
    let rec go acc last n =
      if n = 0 then List.rev acc
      else
        match Session.propagates s phi4 with
        | Ok (v, ep) ->
          if ep < last then
            Alcotest.failf "reader epoch went backwards: %d after %d" ep last;
          go ((ep, v) :: acc) ep (n - 1)
        | Error e -> Alcotest.failf "reader failed: %s" e
    in
    go [] (-1) 400
  in
  let readers = List.init 3 (fun _ -> Stdlib.Domain.spawn reader) in
  (* Writer (this domain): interleave recompute swaps (cfd1 flips phi4's
     verdict) with Tier A patch swaps on the off-view relation. *)
  let off = C.fd "R2" [ "zip" ] "street" in
  for _ = 1 to 8 do
    ignore (ok_exn (Session.add_cfd s cfd1));
    ignore (ok_exn (Session.add_cfd s off));
    ignore (ok_exn (Session.remove_cfd s cfd1));
    ignore (ok_exn (Session.remove_cfd s off))
  done;
  let streams = List.map Stdlib.Domain.join readers in
  let per_epoch = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (ep, v) ->
         match Hashtbl.find_opt per_epoch ep with
         | None -> Hashtbl.add per_epoch ep v
         | Some v' ->
           check_bool
             (Printf.sprintf "epoch %d answered consistently" ep)
             v' v))
    streams;
  let reads = Session.replica_reads s in
  check_int "replica read counters" 4 (Array.length reads);
  check_bool "slots were exercised" true
    (Array.fold_left ( + ) 0 reads > 0);
  let st = Session.stats s in
  check_int "32 swaps applied" 32 st.Session.epoch;
  check_bool "final cover matches fresh batch" true (covers_match s)

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Obs.snapshot ()).Obs.counters)

let with_obs f =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) f

(* A recomputed add followed by the remove of the same CFD returns Σ to a
   value seen before.  Both deltas run the pipeline, and the remove lands
   on the cover the session started from, byte for byte, which is also
   what a fresh run computes. *)
let test_round_trip_recomputes () =
  let open Fixtures in
  with_obs @@ fun () ->
  let s =
    ok_exn
      (Session.create ~memo:(P.Memo.create ()) ~name:"rt" ~view:q1
         ~sigma:[ f1; f2 ] ())
  in
  let start = (Session.cover s).P.Propcover.cover in
  let computed = counter "propcover.covers_computed" in
  let d = ok_exn (Session.add_cfd s cfd1) in
  check_bool "add recomputed" true (d.Session.plan = Session.Recomputed);
  check_int "add computes one cover" (computed + 1)
    (counter "propcover.covers_computed");
  let d = ok_exn (Session.remove_cfd s cfd1) in
  check_bool "remove recomputed" true (d.Session.plan = Session.Recomputed);
  check_int "remove computes one cover" (computed + 2)
    (counter "propcover.covers_computed");
  check_bool "back to the starting cover" true
    (List.equal
       (fun a b -> C.compare a b = 0)
       start (Session.cover s).P.Propcover.cover);
  check_bool "round-trip cover matches fresh batch" true (covers_match s)

(* Recorders are per run, so an explain neither stalls nor perturbs
   another session's recompute.  One domain applies Tier-A deltas to
   session A (R2 feeds no atom of q1, so they touch no memo) and explains
   phi4 after each, which records A's attribution afresh; the other
   applies recomputed deltas to session B, each on a new Σ.  A's explains
   keep citing cfd1, and B's covers match fresh batch runs. *)
let test_explain_beside_recomputes () =
  let open Fixtures in
  with_obs @@ fun () ->
  let session name sigma =
    ok_exn
      (Session.create ~memo:(P.Memo.create ()) ~name ~view:q1 ~sigma ())
  in
  let a = session "a" [ f1; f2; cfd1 ] in
  let b = session "b" [ f1; f2 ] in
  let r2 = C.fd "R2" [ "zip" ] "street" in
  let adds =
    [
      cfd1;
      C.fd "R1" [ "name" ] "city";
      C.fd "R1" [ "phn" ] "name";
      C.fd "R1" [ "street" ] "zip";
      C.fd "R1" [ "city"; "name" ] "phn";
    ]
  in
  let in_domain f =
    Stdlib.Domain.spawn (fun () ->
        let r = f () in
        Obs.flush_domain ();
        r)
  in
  let explainer =
    in_domain (fun () ->
        List.for_all
          (fun i ->
            let delta = if i mod 2 = 0 then Session.add_cfd else Session.remove_cfd in
            ignore (ok_exn (delta a r2));
            let e = ok_exn (Session.explain a phi4) in
            e.Session.propagated
            && List.exists
                 (fun (_, srcs) -> List.exists (C.equal (C.canonical cfd1)) srcs)
                 e.Session.sources)
          (List.init 6 Fun.id))
  in
  let recomputer =
    in_domain (fun () ->
        List.for_all
          (fun c ->
            let d = ok_exn (Session.add_cfd b c) in
            d.Session.plan = Session.Recomputed && covers_match b)
          adds)
  in
  check_bool "A's explains cite cfd1" true (Stdlib.Domain.join explainer);
  check_bool "B's recomputed covers match fresh batch runs" true
    (Stdlib.Domain.join recomputer)

(* A recompute reruns line 1 through the memo, so on a view over two
   relations a delta on one of them finds the other's slice filed: every
   recompute below hits at least once, and its cover matches a fresh
   batch run. *)
let test_recompute_reuses_slices () =
  let doc =
    "schema R1(A: string, B: string, C: string); schema R2(D: string, E: \
     string, F: string); cfd R1([A] -> [B]); cfd R1([B] -> [C]); cfd \
     R2([D] -> [E]); cfd R2([E, F] -> [D='1']); view V = from [R1(A, B, C), \
     R2(D, E, F)] where [C = D] project [A, B, E, F];"
  in
  let d =
    match Syntax.Parser.parse_document doc with
    | Ok d -> d
    | Error m -> Alcotest.failf "doc: %s" m
  in
  let view =
    match d.Syntax.Parser.views with
    | [ v ] -> v
    | _ -> Alcotest.fail "expected one view"
  in
  with_obs @@ fun () ->
  let s =
    ok_exn
      (Session.create ~memo:(P.Memo.create ()) ~name:"two" ~view
         ~sigma:d.Syntax.Parser.cfds ())
  in
  List.iter
    (fun (delta, c) ->
      let hits = counter "memo.hits" in
      let r = ok_exn (delta s c) in
      check_bool
        (Format.asprintf "%a recomputed" C.pp c)
        true
        (r.Session.plan = Session.Recomputed);
      check_bool
        (Format.asprintf "%a hits the other relation's slice" C.pp c)
        true
        (counter "memo.hits" > hits);
      check_bool
        (Format.asprintf "%a matches fresh batch" C.pp c)
        true (covers_match s))
    [
      (Session.add_cfd, C.fd "R1" [ "C" ] "A");
      (Session.add_cfd, C.fd "R2" [ "F" ] "E");
      (Session.remove_cfd, C.fd "R1" [ "B" ] "C");
      (Session.remove_cfd, C.fd "R2" [ "D" ] "E");
    ]

let suite =
  [
    ("json roundtrip", `Quick, test_json_roundtrip);
    ("protocol errors survive", `Quick, test_protocol_errors);
    ("session lifecycle", `Quick, test_lifecycle);
    ("bad CFD text is an error response", `Quick, test_bad_cfd_text);
    ("tier A add keeps the sigma op byte-identical", `Quick, test_tier_a_sigma);
    ("batch preserves order", `Quick, test_batch_order);
    ("delta tiers on the running example", `Quick, test_delta_tiers);
    ("cover invariant under sigma order", `Quick, test_sigma_order_invariant);
    ("concurrent hammer", `Quick, test_concurrent_hammer);
    ("replicated swap torture", `Quick, test_replicated_swap_torture);
    ( "a round trip recomputes back to the same cover",
      `Quick,
      test_round_trip_recomputes );
    ("explain beside recomputes", `Quick, test_explain_beside_recomputes);
    ("recomputes reuse the other relations' slices", `Quick,
      test_recompute_reuses_slices);
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_walk ]
