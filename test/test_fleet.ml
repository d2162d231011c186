(* Propagation.Fleet: the multi-view driver — per-view covers byte-identical
   to independent Propcover runs, memo reuse across isomorphic views,
   deterministic under the pool, verdict sharing. *)

open Relational
open Fixtures
module C = Cfds.Cfd
module Fleet = Propagation.Fleet
module Memo = Propagation.Memo
module Provenance = Propagation.Provenance
module Pool = Parallel.Pool

let cfds = Alcotest.(list cfd_testable)

let workload seed ~n ~overlap =
  let rng = Workload.Rng.make seed in
  let schema =
    Workload.Schema_gen.generate rng ~relations:4 ~min_arity:4 ~max_arity:6
  in
  let sigma =
    Workload.Cfd_gen.generate rng ~schema ~count:40 ~max_lhs:3 ~var_pct:50
  in
  let views =
    Workload.Fleet_gen.generate ~seed ~schema ~n ~overlap ~y:6 ~f:3 ~ec:2
  in
  (views, sigma)

let check_matches_independent ?options views sigma =
  let fr =
    match options with
    | Some options -> Fleet.run ~options views sigma
    | None -> Fleet.run views sigma
  in
  List.iter2
    (fun (v : Spc.t) (r : Fleet.view_result) ->
      let direct = Propcover.cover v sigma in
      Alcotest.check cfds ("cover " ^ v.Spc.name) direct.Propcover.cover
        r.Fleet.cover;
      check_bool "complete agrees" direct.Propcover.complete r.Fleet.complete;
      check_bool "emptiness agrees" direct.Propcover.always_empty
        r.Fleet.always_empty)
    views fr.Fleet.results;
  fr

let test_fleet_matches_independent () =
  List.iter
    (fun seed ->
      let views, sigma = workload seed ~n:8 ~overlap:0.5 in
      let fr = check_matches_independent views sigma in
      check_bool "memo reused across duplicates" true
        (List.exists (fun r -> r.Fleet.memo_hit) fr.Fleet.results);
      check_bool "fewer classes than views" true (fr.Fleet.classes < 8);
      check_bool "memo populated" true (Memo.entries fr.Fleet.memo > 0))
    [ 11; 12; 13 ]

let test_single_view_no_regression () =
  let views, sigma = workload 21 ~n:1 ~overlap:0.9 in
  let fr = check_matches_independent views sigma in
  check_int "one class" 1 fr.Fleet.classes;
  check_bool "no hit possible" true
    (List.for_all (fun r -> not r.Fleet.memo_hit) fr.Fleet.results)

let test_deterministic_over_pool () =
  let views, sigma = workload 31 ~n:12 ~overlap:0.5 in
  Pool.with_pool ~size:4 (fun pool ->
      let options = { Fleet.default_options with Fleet.pool = Some pool } in
      let baseline = Fleet.run ~options views sigma in
      for run = 2 to 10 do
        let fr = Fleet.run ~options views sigma in
        List.iter2
          (fun (a : Fleet.view_result) (b : Fleet.view_result) ->
            Alcotest.check cfds
              (Printf.sprintf "run %d, view %s" run a.Fleet.view.Spc.name)
              a.Fleet.cover b.Fleet.cover)
          baseline.Fleet.results fr.Fleet.results
      done;
      (* And the pooled covers equal the sequential independent ones. *)
      ignore (check_matches_independent ~options views sigma))

let test_shared_memo_across_runs () =
  let views, sigma = workload 41 ~n:4 ~overlap:0.0 in
  let memo = Memo.create () in
  let options = { Fleet.default_options with Fleet.memo = Some memo } in
  let _first = Fleet.run ~options views sigma in
  let second = Fleet.run ~options views sigma in
  check_bool "second run all hits" true
    (List.for_all (fun r -> r.Fleet.memo_hit) second.Fleet.results);
  ignore (check_matches_independent ~options views sigma)

let test_always_empty_view () =
  (* A selection that ComputeEQ refutes: x = y, x = '1', y = '2'. *)
  let db = Schema.db [ ab_schema () ] in
  let mk name a b =
    Spc.make_exn ~source:db ~name
      ~selection:
        [ Spc.Sel_eq (a, b); Spc.Sel_const (a, str "1"); Spc.Sel_const (b, str "2") ]
      ~atoms:[ Spc.atom db "R" [ a; b ] ]
      ~projection:[ a; b ] ()
  in
  let views = [ mk "V1" "a1" "b1"; mk "V2" "a2" "b2" ] in
  let sigma = [ C.fd "R" [ "A" ] "B" ] in
  let fr = check_matches_independent views sigma in
  check_bool "flagged empty" true
    (List.for_all (fun r -> r.Fleet.always_empty) fr.Fleet.results);
  (* Everything is propagated on an empty view. *)
  (match Fleet.propagates fr ~view:"V2" (C.fd "V2" [ "b2" ] "a2") with
   | `Propagated -> ()
   | _ -> Alcotest.fail "empty view must propagate everything")

let test_propagates_shared_verdicts () =
  let sigma = [ f1; f2; cfd1 ] in
  let rename_q1 name prefix =
    let names =
      List.map (fun a -> prefix ^ a) [ "AC"; "phn"; "name"; "street"; "city"; "zip" ]
    in
    Spc.make_exn ~source:sources ~name
      ~constants:[ (Attribute.make (prefix ^ "CC") Domain.string, str "44") ]
      ~atoms:[ Spc.atom sources "R1" names ]
      ~projection:((prefix ^ "CC") :: names)
      ()
  in
  let v1 = rename_q1 "V1" "u_" and v2 = rename_q1 "V2" "w_" in
  let fr = Fleet.run [ v1; v2 ] sigma in
  check_int "isomorphic views, one class" 1 fr.Fleet.classes;
  let ask view prefix lhs rhs =
    Fleet.propagates fr ~view
      (C.fd view (List.map (fun a -> prefix ^ a) lhs) (prefix ^ rhs))
  in
  let before = Memo.entries fr.Fleet.memo in
  (match ask "V1" "u_" [ "zip" ] "street" with
   | `Propagated -> ()
   | _ -> Alcotest.fail "zip -> street must propagate");
  let after_first = Memo.entries fr.Fleet.memo in
  check_int "verdict cached" (before + 1) after_first;
  (* The renamed twin asks the same canonical question: no new entry. *)
  (match ask "V2" "w_" [ "zip" ] "street" with
   | `Propagated -> ()
   | _ -> Alcotest.fail "verdict must transfer to the twin");
  check_int "twin shares the verdict" after_first (Memo.entries fr.Fleet.memo);
  (match ask "V1" "u_" [ "phn" ] "street" with
   | `Not_propagated -> ()
   | _ -> Alcotest.fail "phn -> street must not propagate");
  (match Fleet.propagates fr ~view:"nope" (C.fd "nope" [ "a" ] "b") with
   | `Unknown_view -> ()
   | _ -> Alcotest.fail "unknown view");
  (* Cross-check every verdict against the direct decision procedure. *)
  List.iter
    (fun (lhs, rhs) ->
      let direct =
        Implication.implies (Spc.view_schema v1)
          (Propcover.cover v1 sigma).Propcover.cover
          (C.fd "V1" (List.map (fun a -> "u_" ^ a) lhs) ("u_" ^ rhs))
      in
      let fleet =
        match ask "V1" "u_" lhs rhs with `Propagated -> true | _ -> false
      in
      check_bool (String.concat "," lhs ^ " -> " ^ rhs) direct fleet)
    [ ([ "zip" ], "street"); ([ "AC" ], "city"); ([ "phn" ], "name") ]

(* The one bypass rule: a recording cover ignores the memo it is given —
   a run that used it would file its line-1 slices there — and returns
   the same cover as a run without the memo. *)
let test_recording_bypasses_memo () =
  let views, sigma = workload 51 ~n:4 ~overlap:0.5 in
  List.iter
    (fun v ->
      let memo = Memo.create () in
      let options =
        { Propcover.default_options with Propcover.memo = Some (memo, "ns") }
      in
      let plain = (Propcover.cover v sigma).Propcover.cover in
      let provenance = Provenance.create () in
      let r = Propcover.cover ~options ~provenance v sigma in
      Alcotest.check cfds ("same cover: " ^ v.Spc.name) plain r.Propcover.cover;
      check_int ("memo untouched: " ^ v.Spc.name) 0 (Memo.entries memo);
      check_bool ("recorded: " ^ v.Spc.name) true (Provenance.size provenance > 0);
      (* Without the recorder the same options do file slices. *)
      ignore (Propcover.cover ~options v sigma);
      check_bool ("a plain run files: " ^ v.Spc.name) true (Memo.entries memo > 0))
    views

let test_mixed_schema_rejected () =
  let other = Schema.db [ ab_schema () ] in
  let v_other =
    Spc.make_exn ~source:other ~name:"W"
      ~atoms:[ Spc.atom other "R" [ "a"; "b" ] ]
      ~projection:[ "a"; "b" ] ()
  in
  Alcotest.check_raises "mixed schemas"
    (Invalid_argument "Fleet.run: views must share one source schema")
    (fun () -> ignore (Fleet.run [ q1; v_other ] [ f1 ]))

let suite =
  [
    ("fleet matches independent covers", `Slow, test_fleet_matches_independent);
    ("single view: no regression", `Quick, test_single_view_no_regression);
    ("deterministic across 10 pooled runs", `Slow, test_deterministic_over_pool);
    ("memo shared across runs", `Quick, test_shared_memo_across_runs);
    ("always-empty views", `Quick, test_always_empty_view);
    ("propagates shares verdicts", `Quick, test_propagates_shared_verdicts);
    ("recording cover bypasses the memo", `Quick, test_recording_bypasses_memo);
    ("mixed source schemas rejected", `Quick, test_mixed_schema_rejected);
  ]
