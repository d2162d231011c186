(* PropCFD_SPC (Fig. 2): minimal propagation covers through SPC views. *)

open Relational
open Fixtures
module C = Cfds.Cfd
module P = Cfds.Pattern

(* --- Example 4.3 ------------------------------------------------------ *)

(* R1(B'1, B2), R2(A1, A2, A), R3(A', A'2, B1, B);
   V = π_Y σ_F (R1 × R2 × R3), Y = {B1, B2, B'1, A1, A2, B},
   F = (B1 = B'1 ∧ A = A' ∧ A2 = A'2);
   Σ = { ψ1 = R2([A1,A2] → A, (_, c ‖ a)),
         ψ2 = R3([A',A'2,B1] → B, (_, c, b ‖ _)) }. *)
let example_4_3 () =
  let sd = Domain.string in
  let r1 =
    Schema.relation "R1" [ Attribute.make "B1p" sd; Attribute.make "B2" sd ]
  in
  let r2 =
    Schema.relation "R2"
      [ Attribute.make "A1" sd; Attribute.make "A2" sd; Attribute.make "A" sd ]
  in
  let r3 =
    Schema.relation "R3"
      [
        Attribute.make "Ap" sd;
        Attribute.make "A2p" sd;
        Attribute.make "B1" sd;
        Attribute.make "B" sd;
      ]
  in
  let db = Schema.db [ r1; r2; r3 ] in
  let view =
    Spc.make_exn ~source:db ~name:"V"
      ~selection:
        [ Spc.Sel_eq ("B1", "B1p"); Spc.Sel_eq ("A", "Ap"); Spc.Sel_eq ("A2", "A2p") ]
      ~atoms:
        [
          Spc.atom db "R1" [ "B1p"; "B2" ];
          Spc.atom db "R2" [ "A1"; "A2"; "A" ];
          Spc.atom db "R3" [ "Ap"; "A2p"; "B1"; "B" ];
        ]
      ~projection:[ "B1"; "B2"; "B1p"; "A1"; "A2"; "B" ]
      ()
  in
  let psi1 =
    C.make "R2" [ ("A1", P.Wild); ("A2", const "c") ] ("A", const "a")
  in
  let psi2 =
    C.make "R3"
      [ ("Ap", P.Wild); ("A2p", const "c"); ("B1", const "b") ]
      ("B", P.Wild)
  in
  (view, [ psi1; psi2 ])

let test_example_4_3 () =
  let view, sigma = example_4_3 () in
  let r = Propcover.cover view sigma in
  check_bool "complete" true r.Propcover.complete;
  check_bool "nonempty view" false r.Propcover.always_empty;
  (* The paper's listed answer. *)
  let phi_paper =
    C.make "V"
      [ ("A1", P.Wild); ("A2", const "c"); ("B1", const "b") ]
      ("B", P.Wild)
  in
  let phi' = C.attr_eq "V" "B1" "B1p" in
  (* Under the pair-(t,t) semantics of Definition 2.1, ψ1's wildcard A1 is
     redundant (any tuple with A2='c' has A='a'), so the minimal cover is
     the strictly stronger φ without A1 — which implies the paper's φ. *)
  let phi_strong =
    C.make "V" [ ("A2", const "c"); ("B1", const "b") ] ("B", P.Wild)
  in
  let schema = Spc.view_schema view in
  check_bool "paper's phi implied by cover" true
    (Implication.implies schema r.Propcover.cover phi_paper);
  check_bool "phi' implied by cover" true
    (Implication.implies schema r.Propcover.cover phi');
  check_bool "cover equivalent to {phi_strong, phi'}" true
    (Implication.equivalent schema r.Propcover.cover [ phi_strong; phi' ]);
  (* phi_strong really is propagated. *)
  match Propagate.decide view ~sigma phi_strong with
  | Propagate.Propagated -> ()
  | _ -> Alcotest.fail "phi_strong must be propagated"

(* --- Example 4.1: the exponential family ------------------------------ *)

let example_4_1 n =
  (* Attributes Ai, Bi, Ci, D; FDs Ai → Ci, Bi → Ci, C1…Cn → D; view
     projects out the Ci. *)
  let attrs =
    List.concat
      (List.init n (fun i ->
           let i = i + 1 in
           [
             Printf.sprintf "A%d" i; Printf.sprintf "B%d" i; Printf.sprintf "C%d" i;
           ]))
    @ [ "D" ]
  in
  let schema =
    Schema.relation "R" (List.map (fun a -> Attribute.make a Domain.int) attrs)
  in
  let db = Schema.db [ schema ] in
  let cs = List.init n (fun i -> Printf.sprintf "C%d" (i + 1)) in
  let sigma =
    List.concat
      (List.init n (fun i ->
           let i = i + 1 in
           [
             C.fd "R" [ Printf.sprintf "A%d" i ] (Printf.sprintf "C%d" i);
             C.fd "R" [ Printf.sprintf "B%d" i ] (Printf.sprintf "C%d" i);
           ]))
    @ [ C.fd "R" cs "D" ]
  in
  let y = List.filter (fun a -> not (List.mem a cs)) attrs in
  let view =
    Spc.make_exn ~source:db ~name:"V"
      ~atoms:[ Spc.atom db "R" attrs ]
      ~projection:y ()
  in
  (view, sigma)

let test_example_4_1_blowup () =
  (* For n = 2 the cover must contain all 4 choices η1,η2 → D. *)
  let view, sigma = example_4_1 2 in
  let r = Propcover.cover view sigma in
  let schema = Spc.view_schema view in
  List.iter
    (fun (x1, x2) ->
      let phi = C.fd "V" [ x1; x2 ] "D" in
      check_bool (Printf.sprintf "%s,%s -> D" x1 x2) true
        (Implication.implies schema r.Propcover.cover phi))
    [ ("A1", "A2"); ("A1", "B2"); ("B1", "A2"); ("B1", "B2") ];
  (* The 2^n choice CFDs are pairwise non-redundant, so the cover has at
     least 4 CFDs. *)
  check_bool "at least 4 CFDs" true (List.length r.Propcover.cover >= 4)

let test_example_4_1_heuristic () =
  let view, sigma = example_4_1 4 in
  let opts =
    { Propcover.default_options with Propcover.max_intermediate = Some 3 }
  in
  let r = Propcover.cover ~options:opts view sigma in
  check_bool "truncated" false r.Propcover.complete;
  (* Sound subset: everything returned is propagated. *)
  List.iter
    (fun c ->
      match Propagate.decide view ~sigma c with
      | Propagate.Propagated -> ()
      | _ -> Alcotest.failf "unsound heuristic CFD %a" C.pp c)
    r.Propcover.cover

(* --- Lemmas 4.2 / 4.5 -------------------------------------------------- *)

let sel_db =
  Schema.db
    [
      Schema.relation "S"
        [
          Attribute.make "A" Domain.string;
          Attribute.make "B" Domain.string;
          Attribute.make "C" Domain.string;
        ];
    ]

let test_lemma_4_2 () =
  (* Selection constants and equalities appear in the cover. *)
  let view =
    Spc.make_exn ~source:sel_db ~name:"V"
      ~selection:[ Spc.Sel_const ("A", str "a"); Spc.Sel_eq ("B", "C") ]
      ~atoms:[ Spc.atom sel_db "S" [ "A"; "B"; "C" ] ]
      ~projection:[ "A"; "B"; "C" ] ()
  in
  let r = Propcover.cover view [] in
  let schema = Spc.view_schema view in
  check_bool "A='a' in cover" true
    (Implication.implies schema r.Propcover.cover (C.const_binding "V" "A" (str "a")));
  check_bool "B=C in cover" true
    (Implication.implies schema r.Propcover.cover (C.attr_eq "V" "B" "C"))

let test_lemma_4_5_empty_view () =
  (* Σ forces B='b1'; the view selects B='b2': always empty; the cover is
     the conflicting pair, implying everything. *)
  let view =
    Spc.make_exn ~source:sel_db ~name:"V"
      ~selection:[ Spc.Sel_const ("B", str "b2") ]
      ~atoms:[ Spc.atom sel_db "S" [ "A"; "B"; "C" ] ]
      ~projection:[ "A"; "B"; "C" ] ()
  in
  let sigma = [ C.make "S" [] ("B", const "b1") ] in
  let r = Propcover.cover view sigma in
  check_bool "flagged empty" true r.Propcover.always_empty;
  let schema = Spc.view_schema view in
  check_bool "everything implied" true
    (Implication.implies schema r.Propcover.cover (C.fd "V" [ "C" ] "A"))

let test_rc_constants_in_cover () =
  (* Fig. 2's constant relation: CC='44' is in Q1's cover. *)
  let r = Propcover.cover q1 [ f1; f2 ] in
  let schema = Spc.view_schema q1 in
  check_bool "CC='44'" true
    (Implication.implies schema r.Propcover.cover
       (C.const_binding "V" "CC" (str "44")));
  (* And the source FDs are there (they keep all their attributes). *)
  check_bool "zip->street" true
    (Implication.implies schema r.Propcover.cover (C.fd "V" [ "zip" ] "street"))

(* --- Cross-validation: cover-based decision == chase decision ---------- *)

let test_cover_agrees_with_chase () =
  let rng = Workload.Rng.make 2024 in
  let schema =
    Workload.Schema_gen.generate rng ~relations:3 ~min_arity:4 ~max_arity:5
  in
  for round = 1 to 6 do
    let sigma =
      Workload.Cfd_gen.generate rng ~schema ~count:5 ~max_lhs:3 ~var_pct:60
    in
    let view = Workload.View_gen.generate rng ~schema ~y:5 ~f:2 ~ec:2 in
    let r = Propcover.cover view sigma in
    check_bool "complete" true r.Propcover.complete;
    let view_schema = Spc.view_schema view in
    (* Soundness of the cover. *)
    List.iter
      (fun c ->
        match Propagate.decide view ~sigma c with
        | Propagate.Propagated -> ()
        | _ -> Alcotest.failf "round %d: unsound cover CFD %a" round C.pp c)
      r.Propcover.cover;
    (* Agreement on random candidates. *)
    let vdb = Schema.db [ view_schema ] in
    for _ = 1 to 20 do
      match
        Workload.Cfd_gen.generate rng ~schema:vdb ~count:1 ~max_lhs:3 ~var_pct:60
      with
      | [ phi ] ->
        let direct =
          match Propagate.decide view ~sigma phi with
          | Propagate.Propagated -> true
          | _ -> false
        in
        let via_cover = Implication.implies view_schema r.Propcover.cover phi in
        if direct <> via_cover then
          Alcotest.failf "round %d: disagreement on %a (direct=%b cover=%b)"
            round C.pp phi direct via_cover
      | _ -> assert false
    done
  done

(* Data-level check: for a Σ-satisfying random database, V(D) satisfies
   every cover CFD. *)
let test_cover_holds_on_data () =
  let rng = Workload.Rng.make 77 in
  let schema =
    Workload.Schema_gen.generate rng ~relations:2 ~min_arity:3 ~max_arity:4
  in
  for _ = 1 to 5 do
    let sigma =
      Workload.Cfd_gen.generate rng ~schema ~count:4 ~max_lhs:3 ~var_pct:50
    in
    let view = Workload.View_gen.generate rng ~schema ~y:4 ~f:1 ~ec:2 in
    let r = Propcover.cover view sigma in
    let db = Workload.Data_gen.database rng schema ~rows:12 ~value_range:4 in
    let db = Workload.Data_gen.repair_db db sigma in
    (* The repaired database satisfies Σ by construction... *)
    List.iter
      (fun rel ->
        let inst = Database.instance db (Schema.relation_name rel) in
        List.iter
          (fun c ->
            if String.equal c.C.rel (Schema.relation_name rel) then
              check_bool "repaired D satisfies sigma" true (C.satisfies inst c))
          sigma)
      (Schema.relations schema);
    (* ... so its view satisfies the cover. *)
    let out = Spc.eval view db in
    List.iter
      (fun c ->
        if not (C.satisfies out c) then
          Alcotest.failf "cover CFD %a violated on V(D)" C.pp c)
      r.Propcover.cover
  done

(* --- Relevance: CFDs on relations no view atom reads ------------------- *)

(* Lines 5-6 keep only the CFDs of relations some atom reads, and line 1
   minimises each relation on its own, so CFDs on any other relation can
   change neither the cover nor the work line 1 does: appending them
   leaves the printed cover and [mincover.candidates_tested] as they
   were. *)
let unread_relations_are_free seed =
  let rng = Workload.Rng.make seed in
  (* Two atoms over four relations leave at least two relations unread. *)
  let schema =
    Workload.Schema_gen.generate rng ~relations:4 ~min_arity:3 ~max_arity:5
  in
  let count = Workload.Rng.range rng 6 16 in
  let sigma =
    Workload.Cfd_gen.generate rng ~schema ~count ~max_lhs:3 ~var_pct:50
  in
  let view = Workload.View_gen.generate rng ~schema ~y:4 ~f:1 ~ec:2 in
  let read = Spc.bases view in
  let unread =
    List.filter
      (fun r -> not (List.mem (Schema.relation_name r) read))
      (Schema.relations schema)
  in
  let extra =
    Workload.Cfd_gen.generate rng ~schema:(Schema.db unread)
      ~count:(Workload.Rng.range rng 3 10) ~max_lhs:3 ~var_pct:50
  in
  let run sigma =
    Obs.reset ();
    let r = Propcover.cover view sigma in
    let tested =
      Option.value ~default:0
        (List.assoc_opt "mincover.candidates_tested"
           (Obs.snapshot ()).Obs.counters)
    in
    ( List.map (Fmt.str "%a" C.pp) r.Propcover.cover,
      r.Propcover.complete,
      r.Propcover.always_empty,
      tested )
  in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () -> run sigma = run (sigma @ extra))

let prop_unread_relations_are_free =
  QCheck2.Test.make ~name:"CFDs on unread relations cost line 1 nothing"
    ~count:30
    (QCheck2.Gen.int_range 0 1_000_000)
    unread_relations_are_free

let suite =
  [
    ("Example 4.3", `Quick, test_example_4_3);
    ("Example 4.1 exponential family", `Quick, test_example_4_1_blowup);
    ("Example 4.1 heuristic bound", `Quick, test_example_4_1_heuristic);
    ("Lemma 4.2 selection constraints", `Quick, test_lemma_4_2);
    ("Lemma 4.5 empty view", `Quick, test_lemma_4_5_empty_view);
    ("Rc constants propagate", `Quick, test_rc_constants_in_cover);
    ("cover agrees with chase decision", `Slow, test_cover_agrees_with_chase);
    ("cover holds on random data", `Slow, test_cover_holds_on_data);
    QCheck_alcotest.to_alcotest prop_unread_relations_are_free;
  ]
