(* ComputeEQ: attribute equivalence classes and keys (Section 4.2), on
   the interned path [Propcover.cover] runs.  [run] interns the body
   attributes and the CFDs; the assertions map ids back to names. *)

open Relational
open Fixtures
module C = Cfds.Cfd
module P = Cfds.Pattern
module Ir = Propagation.Ir

let run ?(sigma = []) selection =
  let ctx = Ir.create_ctx () in
  let body = List.map (Ir.intern ctx) [ "A"; "B"; "C"; "D" ] in
  let sigma = List.map (Ir.of_ast ctx) sigma in
  (ctx, Compute_eq.compute ctx ~body ~selection ~sigma)

let is_bottom (_, r) =
  match r with Compute_eq.Bottom -> true | Compute_eq.Classes _ -> false

let classes_of = function
  | ctx, Compute_eq.Classes cs -> (ctx, cs)
  | _, Compute_eq.Bottom -> Alcotest.fail "unexpected bottom"

let find_class (ctx, cs) a =
  match Compute_eq.class_of cs (Ir.intern ctx a) with
  | Some c -> c
  | None -> Alcotest.failf "no class for %s" a

let names ctx ids = List.map (Ir.name ctx) ids

let test_selection_equalities () =
  let ((ctx, cs) as r) =
    classes_of (run [ Spc.Sel_eq ("A", "B"); Spc.Sel_eq ("B", "C") ])
  in
  Alcotest.(check (list string))
    "A,B,C merged" [ "A"; "B"; "C" ]
    (names ctx (find_class r "A").Compute_eq.attrs);
  check_int "two classes" 2 (List.length cs)

let test_selection_keys () =
  let r =
    classes_of (run [ Spc.Sel_eq ("A", "B"); Spc.Sel_const ("B", str "k") ])
  in
  check_bool "keyed" true ((find_class r "A").Compute_eq.key = Some (str "k"))

let test_conflicting_keys_bottom () =
  check_bool "bottom" true
    (is_bottom
       (run
          [
            Spc.Sel_eq ("A", "B");
            Spc.Sel_const ("A", str "x");
            Spc.Sel_const ("B", str "y");
          ]))

let test_cfd_closure_keys () =
  (* A='a' plus CFD ([A='a'] → B='b') keys B's class. *)
  let sigma = [ C.make "V" [ ("A", const "a") ] ("B", const "b") ] in
  let r = classes_of (run ~sigma [ Spc.Sel_const ("A", str "a") ]) in
  check_bool "B keyed via CFD" true
    ((find_class r "B").Compute_eq.key = Some (str "b"))

let test_cfd_closure_chains () =
  (* Keys propagate transitively through CFDs, whatever Σ's order: in the
     reversed order the second CFD fires only on a second pass. *)
  let sigma =
    [
      C.make "V" [ ("A", const "a") ] ("B", const "b");
      C.make "V" [ ("B", const "b") ] ("C", const "c");
    ]
  in
  List.iter
    (fun sigma ->
      let r = classes_of (run ~sigma [ Spc.Sel_const ("A", str "a") ]) in
      check_bool "C keyed transitively" true
        ((find_class r "C").Compute_eq.key = Some (str "c")))
    [ sigma; List.rev sigma ]

let test_cfd_key_mismatch_no_fire () =
  (* The CFD needs A='a'; the selection pins A='z': no firing, no bottom. *)
  let sigma = [ C.make "V" [ ("A", const "a") ] ("B", const "b") ] in
  let r = classes_of (run ~sigma [ Spc.Sel_const ("A", str "z") ]) in
  check_bool "B not keyed" true ((find_class r "B").Compute_eq.key = None)

let test_cfd_conflict_bottom () =
  (* Example 3.1 in EQ terms: Σ forces B='b1', selection forces B='b2'. *)
  let sigma = [ C.make "V" [ ("A", P.Wild) ] ("B", const "b1") ] in
  (* The CFD's LHS is wildcard but A has no key, so it does not fire; a
     Σ-level emptiness needs the chase (Emptiness), not ComputeEQ.  With an
     empty LHS, however, the conflict is visible: *)
  check_bool "wild-lhs does not fire" false
    (is_bottom (run ~sigma [ Spc.Sel_const ("B", str "b2") ]));
  let sigma' = [ C.make "V" [] ("B", const "b1") ] in
  check_bool "empty-lhs fires to bottom" true
    (is_bottom (run ~sigma:sigma' [ Spc.Sel_const ("B", str "b2") ]))

let test_representatives_prefer_y () =
  let ctx, cs = classes_of (run [ Spc.Sel_eq ("A", "B") ]) in
  let in_y id = List.mem (Ir.name ctx id) [ "B"; "C" ] in
  let reps =
    List.map
      (fun (a, r) -> (Ir.name ctx a, Ir.name ctx r))
      (Compute_eq.representatives cs ~prefer:in_y)
  in
  check_bool "A maps to B" true (List.assoc "A" reps = "B");
  check_bool "B maps to B" true (List.assoc "B" reps = "B")

(* EQ2CFD's output as name-level CFDs. *)
let eq2cfd (ctx, cs) y =
  let in_y id = List.mem (Ir.name ctx id) y in
  List.map (Ir.to_ast ctx) (Compute_eq.to_cfds ctx ~view:"V" ~y:in_y cs)

let test_eq2cfd () =
  let r =
    classes_of
      (run
         [
           Spc.Sel_eq ("A", "B");
           Spc.Sel_eq ("C", "D");
           Spc.Sel_const ("C", str "k");
         ])
  in
  let cfds = eq2cfd r [ "A"; "B"; "C"; "D" ] in
  check_bool "A=B as attr-eq CFD" true
    (List.exists (fun c -> C.equal c (C.attr_eq "V" "A" "B")) cfds);
  check_bool "C keyed binding" true
    (List.exists (fun c -> C.equal c (C.const_binding "V" "C" (str "k"))) cfds);
  check_bool "D keyed binding" true
    (List.exists (fun c -> C.equal c (C.const_binding "V" "D" (str "k"))) cfds)

let test_eq2cfd_restricts_to_y () =
  let cfds = eq2cfd (classes_of (run [ Spc.Sel_eq ("A", "B") ])) [ "A"; "C" ] in
  check_bool "no CFD mentions B" true
    (List.for_all (fun c -> not (List.mem "B" (C.attrs c))) cfds)

let suite =
  [
    ("selection equalities", `Quick, test_selection_equalities);
    ("selection keys", `Quick, test_selection_keys);
    ("conflicting keys give bottom", `Quick, test_conflicting_keys_bottom);
    ("CFD closure keys classes", `Quick, test_cfd_closure_keys);
    ("CFD closure chains", `Quick, test_cfd_closure_chains);
    ("non-matching keys do not fire", `Quick, test_cfd_key_mismatch_no_fire);
    ("CFD conflicts give bottom", `Quick, test_cfd_conflict_bottom);
    ("representatives prefer Y", `Quick, test_representatives_prefer_y);
    ("EQ2CFD output", `Quick, test_eq2cfd);
    ("EQ2CFD restricted to Y", `Quick, test_eq2cfd_restricts_to_y);
  ]
