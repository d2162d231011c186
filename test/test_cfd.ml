(* Pattern symbols and CFD satisfaction semantics (Section 2.1). *)

open Relational
open Fixtures
module C = Cfds.Cfd
module P = Cfds.Pattern

let test_match_relation () =
  check_bool "const matches itself" true (P.matches (str "a") (const "a"));
  check_bool "const mismatch" false (P.matches (str "a") (const "b"));
  check_bool "wild matches all" true (P.matches (str "z") P.Wild)

let test_compatible () =
  check_bool "(Portland,ldn) ~ (_,ldn)" true
    (P.compatible (const "Portland") P.Wild && P.compatible (const "ldn") (const "ldn"));
  check_bool "(Portland,ldn) !~ (_,nyc)" false
    (P.compatible (const "ldn") (const "nyc"))

let test_leq_meet () =
  check_bool "a <= _" true (P.leq (const "a") P.Wild);
  check_bool "a <= a" true (P.leq (const "a") (const "a"));
  check_bool "_ </= a" false (P.leq P.Wild (const "a"));
  check_bool "meet(a,_) = a" true (P.meet (const "a") P.Wild = Some (const "a"));
  check_bool "meet(_,_) = _" true (P.meet P.Wild P.Wild = Some P.Wild);
  check_bool "meet(a,b) undefined" true (P.meet (const "a") (const "b") = None)

let test_cfd_validation () =
  (try
     ignore (C.make "R" [ ("A", P.Wild); ("A", P.Wild) ] ("B", P.Wild));
     Alcotest.fail "duplicate lhs accepted"
   with Invalid_argument _ -> ());
  try
    ignore (C.make "R" [ ("A", P.Svar); ("B", P.Wild) ] ("C", P.Svar));
    Alcotest.fail "malformed svar accepted"
  with Invalid_argument _ -> ()

(* The one check every input edge runs: relation name, then every
   attribute, against a relation schema — a source relation or a view. *)
let test_attribute_check () =
  let result = Alcotest.(result unit string) in
  let vschema = Spc.view_schema q1 in
  Alcotest.check result "source CFD" (Ok ()) (C.check r1 f1);
  Alcotest.check result "view CFD" (Ok ()) (C.check vschema phi1);
  Alcotest.check result "unknown source LHS attribute"
    (Error "R1 has no attribute bogus")
    (C.check r1 (C.fd "R1" [ "bogus" ] "city"));
  Alcotest.check result "unknown view LHS attribute"
    (Error "V has no attribute bogus")
    (C.check vschema (C.fd "V" [ "bogus" ] "street"));
  Alcotest.check result "unknown view RHS attribute"
    (Error "V has no attribute bogus")
    (C.check vschema (C.fd "V" [ "AC" ] "bogus"));
  Alcotest.check result "other relation" (Error "CFD is over W, not V")
    (C.check vschema (C.fd "W" [ "AC" ] "city"));
  Alcotest.check_raises "decide runs the check"
    (Invalid_argument "Propagate: V has no attribute bogus") (fun () ->
      ignore
        (Propagate.decide q1 ~sigma:[ f1 ] (C.fd "V" [ "bogus" ] "street")))

let test_normalize_general () =
  let g =
    {
      C.grel = "R";
      C.glhs = [ ("A", P.Wild) ];
      C.grhs = [ ("B", P.Wild); ("C", const "c") ];
    }
  in
  let out = C.normalize g in
  check_int "two normal CFDs" 2 (List.length out)

let test_fd_satisfaction_on_fig1 () =
  check_bool "f1 holds on D1" true (C.satisfies d1 (Cfds.Cfd.fd "R1" [ "zip" ] "street"));
  check_bool "zip->street fails on D2" false
    (C.satisfies d2 (Cfds.Cfd.fd "R2" [ "zip" ] "street"))

let test_cfd_satisfaction_pattern_scope () =
  (* cfd1 = R1([AC='20'] -> city='LDN') holds on D1 but its '10' variant is
     vacuous (no matching tuples). *)
  check_bool "cfd1 on D1" true (C.satisfies d1 cfd1);
  let other =
    C.make "R1" [ ("AC", const "10") ] ("city", const "NYC")
  in
  check_bool "vacuous variant" true (C.satisfies d1 other);
  let wrong =
    C.make "R1" [ ("AC", const "20") ] ("city", const "NYC")
  in
  check_bool "wrong binding fails" false (C.satisfies d1 wrong)

let test_single_tuple_binding () =
  (* A single matching tuple violates a constant RHS by itself. *)
  let r = ab_schema () in
  let inst = Relation.make r [ Tuple.make [ str "k"; str "v" ] ] in
  let c = C.make "R" [ ("A", const "k") ] ("B", const "w") in
  check_bool "binding violated" false (C.satisfies inst c);
  check_int "violation reported as (t,t)" 1 (List.length (C.violations inst c))

let test_attr_eq_satisfaction () =
  let r = ab_schema () in
  let good = Relation.make r [ Tuple.make [ str "v"; str "v" ] ] in
  let bad = Relation.make r [ Tuple.make [ str "v"; str "w" ] ] in
  let c = C.attr_eq "R" "A" "B" in
  check_bool "equal columns" true (C.satisfies good c);
  check_bool "unequal columns" false (C.satisfies bad c)

let test_violations_pairs () =
  let r = abc_schema () in
  let inst =
    Relation.make r
      [
        Tuple.make [ str "x"; str "1"; str "p" ];
        Tuple.make [ str "x"; str "2"; str "q" ];
        Tuple.make [ str "y"; str "3"; str "r" ];
      ]
  in
  let c = C.fd "R" [ "A" ] "B" in
  check_int "one violating pair" 1 (List.length (C.violations inst c));
  check_bool "satisfies fails" false (C.satisfies inst c)

let test_trivial_classification () =
  check_bool "(A -> A, (_ || _)) trivial" true
    (C.is_trivial (C.make "R" [ ("A", P.Wild) ] ("A", P.Wild)));
  check_bool "(A='a' -> A, (a || _)) trivial" true
    (C.is_trivial (C.make "R" [ ("A", const "a") ] ("A", P.Wild)));
  check_bool "(A -> A, (_ || a)) NOT trivial" false
    (C.is_trivial (C.const_binding "R" "A" (str "a")));
  check_bool "(A='a' -> A='b') NOT trivial" false
    (C.is_trivial (C.make "R" [ ("A", const "a") ] ("A", const "b")));
  check_bool "A=A trivial" true (C.is_trivial (C.attr_eq "R" "A" "A"));
  check_bool "A=B not trivial" false (C.is_trivial (C.attr_eq "R" "A" "B"))

let test_strip_redundant_wildcards () =
  let c = C.make "R" [ ("A", const "a"); ("B", P.Wild) ] ("C", const "k") in
  let stripped = C.strip_redundant_wildcards c in
  check_int "wild dropped" 1 (List.length stripped.C.lhs);
  (* Wild RHS untouched. *)
  let fd = C.fd "R" [ "A"; "B" ] "C" in
  check_int "fd untouched" 2 (List.length (C.strip_redundant_wildcards fd).C.lhs)

let test_rename_attrs_meet () =
  (* Renaming that merges two LHS attrs combines their patterns. *)
  let c = C.make "R" [ ("A", const "a"); ("B", P.Wild) ] ("C", P.Wild) in
  (match C.rename_attrs c [ ("B", "A") ] with
   | Some c' ->
     check_int "merged" 1 (List.length c'.C.lhs);
     check_bool "kept constant" true
       (match C.lhs_pattern c' "A" with Some p -> P.equal p (const "a") | None -> false)
   | None -> Alcotest.fail "meet defined");
  let c2 = C.make "R" [ ("A", const "a"); ("B", const "b") ] ("C", P.Wild) in
  check_bool "incompatible meet" true (C.rename_attrs c2 [ ("B", "A") ] = None)

(* --- FD machinery ------------------------------------------------------ *)

let test_fd_closure () =
  let fds =
    [ Cfds.Fd.make "R" [ "A" ] [ "B" ]; Cfds.Fd.make "R" [ "B" ] [ "C" ] ]
  in
  let cl = Cfds.Fd.closure fds [ "A" ] in
  check_bool "closure" true (List.sort compare cl = [ "A"; "B"; "C" ]);
  check_bool "implies" true (Cfds.Fd.implies fds (Cfds.Fd.make "R" [ "A" ] [ "C" ]));
  check_bool "not implied" false (Cfds.Fd.implies fds (Cfds.Fd.make "R" [ "C" ] [ "A" ]))

let test_fd_minimal_cover () =
  let fds =
    [
      Cfds.Fd.make "R" [ "A" ] [ "B"; "C" ];
      Cfds.Fd.make "R" [ "B" ] [ "C" ];
      Cfds.Fd.make "R" [ "A"; "B" ] [ "C" ];
    ]
  in
  let mc = Cfds.Fd.minimal_cover fds in
  check_bool "all implied both ways" true
    (List.for_all (Cfds.Fd.implies fds) mc
    && List.for_all (Cfds.Fd.implies mc) fds);
  (* A -> C is redundant via A -> B -> C, and AB -> C via A -> ... *)
  check_int "two FDs suffice" 2 (List.length mc)

let test_fd_projection_closure_method () =
  let fds =
    [ Cfds.Fd.make "R" [ "A" ] [ "B" ]; Cfds.Fd.make "R" [ "B" ] [ "C" ] ]
  in
  let cover = Cfds.Fd.project_cover_closure fds ~onto:[ "A"; "C" ] in
  check_bool "A->C embedded" true
    (List.exists
       (fun f -> Cfds.Fd.implies [ f ] (Cfds.Fd.make "R" [ "A" ] [ "C" ]))
       cover)

let suite =
  [
    ("match relation", `Quick, test_match_relation);
    ("pattern compatibility", `Quick, test_compatible);
    ("pattern order and meet", `Quick, test_leq_meet);
    ("CFD validation", `Quick, test_cfd_validation);
    ("attribute check", `Quick, test_attribute_check);
    ("general-form normalisation", `Quick, test_normalize_general);
    ("FD satisfaction on Fig.1", `Quick, test_fd_satisfaction_on_fig1);
    ("pattern scoping", `Quick, test_cfd_satisfaction_pattern_scope);
    ("single-tuple binding violations", `Quick, test_single_tuple_binding);
    ("attr-eq satisfaction", `Quick, test_attr_eq_satisfaction);
    ("violation pairs", `Quick, test_violations_pairs);
    ("triviality classification", `Quick, test_trivial_classification);
    ("wildcard stripping", `Quick, test_strip_redundant_wildcards);
    ("renaming with pattern meet", `Quick, test_rename_attrs_meet);
    ("FD closure and implication", `Quick, test_fd_closure);
    ("FD minimal cover", `Quick, test_fd_minimal_cover);
    ("FD projection by closure", `Quick, test_fd_projection_closure_method);
  ]
