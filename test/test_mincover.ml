(* MinCover: minimal covers of CFD sets (Section 4.1). *)

open Relational
open Fixtures
module C = Cfds.Cfd
module P = Cfds.Pattern
module Ir = Propagation.Ir

let schema = abc_schema ()
let cover = Mincover.minimal_cover schema

let test_removes_duplicates () =
  let c = C.fd "R" [ "A" ] "B" in
  check_int "duplicates collapse" 1 (List.length (cover [ c; c; c ]))

let test_removes_trivial () =
  let triv = C.make "R" [ ("A", P.Wild) ] ("A", P.Wild) in
  check_int "trivial dropped" 0 (List.length (cover [ triv ]));
  check_int "const-lhs-wild-rhs dropped" 0
    (List.length (cover [ C.make "R" [ ("A", const "a") ] ("A", P.Wild) ]))

let test_keeps_constant_binding () =
  (* (A → A, (_ ‖ a)) is NOT trivial (Section 4.1, point (b)). *)
  let c = C.const_binding "R" "A" (str "a") in
  check_int "binding kept" 1 (List.length (cover [ c ]))

let test_removes_implied () =
  let sigma =
    [ C.fd "R" [ "A" ] "B"; C.fd "R" [ "B" ] "C"; C.fd "R" [ "A" ] "C" ]
  in
  let out = cover sigma in
  check_int "transitive FD removed" 2 (List.length out);
  check_bool "equivalent" true (Implication.equivalent schema sigma out)

let test_reduces_lhs () =
  (* With A → B given, (A B → C) reduces to (A → C). *)
  let sigma = [ C.fd "R" [ "A" ] "B"; C.fd "R" [ "A"; "B" ] "C" ] in
  let out = cover sigma in
  check_bool "lhs reduced" true
    (List.exists (fun c -> C.equal c (C.fd "R" [ "A" ] "C")) out);
  check_bool "equivalent after reduction" true
    (Implication.equivalent schema sigma out)

let test_pattern_redundancy () =
  (* The conditional version is implied by the unconditional FD. *)
  let fd = C.fd "R" [ "A" ] "B" in
  let cond = C.make "R" [ ("A", const "a") ] ("B", P.Wild) in
  let out = cover [ fd; cond ] in
  check_int "conditional dropped" 1 (List.length out);
  check_bool "fd survives" true (List.exists (C.equal fd) out)

let test_distinct_conditions_kept () =
  let c1 = C.make "R" [ ("A", const "a") ] ("B", const "b") in
  let c2 = C.make "R" [ ("A", const "x") ] ("B", const "y") in
  check_int "different conditions independent" 2 (List.length (cover [ c1; c2 ]))

let test_cover_always_equivalent () =
  (* Randomised: MinCover output is equivalent to its input. *)
  let rng = Workload.Rng.make 7 in
  let small_schema =
    Schema.relation "R"
      (List.init 5 (fun i ->
           Attribute.make (Printf.sprintf "A%d" (i + 1)) Domain.int))
  in
  let db = Schema.db [ small_schema ] in
  for _ = 1 to 10 do
    let sigma =
      Workload.Cfd_gen.generate rng ~schema:db ~count:8 ~max_lhs:4 ~var_pct:50
    in
    let out = Mincover.minimal_cover small_schema sigma in
    check_bool "equivalent" true (Implication.equivalent small_schema sigma out);
    check_bool "no larger" true (List.length out <= List.length sigma)
  done

let test_partitioned_sound () =
  let rng = Workload.Rng.make 9 in
  let small_schema =
    Schema.relation "R"
      (List.init 5 (fun i ->
           Attribute.make (Printf.sprintf "A%d" (i + 1)) Domain.int))
  in
  let db = Schema.db [ small_schema ] in
  let sigma =
    Workload.Cfd_gen.generate rng ~schema:db ~count:12 ~max_lhs:4 ~var_pct:50
  in
  let ctx = Ir.create_ctx () in
  let out =
    Mincover.prune_partitioned_ir ctx
      (Ir.space_of_schema ctx small_schema)
      ~chunk:4
      (List.map (Ir.of_ast ctx) sigma)
  in
  check_bool "partitioned pruning preserves equivalence" true
    (Implication.equivalent small_schema sigma (List.map (Ir.to_ast ctx) out))

let test_db_level_grouping () =
  let ctx = Ir.create_ctx () in
  let out =
    Mincover.minimal_cover_db_ir ctx sources
      (List.map (Ir.of_ast ctx) [ f1; f2; f3; f1 ])
  in
  check_int "per-relation grouping" 3 (List.length out)

let suite =
  [
    ("duplicates", `Quick, test_removes_duplicates);
    ("trivial CFDs dropped", `Quick, test_removes_trivial);
    ("constant binding kept", `Quick, test_keeps_constant_binding);
    ("implied CFDs removed", `Quick, test_removes_implied);
    ("LHS reduction", `Quick, test_reduces_lhs);
    ("pattern redundancy", `Quick, test_pattern_redundancy);
    ("distinct conditions kept", `Quick, test_distinct_conditions_kept);
    ("random covers equivalent", `Quick, test_cover_always_equivalent);
    ("partitioned pruning sound", `Quick, test_partitioned_sound);
    ("db-level grouping", `Quick, test_db_level_grouping);
  ]
