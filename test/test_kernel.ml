(* The flat-bitset chase kernel ({!Propagation.Fast_impl}), checked
   against an independent oracle and against its own resource contract:

   - [implies]/[implies_ir] ≡ the tableau chase of {!Propagation.Propagate}
     ([Chase_only] over the identity view) on random workloads, over
     narrow schemas (the fig. 5 profile), wide ones (arity > 63, where
     the rule masks span several words) and ones whose constants are
     folded into 1..k, with attr-eq rules, where every witness of an
     implied query must imply it alone;
   - leave-one-out masked queries ≡ the chase over Σ with that rule
     removed, rule for rule;
   - both for Σ's own members and for the LHS-reduction queries of
     MinCover (a member with one LHS attribute dropped), which the goal
     stop cuts short when they are implied; a witness-collecting query
     ([~fired], which runs to the fixpoint) answers the same;
   - rules patched in place by [set_rule_ir] keep those answers, whether
     the shrink drops the rule's wake-up key or keeps it;
   - a keyed rule wakes when its key constant arrives by a union;
   - wide schemas actually prune: [fast_impl.mask_prune_skips] is nonzero
     past arity 63;
   - the steady-state query loop allocates nothing on the minor heap.

   [Implication.implies] is no oracle here: it compiles the very kernel
   under test. *)

open Relational
module C = Cfds.Cfd
module P = Propagation
module Ir = Propagation.Ir
module Gen = QCheck2.Gen

let gen_seed = Gen.int_range 0 1_000_000

let relation_workload ~min_arity ~max_arity ~max_lhs seed =
  let rng = Workload.Rng.make seed in
  let schema =
    Workload.Schema_gen.generate rng ~relations:1 ~min_arity ~max_arity
  in
  let rel = List.hd (Schema.relations schema) in
  let count = Workload.Rng.range rng 6 18 in
  let sigma =
    Workload.Cfd_gen.generate rng ~schema ~count ~max_lhs ~var_pct:50
  in
  (rel, sigma)

(* --- (a) kernel ≡ tableau chase, plain and masked, AST and IR ----------- *)

(* [Σ |= φ] by the generic chase: propagation through the identity view
   (Corollary 3.6 read backwards), no instantiation. *)
let chase_implies view sigma phi =
  match P.Propagate.decide ~strategy:P.Propagate.Chase_only view ~sigma phi with
  | P.Propagate.Propagated -> true
  | P.Propagate.Not_propagated _ -> false
  | P.Propagate.Budget_exceeded -> Alcotest.fail "chase-only ran out of budget"

(* The two query shapes MinCover asks: every member of Σ (the
   leave-one-out shape, which reaches its goal only by firing itself)
   and every member with one LHS attribute dropped (the LHS-reduction
   shape, which is often implied long before the fixpoint). *)
let queries sigma =
  sigma
  @ List.concat_map
      (fun phi ->
        if C.is_attr_eq phi then []
        else
          List.map
            (fun (a, _) ->
              C.make phi.C.rel
                (List.filter (fun (b, _) -> not (String.equal a b)) phi.C.lhs)
                phi.C.rhs)
            phi.C.lhs)
      sigma

(* Every query shape of [sigma] through the IR front-end against the
   chase on [sigma], then each leave-one-out mask the MinCover loops use
   against the chase on Σ minus that rule.  Every kernel answer is also
   asked with [~fired], which turns the goal stop off; with [~witness],
   the rules an implied query fired must imply it on their own, by the
   chase.  [also phi expected] adds checks on the unmasked queries. *)
let ir_matches_chase ?(also = fun _ _ -> true) ?(witness = false) view ctx
    space icompiled sigma =
  let qs = queries sigma in
  let iqs = List.map (Ir.of_ast ctx) qs in
  let fired_ok ?mask phi iphi expected =
    let fired = Bytes.make (List.length sigma) '\000' in
    P.Fast_impl.implies_ir ?mask ~fired space icompiled iphi = expected
    && (not (witness && expected)
       || chase_implies view
            (List.filteri (fun j _ -> Bytes.get fired j <> '\000') sigma)
            phi)
  in
  let plain_ok =
    List.for_all2
      (fun phi iphi ->
        let expected = chase_implies view sigma phi in
        also phi expected
        && P.Fast_impl.implies_ir space icompiled iphi = expected
        && fired_ok phi iphi expected)
      qs iqs
  in
  let mask = P.Fast_impl.full_mask icompiled in
  let masked_ok = ref true in
  List.iteri
    (fun i _ ->
      let rest = List.filteri (fun j _ -> j <> i) sigma in
      P.Fast_impl.mask_clear mask i;
      List.iter2
        (fun phi iphi ->
          let expected = chase_implies view rest phi in
          if
            P.Fast_impl.implies_ir ~mask space icompiled iphi <> expected
            || not (fired_ok ~mask phi iphi expected)
          then masked_ok := false)
        qs iqs;
      P.Fast_impl.mask_set mask i)
    sigma;
  plain_ok && !masked_ok

(* One workload, every query shape, through the AST front-end too. *)
let sigma_matches_chase ?witness rel sigma =
  let compiled = P.Fast_impl.compile rel sigma in
  let ctx = Ir.create_ctx () in
  let space = Ir.space_of_schema ctx rel in
  let icompiled = P.Fast_impl.compile_ir space (List.map (Ir.of_ast ctx) sigma) in
  let fired () = Bytes.make (List.length sigma) '\000' in
  ir_matches_chase ?witness (P.Implication.identity_view rel) ctx space
    icompiled sigma ~also:(fun phi expected ->
      P.Fast_impl.implies compiled phi = expected
      && P.Fast_impl.implies ~fired:(fired ()) compiled phi = expected)

let kernel_matches_chase ~min_arity ~max_arity seed =
  let rel, sigma = relation_workload ~min_arity ~max_arity ~max_lhs:4 seed in
  sigma_matches_chase rel sigma

let prop_narrow_matches_chase =
  QCheck2.Test.make ~name:"kernel = chase (narrow schemas)" ~count:60
    gen_seed
    (kernel_matches_chase ~min_arity:4 ~max_arity:7)

(* Wide chases are ~8x slower per seed; 10 seeds keep the suite quick. *)
let prop_wide_matches_chase =
  QCheck2.Test.make ~name:"kernel = chase (wide schemas, arity > 63)"
    ~count:10 gen_seed
    (kernel_matches_chase ~min_arity:64 ~max_arity:80)

(* The generator draws pattern constants from 1..100000, so a constant
   premise almost never comes true and the properties above mostly chase
   wildcard rules.  Here every constant is folded into 1..k, k from 2 to
   4: constant premises come true late in a chase, binds chain through
   several rules and some Σ conflict.  Half the seeds also add one
   attr-eq rule, which unions two classes, constants and all.  Every
   witness of an implied query is checked to imply it alone. *)
let fold_constant k = function
  | Cfds.Pattern.Const (Value.Int v) -> Cfds.Pattern.Const (Value.int (1 + (v mod k)))
  | p -> p

let small_constants_match_chase seed =
  let rel, sigma = relation_workload ~min_arity:4 ~max_arity:7 ~max_lhs:4 seed in
  let rng = Workload.Rng.make (seed lxor 0x5eed) in
  let k = Workload.Rng.range rng 2 4 in
  let sigma =
    List.map
      (fun c ->
        C.make c.C.rel
          (List.map (fun (a, p) -> (a, fold_constant k p)) c.C.lhs)
          (fst c.C.rhs, fold_constant k (snd c.C.rhs)))
      sigma
  in
  let sigma =
    match Workload.Rng.sample rng 2 (Schema.attribute_names rel) with
    | [ a; b ] when Workload.Rng.bool rng ->
      sigma @ [ C.attr_eq (Schema.relation_name rel) a b ]
    | _ -> sigma
  in
  sigma_matches_chase ~witness:true rel sigma

let prop_small_constants_match_chase =
  QCheck2.Test.make ~name:"kernel = chase (constants in 1..k, attr-eq rules)"
    ~count:60 gen_seed small_constants_match_chase

(* Two hand-made shapes the folded workloads hit only by chance.  A
   constant-RHS rule reads only its constant entries (its (t, t)
   instance), so it fires although the pair never agrees on C; a
   wildcard-RHS rule needs the pair to agree on every LHS attribute. *)
let test_constant_rule_ignores_wildcards () =
  let r =
    Schema.relation "R"
      (List.map (fun a -> Attribute.make a Domain.int) [ "A"; "B"; "C" ])
  in
  let c v = Cfds.Pattern.Const (Value.int v) and w = Cfds.Pattern.Wild in
  let view = P.Implication.identity_view r in
  let ctx = Ir.create_ctx () in
  let space = Ir.space_of_schema ctx r in
  let check name sigma phi expected =
    let compiled = P.Fast_impl.compile r sigma in
    let icompiled = P.Fast_impl.compile_ir space (List.map (Ir.of_ast ctx) sigma) in
    let fired () = Bytes.make (List.length sigma) '\000' in
    Fixtures.check_bool (name ^ ": oracle") expected (chase_implies view sigma phi);
    Fixtures.check_bool name expected (P.Fast_impl.implies compiled phi);
    Fixtures.check_bool (name ^ ", fired") expected
      (P.Fast_impl.implies ~fired:(fired ()) compiled phi);
    Fixtures.check_bool (name ^ ", IR") expected
      (P.Fast_impl.implies_ir space icompiled (Ir.of_ast ctx phi))
  in
  check "R([A=1, C] -> [B=2]) |= R([A=1] -> [B=2])"
    [ C.make "R" [ ("A", c 1); ("C", w) ] ("B", c 2) ]
    (C.make "R" [ ("A", c 1) ] ("B", c 2))
    true;
  check "R([A, C] -> [B]) does not imply R([A] -> [B])"
    [ C.make "R" [ ("A", w); ("C", w) ] ("B", w) ]
    (C.make "R" [ ("A", w) ] ("B", w))
    false

(* --- (b) constant-keyed wake-up ------------------------------------------- *)

(* The wake-up key of a standard rule: its first constant LHS entry. *)
let key_entry ic =
  Array.find_opt
    (fun (_, p) -> match p with Cfds.Pattern.Const _ -> true | _ -> false)
    ic.Ir.lhs

let constants ic =
  Array.fold_left
    (fun n (_, p) -> match p with Cfds.Pattern.Const _ -> n + 1 | _ -> n)
    0 ic.Ir.lhs

(* MinCover patches shrunk rules into the compiled set.  Shrink one rule
   by its key entry (it must become keyless: always live) and another by
   a non-key entry (it stays keyed), then every query shape must agree
   with the chase over the updated Σ.  The key-dropped rule is picked with
   a second constant where one exists, so it cannot fire from the
   autonomous pass alone. *)
let patched_rules_match_chase seed =
  let rel, sigma = relation_workload ~min_arity:4 ~max_arity:7 ~max_lhs:4 seed in
  let view = P.Implication.identity_view rel in
  let ctx = Ir.create_ctx () in
  let space = Ir.space_of_schema ctx rel in
  let isigma = Array.of_list (List.map (Ir.of_ast ctx) sigma) in
  let compiled = P.Fast_impl.compile_ir space (Array.to_list isigma) in
  (* Standard rules with a key and at least one more LHS entry. *)
  let key_of i =
    if Ir.is_attr_eq isigma.(i) || Array.length isigma.(i).Ir.lhs < 2 then None
    else Option.map fst (key_entry isigma.(i))
  in
  let pick p =
    List.find_opt (fun i -> key_of i <> None && p i)
      (List.init (Array.length isigma) Fun.id)
  in
  let shrink i a =
    isigma.(i) <- Ir.drop_lhs isigma.(i) a;
    P.Fast_impl.set_rule_ir compiled space i isigma.(i)
  in
  let drop =
    match pick (fun i -> constants isigma.(i) >= 2) with
    | Some i -> Some i
    | None -> pick (fun _ -> true)
  in
  let keep = pick (fun j -> Some j <> drop) in
  Option.iter (fun i -> Option.iter (shrink i) (key_of i)) drop;
  Option.iter
    (fun j ->
      let k = key_of j in
      match Array.find_opt (fun (a, _) -> Some a <> k) isigma.(j).Ir.lhs with
      | Some (a, _) -> shrink j a
      | None -> ())
    keep;
  ir_matches_chase view ctx space compiled
    (List.map (Ir.to_ast ctx) (Array.to_list isigma))

let prop_patched_rules_match_chase =
  QCheck2.Test.make ~name:"kernel = chase after set_rule_ir shrinks" ~count:40
    gen_seed patched_rules_match_chase

(* A keyed rule's key constant can arrive by a union with a bound class
   rather than by a bind: the attr-eq rule (D == B) merges B's class with
   D's, which the query binds to 5, and the rule keyed on B = 5 must wake
   and fire.  The rule keyed on B = 7 never wakes. *)
let test_wake_by_union () =
  let r =
    Schema.relation "R"
      (List.map (fun a -> Attribute.make a Domain.int) [ "A"; "B"; "C"; "D"; "E" ])
  in
  let c v = Cfds.Pattern.Const (Value.int v) and w = Cfds.Pattern.Wild in
  let sigma =
    [
      C.attr_eq "R" "D" "B";
      C.make "R" [ ("A", w); ("B", c 5) ] ("C", w);
      C.make "R" [ ("A", w); ("B", c 7) ] ("E", w);
    ]
  in
  let view = P.Implication.identity_view r in
  let phi = C.make "R" [ ("A", w); ("D", c 5) ] ("C", w) in
  let psi = C.make "R" [ ("A", w); ("D", c 5) ] ("E", w) in
  Fixtures.check_bool "oracle: implied" true (chase_implies view sigma phi);
  Fixtures.check_bool "oracle: not implied" false (chase_implies view sigma psi);
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let compiled = P.Fast_impl.compile r sigma in
  Fixtures.check_bool "woken by the union" true (P.Fast_impl.implies compiled phi);
  Fixtures.check_bool "other key stays dormant" false
    (P.Fast_impl.implies compiled psi);
  let ctx = Ir.create_ctx () in
  let space = Ir.space_of_schema ctx r in
  let icompiled = P.Fast_impl.compile_ir space (List.map (Ir.of_ast ctx) sigma) in
  Fixtures.check_bool "IR: woken by the union" true
    (P.Fast_impl.implies_ir space icompiled (Ir.of_ast ctx phi));
  let wakes =
    Option.value ~default:0
      (List.assoc_opt "fast_impl.rule_wakes" (Obs.snapshot ()).Obs.counters)
  in
  Fixtures.check_bool "wakes counted" true (wakes > 0)

(* --- (c) wide schemas keep mask pruning --------------------------------- *)

(* Regression for the single-int-mask cliff: past [Sys.int_size - 2]
   attributes such masks are all-zero and pruning silently switches off.
   With multi-word masks a rule watching an active position but requiring
   an inactive one must still be mask-skipped — at arity 70. *)
let test_wide_mask_pruning () =
  let wide =
    Schema.relation "W"
      (List.init 70 (fun i ->
           Attribute.make (Printf.sprintf "A%d" (i + 1)) Domain.string))
  in
  let sigma = [ C.fd "W" [ "A1"; "A2" ] "A3"; C.fd "W" [ "A5" ] "A6" ] in
  Obs.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      Obs.set_enabled true;
      Obs.reset ();
      let compiled = P.Fast_impl.compile wide sigma in
      (* A1 is active in this query's chase; Σ's first rule watches A1 but
         also requires A2, so its mask must reject it. *)
      Fixtures.check_bool "not implied" false
        (P.Fast_impl.implies compiled (C.fd "W" [ "A1" ] "A9"));
      (* And the kernel still decides correctly at this arity. *)
      Fixtures.check_bool "implied" true
        (P.Fast_impl.implies compiled (C.fd "W" [ "A2"; "A1" ] "A3"));
      let s = Obs.snapshot () in
      let counter name =
        match List.assoc_opt name s.Obs.counters with Some v -> v | None -> 0
      in
      Fixtures.check_bool "mask_prune_skips > 0 past arity 63" true
        (counter "fast_impl.mask_prune_skips" > 0);
      Fixtures.check_bool "wide compile tallied" true
        (counter "fast_impl.wide_compiles" > 0))

(* --- (d) steady-state queries allocate nothing -------------------------- *)

(* Both query shapes, so the goal stop's exits are on the measured path. *)
let test_zero_allocation_steady_state () =
  let rel, sigma = relation_workload ~min_arity:8 ~max_arity:12 ~max_lhs:4 17 in
  let ctx = Ir.create_ctx () in
  let space = Ir.space_of_schema ctx rel in
  let compiled = P.Fast_impl.compile_ir space (List.map (Ir.of_ast ctx) sigma) in
  let isigma = Array.of_list (List.map (Ir.of_ast ctx) (queries sigma)) in
  let nq = Array.length isigma in
  (* A closure allocated once, outside the measurement; its body must not
     touch the minor heap (plain for-loop — iterator closures would). *)
  let run () =
    for k = 0 to nq - 1 do
      ignore (P.Fast_impl.implies_ir space compiled isigma.(k) : bool)
    done
  in
  run ();
  (* Warm-up done: arena and query scratch are sized.  From here on the
     kernel's contract is zero minor-heap words per query. *)
  let rounds = 50 in
  let delta = Obs.minor_allocated (fun () -> for _ = 1 to rounds do run () done) in
  if delta <> 0.0 then
    Alcotest.failf "steady-state chase allocated %.0f minor words over %d rounds"
      delta (rounds * nq)

(* The masked variant drives MinCover's leave-one-out loop; it must be
   allocation-free too (the mask is reused, not rebuilt). *)
let test_zero_allocation_masked () =
  let rel, sigma = relation_workload ~min_arity:8 ~max_arity:12 ~max_lhs:4 404 in
  let ctx = Ir.create_ctx () in
  let space = Ir.space_of_schema ctx rel in
  let ilist = List.map (Ir.of_ast ctx) sigma in
  let isigma = Array.of_list ilist in
  let compiled = P.Fast_impl.compile_ir space ilist in
  let mask = P.Fast_impl.full_mask compiled in
  (* [~mask:m] would box a fresh [Some] per call; pass the option value
     itself ([?mask:opt]), allocated once here. *)
  let mask_opt = Some mask in
  let nq = Array.length isigma in
  let run () =
    for k = 0 to nq - 1 do
      P.Fast_impl.mask_clear mask k;
      ignore (P.Fast_impl.implies_ir ?mask:mask_opt space compiled isigma.(k) : bool);
      P.Fast_impl.mask_set mask k
    done
  in
  run ();
  let delta = Obs.minor_allocated (fun () -> for _ = 1 to 50 do run () done) in
  if delta <> 0.0 then
    Alcotest.failf "masked steady state allocated %.0f minor words" delta

let suite =
  [
    ("wide schemas keep mask pruning", `Quick, test_wide_mask_pruning);
    ("zero-allocation steady state", `Quick, test_zero_allocation_steady_state);
    ("zero-allocation masked queries", `Quick, test_zero_allocation_masked);
    ("keyed rule wakes by a union", `Quick, test_wake_by_union);
    ( "constant rules ignore wildcard entries",
      `Quick,
      test_constant_rule_ignores_wildcards );
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_narrow_matches_chase;
        prop_small_constants_match_chase;
        prop_wide_matches_chase;
        prop_patched_rules_match_chase;
      ]
