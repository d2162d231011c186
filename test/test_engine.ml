(* Differential tests for the indexed/incremental propagation engine:
   the optimised kernels must agree exactly with their reference
   implementations on generated workloads.

   - indexed [Rbr.drop_indexed] vs the all-pairs [Rbr.drop], and
     [Rbr.reduce] vs iterated [Rbr.drop]s, on generated workloads and on
     ones whose constants are folded into 1..k with an attr-eq CFD on
     half the seeds (the generators' constants rarely meet); a failing
     resolvent test allocates nothing, and the drop counters count live
     rows and joined pairs only;
   - masked [Fast_impl.implies ~mask] vs recompiling the subset;
   - pooled [Mincover.prune_partitioned_ir ?pool] — the prune RBR runs
     with [options.pool] — vs the sequential run. *)

open Relational
module C = Cfds.Cfd
module P = Propagation
module Gen = QCheck2.Gen

let seeds = 60
let gen_seed = Gen.int_range 0 1_000_000

(* A single-relation workload: the engine kernels all operate per
   relation. *)
let relation_workload seed =
  let rng = Workload.Rng.make seed in
  let schema =
    Workload.Schema_gen.generate rng ~relations:1 ~min_arity:4 ~max_arity:7
  in
  let rel = List.hd (Schema.relations schema) in
  let count = Workload.Rng.range rng 6 18 in
  let sigma =
    Workload.Cfd_gen.generate rng ~schema ~count ~max_lhs:4 ~var_pct:50
  in
  (rng, rel, sigma)

let normalize sigma = List.sort_uniq C.compare (List.map C.canonical sigma)

let sets_equal a b =
  List.length a = List.length b && List.for_all2 (fun x y -> C.compare x y = 0) a b

(* Each property is a named [seed -> bool] check so the seed-replay
   corpus (regressions.ml) can pin and re-run exact counterexamples. *)

(* --- (a) indexed drop ≡ naive drop ------------------------------------- *)

(* The generators draw constants from 1..100000, so a constant-RHS
   producer almost never meets a consumer holding the same constant, nor
   two LHS constants meet at all.  Folding every constant into 1..k
   (k from 2 to 4) makes the constant joins, meets and triviality tests
   of resolution actually happen; an attr-eq CFD rides along on half
   the seeds, as in [test_kernel]. *)
let fold_constant k = function
  | Cfds.Pattern.Const (Value.Int v) ->
    Cfds.Pattern.Const (Value.int (1 + (v mod k)))
  | p -> p

let small_constant_workload seed =
  let rng, rel, sigma = relation_workload seed in
  let frng = Workload.Rng.make (seed lxor 0x5eed) in
  let k = Workload.Rng.range frng 2 4 in
  let sigma =
    List.map
      (fun c ->
        C.make c.C.rel
          (List.map (fun (a, p) -> (a, fold_constant k p)) c.C.lhs)
          (fst c.C.rhs, fold_constant k (snd c.C.rhs)))
      sigma
  in
  let sigma =
    match Workload.Rng.sample frng 2 (Schema.attribute_names rel) with
    | [ a; b ] when Workload.Rng.bool frng ->
      sigma @ [ C.attr_eq (Schema.relation_name rel) a b ]
    | _ -> sigma
  in
  (rng, rel, sigma)

let drop_indexed_agrees_on (rng, rel, sigma) =
  let attrs = Schema.attribute_names rel in
  let a = List.nth attrs (Workload.Rng.range rng 0 (List.length attrs - 1)) in
  let naive = normalize (P.Rbr.drop sigma a) in
  let indexed = normalize (P.Rbr.drop_indexed sigma a) in
  sets_equal naive indexed

let drop_indexed_agrees seed = drop_indexed_agrees_on (relation_workload seed)

let drop_indexed_agrees_small seed =
  drop_indexed_agrees_on (small_constant_workload seed)

let prop_drop_indexed_agrees =
  QCheck2.Test.make ~name:"indexed drop = naive drop" ~count:seeds gen_seed
    drop_indexed_agrees

let prop_drop_indexed_agrees_small =
  QCheck2.Test.make ~name:"indexed drop = naive drop (constants in 1..k)"
    ~count:(4 * seeds) gen_seed drop_indexed_agrees_small

(* Dropping several attributes in sequence exercises the engine's
   incremental bucket maintenance (via [reduce]) against naive iterated
   drops. *)
let reduce_agrees_with_iterated_drop_on (rng, rel, sigma) =
  let attrs = Schema.attribute_names rel in
  let k = Workload.Rng.range rng 1 (min 3 (List.length attrs - 1)) in
  let drop_attrs = List.filteri (fun i _ -> i < k) attrs in
  let naive =
    List.fold_left
      (fun acc a -> P.Rbr.drop acc a)
      (List.map C.strip_redundant_wildcards sigma)
      drop_attrs
  in
  (* [reduce] picks its own (min-degree) elimination order; the result
     is order-independent as a *set of logical consequences*, but the
     syntactic sets can differ, so fix the order instead. *)
  let reduced, flag = P.Rbr.reduce ~order:`Given sigma ~drop_attrs in
  flag = `Complete && sets_equal (normalize naive) (normalize reduced)

let reduce_agrees_with_iterated_drop seed =
  reduce_agrees_with_iterated_drop_on (relation_workload seed)

let reduce_agrees_with_iterated_drop_small seed =
  reduce_agrees_with_iterated_drop_on (small_constant_workload seed)

let prop_reduce_agrees_with_iterated_drop =
  QCheck2.Test.make ~name:"reduce = iterated naive drops" ~count:seeds gen_seed
    reduce_agrees_with_iterated_drop

let prop_reduce_agrees_with_iterated_drop_small =
  QCheck2.Test.make ~name:"reduce = iterated naive drops (constants in 1..k)"
    ~count:(4 * seeds) gen_seed reduce_agrees_with_iterated_drop_small

(* The resolvent test runs on every pair the join hands it, and most
   fail, so a failing test must not touch the minor heap: the meet and the
   triviality of the merged row are decided before it is allocated. *)
(* The pairs a join would hand over (the producer's RHS pattern is below
   the consumer's at [a]) whose resolvent is still undefined or trivial. *)
let failing_pairs seed =
  let _, rel, sigma = small_constant_workload seed in
  let ctx = P.Ir.create_ctx () in
  let rows = List.map (P.Ir.of_ast ctx) sigma in
  List.concat_map
    (fun a ->
      List.concat_map
        (fun p ->
          List.filter_map
            (fun c ->
              match P.Ir.lhs_pattern c a with
              | Some t
                when fst p.P.Ir.rhs = a
                     && Cfds.Pattern.leq (snd p.P.Ir.rhs) t
                     && P.Ir.resolvent p c ~on:a = None ->
                Some (p, c, a)
              | _ -> None)
            rows)
        rows)
    (List.map (P.Ir.intern ctx) (Schema.attribute_names rel))

let test_failing_resolvents_allocate_nothing () =
  let failing = Array.of_list (List.concat_map failing_pairs (List.init 40 Fun.id)) in
  Fixtures.check_bool "the workloads have failing pairs past P.leq" true
    (Array.length failing >= 100);
  let run () =
    for k = 0 to Array.length failing - 1 do
      let p, c, a = failing.(k) in
      ignore (P.Ir.resolvent p c ~on:a : P.Ir.t option)
    done
  in
  let delta = Obs.minor_allocated (fun () -> for _ = 1 to 20 do run () done) in
  if delta <> 0.0 then
    Alcotest.failf "%d failing resolvent tests allocated %.0f minor words"
      (20 * Array.length failing) delta

(* The counters' definitions, on a hand-made Σ dropped in the order B, C.
   Dropping B removes R([B] -> [C]) from C's buckets, so the second drop
   must skip its dead id: [rbr.bucket_nodes_touched] counts live producers
   and consumers only.  The wildcard producer R([A] -> [B]) meets only the
   consumer with [_] at B, so [rbr.pairs_tested] is 1 + 1, where the
   nested loop tested 2 + 1. *)
let test_drop_counters () =
  let w = Cfds.Pattern.Wild and one = Cfds.Pattern.Const (Value.int 1) in
  let sigma =
    [
      C.make "R" [ ("A", w) ] ("B", w);
      C.make "R" [ ("B", w) ] ("C", w);
      C.make "R" [ ("B", one) ] ("D", w);
      C.make "R" [ ("C", w) ] ("D", w);
    ]
  in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      let reduced, _ = P.Rbr.reduce ~order:`Given sigma ~drop_attrs:[ "B"; "C" ] in
      let counters = (Obs.snapshot ()).Obs.counters in
      let count name = Option.value ~default:0 (List.assoc_opt name counters) in
      Fixtures.check_int "bucket nodes touched" 5 (count "rbr.bucket_nodes_touched");
      Fixtures.check_int "pairs tested" 2 (count "rbr.pairs_tested");
      Fixtures.check_int "resolvents generated" 2 (count "rbr.resolvents_generated");
      Fixtures.check_bool "A -> D is all that is left" true
        (sets_equal (normalize reduced) (normalize [ C.make "R" [ ("A", w) ] ("D", w) ])))

(* --- (b) masked implies ≡ recompile ------------------------------------ *)

let masked_implies_agrees seed =
  let _, rel, sigma = relation_workload seed in
  let sigma = Array.of_list sigma in
  let compiled = P.Fast_impl.compile rel (Array.to_list sigma) in
  let mask = P.Fast_impl.full_mask compiled in
  let n = Array.length sigma in
  let ok = ref true in
  for i = 0 to n - 1 do
    P.Fast_impl.mask_clear mask i;
    let rest = Array.to_list sigma |> List.filteri (fun j _ -> j <> i) in
    let recompiled = P.Fast_impl.compile rel rest in
    (* Leave-one-out: does Σ∖{φᵢ} imply φᵢ?  Also probe with the other
       CFDs as candidates to cover non-member queries. *)
    List.iter
      (fun phi ->
        if
          P.Fast_impl.implies ~mask compiled phi
          <> P.Fast_impl.implies recompiled phi
        then ok := false)
      (Array.to_list sigma);
    P.Fast_impl.mask_set mask i
  done;
  !ok

let prop_masked_implies_agrees =
  QCheck2.Test.make ~name:"masked implies = recompiled subset" ~count:seeds
    gen_seed masked_implies_agrees

(* --- (c) pooled partitioned prune ≡ sequential ------------------------- *)

(* One shared pool for the whole suite; spawning domains per test case
   would dominate the runtime. *)
let test_pool = lazy (Parallel.Pool.create ~size:3 ())

let pooled_prune_agrees seed =
  let rng, rel, sigma = relation_workload seed in
  let chunk = Workload.Rng.range rng 2 6 in
  let ctx = P.Ir.create_ctx () in
  let space = P.Ir.space_of_schema ctx rel in
  let isigma = List.map (P.Ir.of_ast ctx) sigma in
  let sequential = P.Mincover.prune_partitioned_ir ctx space ~chunk isigma in
  let pooled =
    P.Mincover.prune_partitioned_ir ~pool:(Lazy.force test_pool) ctx space
      ~chunk isigma
  in
  (* Order-preserving map: the two runs must agree element-for-element,
     not just as sets. *)
  List.length sequential = List.length pooled
  && List.for_all2 P.Ir.equal sequential pooled

let prop_pooled_prune_agrees =
  QCheck2.Test.make ~name:"pooled prune = sequential prune" ~count:seeds
    gen_seed pooled_prune_agrees

(* --- (d) instrumentation transparency ---------------------------------- *)

(* A cover-sized workload (the kernels above are single-relation; the
   transparency check wants the whole PropCFD_SPC pipeline). *)
let cover_workload seed =
  let rng = Workload.Rng.make seed in
  let schema =
    Workload.Schema_gen.generate rng ~relations:2 ~min_arity:4 ~max_arity:6
  in
  let count = Workload.Rng.range rng 10 30 in
  let sigma =
    Workload.Cfd_gen.generate rng ~schema ~count ~max_lhs:4 ~var_pct:40
  in
  let view = Workload.View_gen.generate rng ~schema ~y:4 ~f:2 ~ec:2 in
  (sigma, view)

(* Span durations are wall-clock and never reproducible; everything else
   (counter values, span counts) must be. *)
let deterministic_part (s : Obs.snapshot) =
  (s.Obs.counters, List.map (fun (n, h) -> (n, h.Obs.h_count)) s.Obs.hists)

let instrumentation_transparent seed =
  let sigma, view = cover_workload seed in
  Obs.set_enabled false;
  Obs.set_hist_enabled false;
  let baseline = (P.Propcover.cover view sigma).P.Propcover.cover in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.set_hist_enabled false)
    (fun () ->
      Obs.set_enabled true;
      Obs.set_hist_enabled true;
      let c1 = (P.Propcover.cover view sigma).P.Propcover.cover in
      let s1 = deterministic_part (Obs.snapshot ()) in
      Obs.reset ();
      let c2 = (P.Propcover.cover view sigma).P.Propcover.cover in
      let s2 = deterministic_part (Obs.snapshot ()) in
      (* Recording must not change results, and the recorded counters must
         be deterministic for a sequential (pool-free) run. *)
      sets_equal (normalize baseline) (normalize c1)
      && sets_equal (normalize baseline) (normalize c2)
      && s1 = s2
      && fst s1 <> []
      && snd s1 <> [])

let prop_instrumentation_transparent =
  QCheck2.Test.make ~name:"recording sink: same covers, deterministic counters"
    ~count:30 gen_seed instrumentation_transparent

let suite =
  ( "failing resolvent tests allocate nothing",
    `Quick,
    test_failing_resolvents_allocate_nothing )
  :: ("drop counters skip dead rows", `Quick, test_drop_counters)
  :: List.map QCheck_alcotest.to_alcotest
    [
      prop_drop_indexed_agrees;
      prop_drop_indexed_agrees_small;
      prop_reduce_agrees_with_iterated_drop;
      prop_reduce_agrees_with_iterated_drop_small;
      prop_masked_implies_agrees;
      prop_pooled_prune_agrees;
      prop_instrumentation_transparent;
    ]
