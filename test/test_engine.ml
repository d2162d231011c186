(* Differential tests for the indexed/incremental propagation engine:
   the optimised kernels must agree exactly with their reference
   implementations on generated workloads.

   - indexed [Rbr.drop_indexed] vs the all-pairs [Rbr.drop];
   - masked [Fast_impl.implies ~mask] vs recompiling the subset;
   - pooled [Mincover.prune_partitioned ?pool] vs the sequential run. *)

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

let drop_indexed_agrees seed =
  let rng, rel, sigma = relation_workload seed in
  let attrs = Schema.attribute_names rel in
  let a = List.nth attrs (Workload.Rng.range rng 0 (List.length attrs - 1)) in
  let naive = normalize (P.Rbr.drop sigma a) in
  let indexed = normalize (P.Rbr.drop_indexed sigma a) in
  sets_equal naive indexed

let prop_drop_indexed_agrees =
  QCheck2.Test.make ~name:"indexed drop = naive drop" ~count:seeds gen_seed
    drop_indexed_agrees

(* Dropping several attributes in sequence exercises the engine's
   incremental bucket maintenance (via [reduce]) against naive iterated
   drops. *)
let reduce_agrees_with_iterated_drop seed =
  let rng, rel, sigma = relation_workload seed in
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

let prop_reduce_agrees_with_iterated_drop =
  QCheck2.Test.make ~name:"reduce = iterated naive drops" ~count:seeds gen_seed
    reduce_agrees_with_iterated_drop

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
  let sequential = P.Mincover.prune_partitioned rel ~chunk sigma in
  let pooled =
    P.Mincover.prune_partitioned ~pool:(Lazy.force test_pool) rel ~chunk sigma
  in
  (* Order-preserving map: the two runs must agree element-for-element,
     not just as sets. *)
  List.length sequential = List.length pooled
  && List.for_all2 (fun x y -> C.compare x y = 0) sequential pooled

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
  List.map QCheck_alcotest.to_alcotest
    [
      prop_drop_indexed_agrees;
      prop_reduce_agrees_with_iterated_drop;
      prop_masked_implies_agrees;
      prop_pooled_prune_agrees;
      prop_instrumentation_transparent;
    ]
