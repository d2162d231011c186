(* The pipeline IR (Propagation.Ir): the interned CFD representation the
   PropCFD_SPC interior runs on since PR 5.

   - round-trip: [to_ast ∘ of_ast] is [Cfds.Cfd.canonical], and interned
     equality coincides with canonical AST equality;
   - conversion edges: one [Propcover.cover] run converts AST→IR exactly
     once per input CFD on a relation some view atom reads (the rest never
     enter the pipeline) and IR→AST exactly once per cover member — the
     interior performs zero conversions (pinned by the [ir.of_ast] /
     [ir.to_ast] counters);
   - [Mincover.minimal_cover_ir] and the covers of [Propcover.cover] are
     minimal covers, with implication decided by the chase oracle;
   - the RBR engine is built exactly once per reduction even when prune
     rounds rewrite the working set ([rbr.engine_builds] stays at 1). *)

open Relational
open Fixtures
module C = Cfds.Cfd
module Ir = Propagation.Ir
module Gen = QCheck2.Gen

let gen_seed = Gen.int_range 0 1_000_000

let counter_value (s : Obs.snapshot) name =
  Option.value ~default:0 (List.assoc_opt name s.Obs.counters)

(* --- (a) round-trip ----------------------------------------------------- *)

let roundtrip_canonical seed =
  let rng = Workload.Rng.make seed in
  let schema =
    Workload.Schema_gen.generate rng ~relations:2 ~min_arity:4 ~max_arity:7
  in
  let count = Workload.Rng.range rng 8 24 in
  let sigma =
    Workload.Cfd_gen.generate rng ~schema ~count ~max_lhs:4 ~var_pct:50
  in
  let ctx = Ir.create_ctx () in
  List.for_all
    (fun c -> C.compare (Ir.to_ast ctx (Ir.of_ast ctx c)) (C.canonical c) = 0)
    sigma
  && List.for_all
       (fun c1 ->
         List.for_all
           (fun c2 ->
             Ir.equal (Ir.of_ast ctx c1) (Ir.of_ast ctx c2)
             = (C.compare (C.canonical c1) (C.canonical c2) = 0))
           sigma)
       sigma

let prop_roundtrip_canonical =
  QCheck2.Test.make ~name:"of_ast/to_ast round-trips through canonical"
    ~count:80 gen_seed roundtrip_canonical

(* --- (b) zero interior conversions -------------------------------------- *)

let cover_conversion_edges seed =
  let rng = Workload.Rng.make seed in
  let schema =
    Workload.Schema_gen.generate rng ~relations:2 ~min_arity:4 ~max_arity:6
  in
  let count = Workload.Rng.range rng 10 30 in
  let sigma =
    Workload.Cfd_gen.generate rng ~schema ~count ~max_lhs:4 ~var_pct:40
  in
  let view = Workload.View_gen.generate rng ~schema ~y:4 ~f:2 ~ec:2 in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      let r = Propcover.cover view sigma in
      let snap = Obs.snapshot () in
      (* The entry edge interns the CFDs on read relations once (the rest
         are dropped before it); the exit edge de-interns the cover once
         (the ⊥ short-cut emits its AST cover directly).  Anything more
         would be an interior conversion. *)
      let bases = Spc.bases view in
      counter_value snap "ir.of_ast"
      = List.length (List.filter (fun c -> List.mem c.C.rel bases) sigma)
      && counter_value snap "ir.to_ast"
         = (if r.Propcover.always_empty then 0
            else List.length r.Propcover.cover))

let prop_cover_conversion_edges =
  QCheck2.Test.make ~name:"cover converts only at the edges" ~count:30 gen_seed
    cover_conversion_edges

(* --- (c) the shipped MinCover is minimal --------------------------------- *)

(* Implication by the chase oracle over the identity view, which shares
   no code with the [Fast_impl] kernel MinCover runs. *)
let chase_implies rel sigma phi =
  match
    Propagate.decide ~strategy:Propagate.Chase_only
      (Implication.identity_view rel) ~sigma phi
  with
  | Propagate.Propagated -> true
  | Propagate.Not_propagated _ | Propagate.Budget_exceeded -> false

(* [cover] is a minimal cover of [sigma] over [rel]: equivalent to it, no
   member implied by the others, and no LHS attribute of a member other
   than an attribute equality removable. *)
let is_minimal_cover rel sigma cover =
  let implies = chase_implies rel in
  let without i = List.filteri (fun j _ -> j <> i) cover in
  let drop phi a =
    C.make phi.C.rel (List.remove_assoc a phi.C.lhs) phi.C.rhs
  in
  List.for_all (implies cover) sigma
  && List.for_all (implies sigma) cover
  && List.for_all Fun.id
       (List.mapi (fun i phi -> not (implies (without i) phi)) cover)
  && List.for_all
       (fun phi ->
         C.is_attr_eq phi
         || List.for_all
              (fun (a, _) -> not (implies cover (drop phi a)))
              phi.C.lhs)
       cover

(* Folding pattern constants into 1..3 makes the CFDs' conditions
   overlap, which the generator's 1..100000 range almost never does. *)
let fold_constants sigma =
  let fold = function
    | a, Cfds.Pattern.Const (Value.Int n) ->
      (a, Cfds.Pattern.Const (Value.Int (1 + (n mod 3))))
    | e -> e
  in
  List.map
    (fun c -> C.make c.C.rel (List.map fold c.C.lhs) (fold c.C.rhs))
    sigma

(* Property A: [minimal_cover_ir] on one relation; odd seeds fold the
   constants. *)
let mincover_ir_minimal seed =
  let rng = Workload.Rng.make seed in
  let schema =
    Workload.Schema_gen.generate rng ~relations:1 ~min_arity:4 ~max_arity:7
  in
  let rel = List.hd (Schema.relations schema) in
  let count = Workload.Rng.range rng 6 18 in
  let sigma =
    Workload.Cfd_gen.generate rng ~schema ~count ~max_lhs:4 ~var_pct:50
  in
  let sigma = if seed mod 2 = 1 then fold_constants sigma else sigma in
  let ctx = Ir.create_ctx () in
  let isigma = List.map (Ir.of_ast ctx) sigma in
  let cover =
    Mincover.minimal_cover_ir ctx (Ir.space_of_schema ctx rel) isigma
  in
  is_minimal_cover rel sigma (List.map (Ir.to_ast ctx) cover)

let prop_mincover_ir_minimal =
  QCheck2.Test.make ~name:"minimal_cover_ir is a minimal cover" ~count:300
    gen_seed mincover_ir_minimal

(* Property B: a non-empty [Propcover.cover] is a minimal cover of itself
   over the view schema, for Σ with small-domain constants. *)
let cover_minimal seed =
  let rng = Workload.Rng.make seed in
  let schema =
    Workload.Schema_gen.generate rng ~relations:2 ~min_arity:4 ~max_arity:6
  in
  let count = Workload.Rng.range rng 10 30 in
  let sigma =
    fold_constants
      (Workload.Cfd_gen.generate rng ~schema ~count ~max_lhs:4 ~var_pct:40)
  in
  let view = Workload.View_gen.generate rng ~schema ~y:4 ~f:2 ~ec:2 in
  let r = Propcover.cover view sigma in
  r.Propcover.always_empty
  || is_minimal_cover (Spc.view_schema view) r.Propcover.cover
       r.Propcover.cover

let prop_cover_minimal =
  QCheck2.Test.make ~name:"cover is a minimal cover" ~count:300 gen_seed
    cover_minimal

(* --- (d) one engine build per reduction ---------------------------------- *)

(* Example 4.1's exponential family, sized so the working set crosses the
   adaptive-prune threshold (2 · max(256, |Σ|)): with n = 10, the set
   reaches 2⁹ + 2 = 514 > 512 after nine drops, forcing a prune round
   mid-reduction.  The engine must absorb the pruned set as a diff — one
   build for the whole reduction — and agree with the prune-free run. *)
let exponential_family n =
  let attrs =
    List.concat
      (List.init n (fun i ->
           let i = i + 1 in
           [
             Printf.sprintf "A%d" i;
             Printf.sprintf "B%d" i;
             Printf.sprintf "C%d" i;
           ]))
    @ [ "D" ]
  in
  let rel =
    Schema.relation "R" (List.map (fun a -> Attribute.make a Domain.int) attrs)
  in
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
  (rel, sigma, cs)

let test_engine_built_once () =
  let rel, sigma, cs = exponential_family 10 in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      let pruned, flag = Rbr.reduce ~prune:(rel, 64) sigma ~drop_attrs:cs in
      let snap = Obs.snapshot () in
      check_int "one engine build" 1 (counter_value snap "rbr.engine_builds");
      check_bool "prune round ran" true
        (counter_value snap "rbr.prune_rounds" >= 1);
      check_bool "complete" true (flag = `Complete);
      let plain, _ = Rbr.reduce sigma ~drop_attrs:cs in
      check_int "2^n choice CFDs" 1024 (List.length plain);
      check_int "same cover size" (List.length plain) (List.length pruned);
      List.iter2
        (fun a b ->
          if C.compare a b <> 0 then
            Alcotest.failf "prune diverged: %a vs %a" C.pp a C.pp b)
        plain pruned)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_roundtrip_canonical;
      prop_cover_conversion_edges;
      prop_mincover_ir_minimal;
      prop_cover_minimal;
    ]
  @ [ ("engine built once under prune", `Quick, test_engine_built_once) ]
