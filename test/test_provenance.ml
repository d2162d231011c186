(* Why-provenance of the propagation cover.

   The load-bearing property is *soundness*: for every member φ of a
   computed cover, the recorded source multiset Σ' ⊆ Σ must itself
   propagate φ — checked against the chase-based decision procedure
   (the same ground-truth oracle as test_oracle.ml), run on the subset.
   Plus recording transparency (identical covers with and without a
   recorder), structural invariants of the arena (a DAG, parents before
   children), and independence of recorders run concurrently. *)

open Relational
module C = Cfds.Cfd
module P = Propagation
module Gen = QCheck2.Gen

let check_bool = Alcotest.(check bool)
let gen_seed = Gen.int_range 0 1_000_000

(* One recording run: the cover and the recorder it filled. *)
let recorded ?options view sigma =
  let prov = P.Provenance.create () in
  (P.Propcover.cover ?options ~provenance:prov view sigma, prov)

let propagated view sigma phi =
  match
    P.Propagate.decide ~strategy:P.Propagate.Chase_only view ~sigma phi
  with
  | P.Propagate.Propagated -> true
  | P.Propagate.Not_propagated _ -> false
  | P.Propagate.Budget_exceeded -> Alcotest.fail "chase cannot exceed budget"

(* Small instances keep the per-subset chase affordable (it runs once per
   cover member). *)
let small_workload seed =
  let rng = Workload.Rng.make seed in
  let relations = Workload.Rng.range rng 1 3 in
  let schema =
    Workload.Schema_gen.generate rng ~relations ~min_arity:3 ~max_arity:5
  in
  let count = Workload.Rng.range rng 2 8 in
  let sigma =
    Workload.Cfd_gen.generate rng ~schema ~count ~max_lhs:3 ~var_pct:50
  in
  let ec = Workload.Rng.range rng 1 2 in
  let y = Workload.Rng.range rng 2 4 in
  let f = Workload.Rng.range rng 0 2 in
  let view = Workload.View_gen.generate rng ~schema ~y ~f ~ec in
  (sigma, view)

let normalize sigma = List.sort_uniq C.compare (List.map C.canonical sigma)

let sets_equal a b =
  List.length a = List.length b
  && List.for_all2 (fun x y -> C.compare x y = 0) a b

let subset_of srcs sigma =
  let sigma = normalize sigma in
  List.for_all
    (fun s -> List.exists (fun t -> C.compare (C.canonical s) t = 0) sigma)
    srcs

(* The full per-seed soundness check, exposed for the seed-replay corpus
   (regressions.ml). *)
let sound_against view sigma (r : P.Propcover.result) prov =
  (* An always-empty view's cover is justified by Lemma 4.5, not by a
     derivation from Σ — nothing to check. *)
  r.P.Propcover.always_empty
  || List.for_all
       (fun phi ->
         let srcs = List.map fst (P.Provenance.sources prov phi) in
         (* Σ' ⊆ Σ, and the subset alone already propagates φ —
            derivations never smuggle in facts Σ does not provide (the
            view definition itself is a legitimate leaf: Σ' may even be
            empty for selection/constant-derived CFDs). *)
         subset_of srcs sigma && propagated view srcs phi)
       r.P.Propcover.cover

let provenance_sound seed =
  let sigma, view = small_workload seed in
  let r, prov = recorded view sigma in
  sound_against view sigma r prov

let prop_provenance_sound =
  QCheck2.Test.make ~name:"cover sources: Σ' ⊆ Σ and Σ' |=_V φ (chase oracle)"
    ~count:40 gen_seed provenance_sound

(* Recording must not change the covers computed. *)
let provenance_transparent seed =
  let sigma, view = small_workload seed in
  let baseline = (P.Propcover.cover view sigma).P.Propcover.cover in
  let r, _ = recorded view sigma in
  sets_equal (normalize baseline) (normalize r.P.Propcover.cover)

let prop_provenance_transparent =
  QCheck2.Test.make ~name:"recording transparency: same covers on/off"
    ~count:40 gen_seed provenance_transparent

(* Structural invariants: parents strictly precede children (the arena is
   a DAG by construction) and every recorded node is reachable via find. *)
let arena_well_formed seed =
  let sigma, view = small_workload seed in
  let _, prov = recorded view sigma in
  let n = P.Provenance.size prov in
  let ok = ref true in
  for id = 0 to n - 1 do
    let node = P.Provenance.node prov id in
    if node.P.Provenance.id <> id then ok := false;
    List.iter (fun p -> if p >= id then ok := false) node.P.Provenance.parents
  done;
  !ok

let prop_arena_well_formed =
  QCheck2.Test.make ~name:"arena: ids dense, parents precede children"
    ~count:40 gen_seed arena_well_formed

(* Deterministic anchor: the paper's running example (Fig. 2).  Every
   cover member must have a derivation tree whose Σ-leaves are among
   {f1, f2, cfd1}, and the JSON export must be well-formed. *)
let test_running_example () =
  let open Fixtures in
  let sigma = [ f1; f2; cfd1 ] in
  let r, prov = recorded q1 sigma in
  check_bool "cover nonempty" true (r.P.Propcover.cover <> []);
  check_bool "arena nonempty" true (P.Provenance.size prov > 0);
  List.iter
    (fun phi ->
      check_bool
        (Fmt.str "cover member has a node: %a" C.pp phi)
        true
        (P.Provenance.find prov phi <> None);
      let srcs = List.map fst (P.Provenance.sources prov phi) in
      check_bool
        (Fmt.str "sources are Σ members: %a" C.pp phi)
        true (subset_of srcs sigma);
      check_bool
        (Fmt.str "Σ' propagates: %a" C.pp phi)
        true
        (propagated q1 srcs phi))
    r.P.Propcover.cover;
  (* The non-vacuous members (zip→street, AC→city, AC=20→city=LDN)
     must actually cite their originating source CFD. *)
  let cites phi src =
    List.exists
      (fun (s, _) -> C.compare s (C.canonical src) = 0)
      (P.Provenance.sources prov phi)
  in
  check_bool "zip→street cites f1" true
    (List.exists
       (fun phi -> cites phi f1)
       r.P.Propcover.cover);
  check_bool "AC→city cites f2" true
    (List.exists (fun phi -> cites phi f2) r.P.Propcover.cover);
  (* Rendering smoke: the trees print, and the JSON export parses. *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter (fun c -> P.Provenance.pp_tree prov ppf c) r.P.Propcover.cover;
  Format.pp_print_flush ppf ();
  check_bool "trees rendered" true (Buffer.length buf > 0);
  check_bool "tree mentions a source leaf" true
    (let s = Buffer.contents buf in
     let rec contains i =
       i + 8 <= String.length s
       && (String.equal (String.sub s i 8) "[source]" || contains (i + 1))
     in
     contains 0);
  let doc = Mini_json.parse (P.Provenance.to_json prov r.P.Propcover.cover) in
  let cover_entries =
    Mini_json.to_arr (Option.get (Mini_json.member "cover" doc))
  in
  Alcotest.(check int)
    "JSON cover entries" (List.length r.P.Propcover.cover)
    (List.length cover_entries);
  check_bool "JSON has nodes" true
    (Mini_json.to_arr (Option.get (Mini_json.member "nodes" doc)) <> [])

(* The fired-rule witness of [Fast_impl.implies ?fired]: replaying only
   the marked rules must reproduce the positive verdict. *)
let witness_replays seed =
  let rng = Workload.Rng.make seed in
  let schema =
    Workload.Schema_gen.generate rng ~relations:1 ~min_arity:4 ~max_arity:7
  in
  let rel = List.hd (Schema.relations schema) in
  let count = Workload.Rng.range rng 6 18 in
  let sigma =
    Workload.Cfd_gen.generate rng ~schema ~count ~max_lhs:4 ~var_pct:50
  in
  let compiled = P.Fast_impl.compile rel sigma in
  let arr = Array.of_list sigma in
  let ok = ref true in
  Array.iter
    (fun phi ->
      let fired = Bytes.make (P.Fast_impl.num_rules compiled) '\000' in
      if P.Fast_impl.implies ~fired compiled phi then begin
        let subset =
          Array.to_list arr
          |> List.filteri (fun i _ -> Bytes.get fired i = '\001')
        in
        let recompiled = P.Fast_impl.compile rel subset in
        if not (P.Fast_impl.implies recompiled phi) then ok := false
      end)
    arr;
  !ok

let prop_witness_replays =
  QCheck2.Test.make ~name:"fired-rule witness alone implies the conclusion"
    ~count:60 gen_seed witness_replays

(* Recorders are values: two domains record concurrently, each on its own
   seed, and neither sees the other's derivations.  Each recorder stays
   sound against its own Σ and holds exactly the nodes of a solo run, and
   its JSON export is byte-identical to the solo run's. *)
let test_concurrent_recorders () =
  let seeds = [ 7; 1_013 ] in
  let run_once seed =
    let sigma, view = small_workload seed in
    let r, prov = recorded view sigma in
    ( sound_against view sigma r prov,
      P.Provenance.size prov,
      P.Provenance.to_json prov r.P.Propcover.cover )
  in
  let solo = List.map run_once seeds in
  (* Several rounds per domain, so the two runs overlap. *)
  let run seed = List.init 5 (fun _ -> run_once seed) in
  let domains = List.map (fun seed -> Stdlib.Domain.spawn (fun () -> run seed)) seeds in
  List.iteri
    (fun i d ->
      let _, solo_size, solo_json = List.nth solo i in
      List.iter
        (fun (sound, size, json) ->
          check_bool (Printf.sprintf "domain %d: sound against its own Σ" i) true sound;
          Alcotest.(check int)
            (Printf.sprintf "domain %d: only its own nodes" i)
            solo_size size;
          Alcotest.(check string)
            (Printf.sprintf "domain %d: JSON equals the solo run's" i)
            solo_json json)
        (Stdlib.Domain.join d))
    domains

let suite =
  ("running example: trees bottom out in Σ", `Quick, test_running_example)
  :: ("concurrent recorders stay separate", `Quick, test_concurrent_recorders)
  :: List.map QCheck_alcotest.to_alcotest
       [
         prop_provenance_sound;
         prop_provenance_transparent;
         prop_arena_well_formed;
         prop_witness_replays;
       ]
