module C = Cfds.Cfd
module P = Cfds.Pattern

(* Observability (no-op unless its channel records). *)
let c_attrs_dropped = Obs.counter "rbr.attrs_dropped"
let c_resolvents = Obs.counter "rbr.resolvents_generated"
let c_deduped = Obs.counter "rbr.resolvents_deduped"
let c_buckets = Obs.counter "rbr.bucket_nodes_touched"
let c_prunes = Obs.counter "rbr.prune_rounds"
let c_builds = Obs.counter "rbr.engine_builds"
let s_reduce = Obs.histogram "rbr.reduce"
let s_prune = Obs.histogram "rbr.prune"

let mentions a cfd = List.mem a (C.attrs cfd)

(* ---------------------------------------------------------------------- *)
(* Reference implementation (strings + assoc lists).  Kept as the oracle   *)
(* for the differential property tests; [reduce] runs the indexed engine   *)
(* below.                                                                  *)

let resolvent phi1 phi2 ~on:a =
  if C.is_attr_eq phi1 || C.is_attr_eq phi2 then None
  else if not (String.equal (fst phi1.C.rhs) a) then None
  else
    match C.lhs_pattern phi2 a with
    | None -> None
    | Some t2_a ->
      let t1_a = snd phi1.C.rhs in
      if not (P.leq t1_a t2_a) then None
      else if List.exists (fun (w, _) -> String.equal w a) phi1.C.lhs then
        (* The resolvent would reintroduce [a]. *)
        None
      else if String.equal (fst phi2.C.rhs) a then None
      else
        let w = phi1.C.lhs in
        let z = List.filter (fun (c, _) -> not (String.equal c a)) phi2.C.lhs in
        let exception Undefined in
        (try
           let merged =
             List.fold_left
               (fun acc (c, pz) ->
                 match List.assoc_opt c acc with
                 | None -> (c, pz) :: acc
                 | Some pw ->
                   (match P.meet pw pz with
                    | Some m -> (c, m) :: List.remove_assoc c acc
                    | None -> raise Undefined))
               (List.rev w) z
           in
           let cfd = C.make phi1.C.rel (List.rev merged) phi2.C.rhs in
           if C.is_trivial cfd then None else Some cfd
         with Undefined -> None)

let drop sigma a =
  let keep, involved = List.partition (fun c -> not (mentions a c)) sigma in
  let resolvents =
    List.concat_map
      (fun phi1 ->
        List.filter_map (fun phi2 -> resolvent phi1 phi2 ~on:a) involved)
      involved
  in
  let canon = List.map C.canonical (keep @ resolvents) in
  List.sort_uniq C.compare canon

(* ---------------------------------------------------------------------- *)
(* The indexed engine, natively over the pipeline IR ({!Ir.t}).  The       *)
(* working set is bucketed by RHS attribute and by LHS membership, so      *)
(* [drop a] pairs only {φ₁ : rhs(φ₁)=a} with {φ₂ : a ∈ lhs(φ₂)} instead of *)
(* all-pairs over the involved set, and the buckets (plus per-attribute    *)
(* degrees for the min-degree order) survive across elimination steps —    *)
(* and, since PR 5, across prune rounds too: the partitioned MinCover's    *)
(* result is diffed into the live buckets instead of rebuilding.           *)

module Engine = struct
  type node = { nid : int; ic : Ir.t }

  type t = {
    ctx : Ir.ctx;
    mutable by_rhs : (int, node) Hashtbl.t array; (* rhs id -> nodes by nid *)
    mutable by_lhs : (int, node) Hashtbl.t array; (* lhs id -> nodes by nid *)
    mutable degree : int array; (* live nodes mentioning the attribute *)
    live : (Ir.t, node) Hashtbl.t;
    mutable next_nid : int;
  }

  let ensure_capacity eng n =
    let cap = Array.length eng.degree in
    if n > cap then begin
      let cap' = max n (max 16 (2 * cap)) in
      let grow tbls =
        Array.init cap' (fun i ->
            if i < Array.length tbls then tbls.(i) else Hashtbl.create 4)
      in
      eng.by_rhs <- grow eng.by_rhs;
      eng.by_lhs <- grow eng.by_lhs;
      let d = Array.make cap' 0 in
      Array.blit eng.degree 0 d 0 cap;
      eng.degree <- d
    end

  let add eng ic =
    if not (Hashtbl.mem eng.live ic) then begin
      ensure_capacity eng (Cfds.Interner.size (Ir.interner eng.ctx));
      let n = { nid = eng.next_nid; ic } in
      eng.next_nid <- eng.next_nid + 1;
      Hashtbl.replace eng.live ic n;
      Hashtbl.replace eng.by_rhs.(fst ic.Ir.rhs) n.nid n;
      Array.iter
        (fun (a, _) -> Hashtbl.replace eng.by_lhs.(a) n.nid n)
        ic.Ir.lhs;
      Ir.attrs_iter ic (fun a -> eng.degree.(a) <- eng.degree.(a) + 1)
    end

  let remove eng (n : node) =
    Hashtbl.remove eng.live n.ic;
    Hashtbl.remove eng.by_rhs.(fst n.ic.Ir.rhs) n.nid;
    Array.iter (fun (a, _) -> Hashtbl.remove eng.by_lhs.(a) n.nid) n.ic.Ir.lhs;
    Ir.attrs_iter n.ic (fun a -> eng.degree.(a) <- eng.degree.(a) - 1)

  let remove_cfd eng ic =
    match Hashtbl.find_opt eng.live ic with
    | Some n -> remove eng n
    | None -> ()

  let build ctx isigma =
    Obs.incr c_builds;
    let eng =
      {
        ctx;
        by_rhs = [||];
        by_lhs = [||];
        degree = [||];
        live = Hashtbl.create 256;
        next_nid = 0;
      }
    in
    List.iter (fun ic -> add eng ic) isigma;
    eng

  let size eng = Hashtbl.length eng.live

  let degree eng a = if a < Array.length eng.degree then eng.degree.(a) else 0

  (* Drop attribute [a]: resolve producers {rhs = a} against consumers
     {a ∈ lhs}, then replace every node mentioning [a] by the resolvents.
     Buckets and degrees are patched in place. *)
  let drop_attr eng a =
    if a < Array.length eng.degree && eng.degree.(a) > 0 then begin
      let nodes tbl = Hashtbl.fold (fun _ n acc -> n :: acc) tbl [] in
      let producers = nodes eng.by_rhs.(a) in
      let consumers = nodes eng.by_lhs.(a) in
      let tracing = Obs.trace_enabled () in
      if tracing then Obs.trace_begin "rbr.drop";
      let prov = Provenance.records eng.ctx in
      let resolvents =
        List.concat_map
          (fun (p : node) ->
            List.filter_map
              (fun (c : node) ->
                match Ir.resolvent p.ic c.ic ~on:a with
                | None -> None
                | Some r ->
                  if prov then
                    Provenance.record_ir eng.ctx r
                      (Provenance.Resolvent (Ir.name eng.ctx a))
                      [ p.ic; c.ic ];
                  Some r)
              consumers)
          producers
      in
      if tracing then
        Obs.trace_end
          ~args:
            [
              ("attr", Ir.name eng.ctx a);
              ("producers", string_of_int (List.length producers));
              ("consumers", string_of_int (List.length consumers));
              ("resolvents", string_of_int (List.length resolvents));
            ]
          "rbr.drop";
      Obs.incr c_attrs_dropped;
      Obs.add c_buckets (List.length producers + List.length consumers);
      Obs.add c_resolvents (List.length resolvents);
      let involved = Hashtbl.create 16 in
      List.iter (fun (n : node) -> Hashtbl.replace involved n.nid n) producers;
      List.iter (fun (n : node) -> Hashtbl.replace involved n.nid n) consumers;
      Hashtbl.iter (fun _ n -> remove eng n) involved;
      List.iter
        (fun ic ->
          if Hashtbl.mem eng.live ic then Obs.incr c_deduped;
          add eng ic)
        resolvents
    end

  let extract_ir eng =
    Hashtbl.fold (fun ic _ acc -> ic :: acc) eng.live []
    |> List.sort Ir.compare

  let extract eng =
    Hashtbl.fold (fun ic _ acc -> Ir.to_ast eng.ctx ic :: acc) eng.live []
    |> List.sort_uniq C.compare
end

let drop_indexed sigma a =
  let ctx = Ir.create_ctx () in
  let eng = Engine.build ctx (List.map (Ir.of_ast ctx) sigma) in
  Engine.drop_attr eng (Ir.intern ctx a);
  Engine.extract eng

let reduce_ir ~ctx ?prune ?pool ?max_size ?(order = `Min_degree) isigma
    ~drop_ids =
  (* Constant-RHS CFDs shed their wildcard LHS attributes first: otherwise a
     projected-away wildcard attribute would drag an equivalent, still
     propagated CFD out of the cover. *)
  let isigma =
    List.map
      (fun ic ->
        let ic' = Ir.strip_redundant_wildcards ic in
        Provenance.alias_ir ctx ic' Provenance.Normalised ic;
        ic')
      isigma
  in
  let eng = Engine.build ctx isigma in
  (* Adaptive pruning: resolution only hurts when the working set grows, so
     the (linear, but not free) partitioned MinCover runs only once the set
     has doubled since the last prune.  The pruned set is diffed into the
     live engine — stale nodes removed, reduced ones added — so buckets and
     degrees survive the prune instead of being rebuilt from scratch. *)
  let last_pruned = ref (max 256 (List.length isigma)) in
  let prune_set () =
    match prune with
    | Some (space, chunk) when Engine.size eng > 2 * !last_pruned ->
      Obs.incr c_prunes;
      Obs.with_span s_prune (fun () ->
          let live = Engine.extract_ir eng in
          let pruned =
            Mincover.prune_partitioned_ir ?pool ctx space ~chunk live
          in
          last_pruned := max 256 (List.length pruned);
          let keep = Hashtbl.create 256 in
          List.iter (fun ic -> Hashtbl.replace keep ic ()) pruned;
          List.iter
            (fun ic ->
              if not (Hashtbl.mem keep ic) then Engine.remove_cfd eng ic)
            live;
          List.iter (fun ic -> Engine.add eng ic) pruned)
    | Some _ | None -> ()
  in
  (* Greedy min-degree elimination order: dropping the attribute with the
     fewest involved CFDs first keeps the intermediate working set small —
     the result is a cover whatever the order (Proposition 4.4).  Degrees
     are maintained incrementally by the engine; ties go to the earliest
     attribute in [remaining], as before. *)
  let pick_next remaining =
    match order, remaining with
    | `Given, a :: _ -> Some a
    | _, [] -> None
    | `Min_degree, _ ->
      List.fold_left
        (fun best a ->
          match best with
          | None -> Some a
          | Some b ->
            if Engine.degree eng a < Engine.degree eng b then Some a else best)
        None remaining
  in
  let rec go remaining =
    match pick_next remaining with
    | None -> (Engine.extract_ir eng, `Complete)
    | Some a ->
      let rest = List.filter (fun b -> b <> a) remaining in
      Engine.drop_attr eng a;
      prune_set ();
      (match max_size with
       | Some bound when Engine.size eng > bound ->
         (* Heuristic cut-off: return the sound subset already free of the
            attributes still to be dropped. *)
         let clean =
           List.filter
             (fun ic -> not (List.exists (fun b -> Ir.mentions b ic) rest))
             (Engine.extract_ir eng)
         in
         (clean, `Truncated)
       | _ -> go rest)
  in
  Obs.with_span s_reduce (fun () -> go drop_ids)

let reduce ?prune ?pool ?max_size ?(order = `Min_degree) sigma ~drop_attrs =
  let ctx = Ir.create_ctx () in
  let isigma = List.map (Ir.of_ast ctx) sigma in
  let drop_ids = List.map (Ir.intern ctx) drop_attrs in
  let prune =
    Option.map
      (fun (schema, chunk) -> (Ir.space_of_schema ctx schema, chunk))
      prune
  in
  let irs, completeness =
    reduce_ir ~ctx ?prune ?pool ?max_size ~order isigma ~drop_ids
  in
  (List.sort_uniq C.compare (List.map (Ir.to_ast ctx) irs), completeness)
