module C = Cfds.Cfd
module P = Cfds.Pattern

(* Observability (no-op unless its channel records). *)
let c_attrs_dropped = Obs.counter "rbr.attrs_dropped"
let c_resolvents = Obs.counter "rbr.resolvents_generated"
let c_deduped = Obs.counter "rbr.resolvents_deduped"
let c_buckets = Obs.counter "rbr.bucket_nodes_touched"
let c_pairs = Obs.counter "rbr.pairs_tested"
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
(* The indexed engine, natively over the pipeline IR ({!Ir.t}): rows by    *)
(* node id, int-vector buckets with lazy deletion, and a join on the       *)
(* pattern at the dropped attribute.  The header of rbr.mli describes the  *)
(* layout and its invariants.                                              *)

module Engine = struct
  (* A growable vector of node ids, ascending. *)
  type ids = { mutable ids : int array; mutable len : int }

  module Tbl = Hashtbl.Make (Ir)

  type t = {
    ctx : Ir.ctx;
    mutable rows : Ir.t array; (* node id -> row, [dead] once removed *)
    mutable next_nid : int;
    mutable by_rhs : ids array; (* attribute -> ids of rows with that rhs *)
    mutable by_lhs : ids array; (* attribute -> ids of rows with it in lhs *)
    mutable degree : int array; (* live rows mentioning the attribute *)
    live : int Tbl.t; (* live row -> its node id *)
  }

  let dead = Ir.make "" [] (-1, P.Wild)
  let is_alive eng id = eng.rows.(id) != dead

  (* Append [id].  A full vector first squeezes out its dead ids and grows
     only if fewer than half were dead, so the vectors of attributes that
     are never dropped stay within twice their live entries. *)
  let push eng v id =
    if v.len = Array.length v.ids then begin
      let k = ref 0 in
      for i = 0 to v.len - 1 do
        if is_alive eng v.ids.(i) then begin
          v.ids.(!k) <- v.ids.(i);
          incr k
        end
      done;
      v.len <- !k;
      if 2 * v.len >= Array.length v.ids then begin
        let ids = Array.make (max 8 (2 * v.len)) 0 in
        Array.blit v.ids 0 ids 0 v.len;
        v.ids <- ids
      end
    end;
    v.ids.(v.len) <- id;
    v.len <- v.len + 1

  let ensure_capacity eng n =
    let cap = Array.length eng.degree in
    if n > cap then begin
      let cap' = max n (max 16 (2 * cap)) in
      let grow vs =
        Array.init cap' (fun i ->
            if i < cap then vs.(i) else { ids = [||]; len = 0 })
      in
      eng.by_rhs <- grow eng.by_rhs;
      eng.by_lhs <- grow eng.by_lhs;
      let d = Array.make cap' 0 in
      Array.blit eng.degree 0 d 0 cap;
      eng.degree <- d
    end

  let bump_degrees eng ic step =
    Ir.attrs_iter ic (fun a -> eng.degree.(a) <- eng.degree.(a) + step)

  (* [add eng ic] is [false] when [ic] is already live. *)
  let add eng ic =
    if Tbl.mem eng.live ic then false
    else begin
      ensure_capacity eng (Cfds.Interner.size (Ir.interner eng.ctx));
      let id = eng.next_nid in
      eng.next_nid <- id + 1;
      if id = Array.length eng.rows then begin
        let rows = Array.make (max 64 (2 * id)) dead in
        Array.blit eng.rows 0 rows 0 id;
        eng.rows <- rows
      end;
      eng.rows.(id) <- ic;
      Tbl.add eng.live ic id;
      push eng eng.by_rhs.(fst ic.Ir.rhs) id;
      Array.iter (fun (a, _) -> push eng eng.by_lhs.(a) id) ic.Ir.lhs;
      bump_degrees eng ic 1;
      true
    end

  let remove eng id =
    if is_alive eng id then begin
      let ic = eng.rows.(id) in
      eng.rows.(id) <- dead;
      Tbl.remove eng.live ic;
      bump_degrees eng ic (-1)
    end

  let remove_cfd eng ic =
    match Tbl.find_opt eng.live ic with
    | Some id -> remove eng id
    | None -> ()

  let build ctx isigma =
    Obs.incr c_builds;
    let eng =
      {
        ctx;
        rows = [||];
        next_nid = 0;
        by_rhs = [||];
        by_lhs = [||];
        degree = [||];
        live = Tbl.create 256;
      }
    in
    List.iter (fun ic -> ignore (add eng ic)) isigma;
    eng

  let size eng = Tbl.length eng.live

  let degree eng a = if a < Array.length eng.degree then eng.degree.(a) else 0

  (* Drop attribute [a]: resolve producers {rhs = a} against consumers
     {a ∈ lhs}, then replace every row mentioning [a] by the resolvents.

     The join.  [P.leq] admits a producer whose RHS pattern is [_] only
     against consumers with [_] at [a], and one whose RHS is the constant
     [c] against consumers with [_] or [c] there; attr-eq rows never
     resolve.  So the live consumers are split into [wilds] and [consts],
     the latter sorted (stably, from ascending id) into runs by constant,
     and each producer visits [wilds], merged by id with its constant's
     run.  Producers are visited in ascending id too.  Ascending id is
     insertion order, and it fixes the order in which resolvents are
     found, so it fixes which pair a repeated resolvent's provenance cites
     (the first derivation wins). *)
  let drop_attr eng a =
    if a < Array.length eng.degree && eng.degree.(a) > 0 then begin
      let producers = eng.by_rhs.(a) and consumers = eng.by_lhs.(a) in
      let n_producers = ref 0 and n_consumers = ref 0 in
      for i = 0 to producers.len - 1 do
        if is_alive eng producers.ids.(i) then incr n_producers
      done;
      let wilds = ref [] and consts = ref [] in
      for i = consumers.len - 1 downto 0 do
        let id = consumers.ids.(i) in
        if is_alive eng id then begin
          incr n_consumers;
          match Ir.lhs_pattern eng.rows.(id) a with
          | Some P.Wild -> wilds := id :: !wilds
          | Some (P.Const v) -> consts := (v, id) :: !consts
          | Some P.Svar | None -> () (* attr-eq *)
        end
      done;
      let wilds = Array.of_list !wilds and consts = Array.of_list !consts in
      Array.stable_sort (fun (u, _) (v, _) -> Relational.Value.compare u v) consts;
      (* The first index in [lo, hi) whose constant is above [v] ([strict])
         or not below it. *)
      let rec bound v ~strict lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          let c = Relational.Value.compare (fst consts.(mid)) v in
          if c > 0 || (c = 0 && not strict) then bound v ~strict lo mid
          else bound v ~strict (mid + 1) hi
      in
      let tracing = Obs.trace_enabled () in
      if tracing then Obs.trace_begin "rbr.drop";
      let rule =
        if Provenance.records eng.ctx then
          Some (Provenance.Resolvent (Ir.name eng.ctx a))
        else None
      in
      let found = ref [] and pairs = ref 0 in
      let test pic c =
        incr pairs;
        let cic = eng.rows.(c) in
        match Ir.resolvent pic cic ~on:a with
        | None -> ()
        | Some r ->
          (match rule with
           | Some rule -> Provenance.record_ir eng.ctx r rule [ pic; cic ]
           | None -> ());
          found := r :: !found
      in
      (* The producer against [wilds] merged with [consts.(lo .. hi-1)]. *)
      let n_wilds = Array.length wilds in
      let visit pic lo hi =
        let w = ref 0 and k = ref lo in
        while !w < n_wilds || !k < hi do
          if !k >= hi || (!w < n_wilds && wilds.(!w) < snd consts.(!k)) then begin
            test pic wilds.(!w);
            incr w
          end
          else begin
            test pic (snd consts.(!k));
            incr k
          end
        done
      in
      let n_consts = Array.length consts in
      for i = 0 to producers.len - 1 do
        let pic = eng.rows.(producers.ids.(i)) in
        if pic != dead then
          match snd pic.Ir.rhs with
          | P.Wild -> visit pic 0 0
          | P.Const v ->
            let lo = bound v ~strict:false 0 n_consts in
            visit pic lo (bound v ~strict:true lo n_consts)
          | P.Svar -> () (* attr-eq *)
      done;
      let resolvents = List.rev !found in
      let n_resolvents = List.length resolvents in
      if tracing then
        Obs.trace_end
          ~args:
            [
              ("attr", Ir.name eng.ctx a);
              ("producers", string_of_int !n_producers);
              ("consumers", string_of_int !n_consumers);
              ("resolvents", string_of_int n_resolvents);
            ]
          "rbr.drop";
      Obs.incr c_attrs_dropped;
      Obs.add c_buckets (!n_producers + !n_consumers);
      Obs.add c_pairs !pairs;
      Obs.add c_resolvents n_resolvents;
      for i = 0 to producers.len - 1 do
        remove eng producers.ids.(i)
      done;
      for i = 0 to consumers.len - 1 do
        remove eng consumers.ids.(i)
      done;
      (* No row mentions [a] any more, and no resolvent does: [a]'s buckets
         are never read again. *)
      eng.by_rhs.(a) <- { ids = [||]; len = 0 };
      eng.by_lhs.(a) <- { ids = [||]; len = 0 };
      List.iter
        (fun ic -> if not (add eng ic) then Obs.incr c_deduped)
        resolvents
    end

  let extract_ir eng =
    Tbl.fold (fun ic _ acc -> ic :: acc) eng.live [] |> List.sort Ir.compare

  let extract eng =
    Tbl.fold (fun ic _ acc -> Ir.to_ast eng.ctx ic :: acc) eng.live []
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
          let keep = Engine.Tbl.create 256 in
          List.iter (fun ic -> Engine.Tbl.replace keep ic ()) pruned;
          List.iter
            (fun ic ->
              if not (Engine.Tbl.mem keep ic) then Engine.remove_cfd eng ic)
            live;
          List.iter (fun ic -> ignore (Engine.add eng ic)) pruned)
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
