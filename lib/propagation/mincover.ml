open Relational
module C = Cfds.Cfd

let c_tested = Obs.counter "mincover.candidates_tested"
let c_removed = Obs.counter "mincover.cfds_removed"
let c_lhs_removed = Obs.counter "mincover.lhs_attrs_removed"
let s_cover = Obs.histogram "mincover.minimal_cover"

(* MinCover in three steps over interned CFDs, with {e one}
   [Fast_impl.compile_ir] per call: normalise (strip redundant wildcards,
   drop trivial CFDs, dedupe); reduce each LHS, patching accepted shrinks
   into the compiled rule set in place ([set_rule_ir] — each replacement is
   equivalence-preserving, so later candidates testing against the
   partially-updated set stay correct); then drop every CFD the others
   imply, reusing the same rules through a leave-one-out mask.  No
   relation re-homing: the interior pipeline keeps one uniform relation
   per call site.  Runs on pool workers during the partitioned prune — it
   never interns (all ids pre-exist in [space]), so the context is
   read-only here. *)

let reduce_lhs_ir ctx space compiled rules i iphi =
  if Ir.is_attr_eq iphi then iphi
  else
    (* A reduction step is justified not by [iphi] alone but by the other
       CFDs that imply the smaller one — provenance must cite them, so
       each accepted shrink records the chase's fired-rule witness. *)
    let track = Provenance.records ctx in
    let rec go iphi tried =
      let candidate =
        Array.find_opt (fun (a, _) -> not (List.mem a tried)) iphi.Ir.lhs
      in
      match candidate with
      | None -> iphi
      | Some (a, _) ->
        let smaller = Ir.drop_lhs iphi a in
        Obs.incr c_tested;
        let fired =
          if track then Some (Bytes.make (Fast_impl.num_rules compiled) '\000')
          else None
        in
        if Fast_impl.implies_ir ?fired space compiled smaller then begin
          Obs.incr c_lhs_removed;
          (match fired with
           | Some b ->
             let parents = ref [] in
             Bytes.iteri
               (fun j ch ->
                 if ch = '\001' && j <> i then parents := rules.(j) :: !parents)
               b;
             Provenance.record_ir ctx smaller Provenance.Lhs_reduced
               (iphi :: List.rev !parents)
           | None -> ());
          go smaller tried
        end
        else go iphi (a :: tried)
    in
    go iphi []

let minimal_cover_ir ctx space isigma =
  Obs.with_span s_cover @@ fun () ->
  let isigma =
    List.map
      (fun ic ->
        let ic' = Ir.strip_redundant_wildcards ic in
        Provenance.alias_ir ctx ic' Provenance.Normalised ic;
        ic')
      isigma
  in
  let isigma = List.filter (fun ic -> not (Ir.is_trivial ic)) isigma in
  let isigma = List.sort_uniq Ir.compare isigma in
  let arr = Array.of_list isigma in
  let compiled = Fast_impl.compile_ir space isigma in
  (* LHS reduction against the evolving (equivalent) rule set. *)
  Array.iteri
    (fun i iphi ->
      let reduced = reduce_lhs_ir ctx space compiled arr i iphi in
      if not (Ir.equal reduced iphi) then begin
        arr.(i) <- reduced;
        Fast_impl.set_rule_ir compiled space i reduced
      end)
    arr;
  (* Leave-one-out redundancy over the same compiled rules.  Reduction can
     collapse two rules onto the same CFD; the mask handles that without a
     dedup pass — testing the first copy finds the (still enabled) second
     implies it, so at most one survives.  Candidates go in sorted order
     for determinism. *)
  let order = Array.init (Array.length arr) Fun.id in
  Array.sort (fun i j -> Ir.compare arr.(i) arr.(j)) order;
  let mask = Fast_impl.full_mask compiled in
  let redundant = Array.make (Array.length arr) false in
  Array.iter
    (fun i ->
      Fast_impl.mask_clear mask i;
      Obs.incr c_tested;
      if Fast_impl.implies_ir ~mask space compiled arr.(i) then begin
        Obs.incr c_removed;
        redundant.(i) <- true
      end
      else Fast_impl.mask_set mask i)
    order;
  let out = ref [] in
  Array.iteri (fun i phi -> if not redundant.(i) then out := phi :: !out) arr;
  List.sort_uniq Ir.compare !out

(* The AST entry point.  The schema's names are interned in
   [String.compare] order, so every id-order tie-break above follows the
   names, as [Cfds.Cfd.compare] does, not the declaration order. *)
let minimal_cover schema sigma =
  let ctx = Ir.create_ctx () in
  List.iter
    (fun a -> ignore (Ir.intern ctx a))
    (List.sort String.compare (Schema.attribute_names schema));
  let rel = Schema.relation_name schema in
  minimal_cover_ir ctx
    (Ir.space_of_schema ctx schema)
    (List.map (fun c -> Ir.of_ast ctx (C.with_rel c rel)) sigma)
  |> List.map (Ir.to_ast ctx)
  |> List.sort C.compare

(* The Σ_R half of a slice key, digested at the IR level through
   [Ir.name] (no [ir.to_ast] edge): the serialisation matches
   [Memo.digest_cfds] over the canonical ASTs byte for byte. *)
let slice_digest_ir ctx g =
  let b = Buffer.create 1024 in
  List.iter
    (fun ic ->
      let lhs =
        Array.to_list ic.Ir.lhs
        |> List.map (fun (i, sym) -> (Ir.name ctx i, sym))
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      let ra, rsym = ic.Ir.rhs in
      Memo.buf_cfd b ic.Ir.rel lhs (Ir.name ctx ra, rsym);
      Buffer.add_char b '\x1e')
    g;
  Memo.digest_string (Buffer.contents b)

let minimal_cover_db_ir ?memo ctx db isigma =
  let groups = Hashtbl.create 8 in
  List.iter
    (fun ic ->
      let g = Option.value ~default:[] (Hashtbl.find_opt groups ic.Ir.rel) in
      Hashtbl.replace groups ic.Ir.rel (ic :: g))
    isigma;
  (* One slice per source relation.  With a memo, the per-relation result
     is cached as ASTs under the caller's namespace (which digests the
     schema) plus a digest of the relation's own Σ_R: a
     fleet view re-interns the shared slice instead of re-minimising it,
     and a resident session whose Σ-delta left Σ_R untouched hits across
     epochs.  Re-interning a cached slice in a fresh context reproduces
     the direct computation exactly — the slice CFDs' attribute ids were
     all fixed by the interning pass that precedes line 1. *)
  let cover_group rel g =
    let direct () =
      minimal_cover_ir ctx (Ir.space_of_schema ctx rel) g
    in
    match memo with
    | None -> direct ()
    | Some (m, ns) ->
      let key =
        "slice:" ^ ns ^ ":" ^ Schema.relation_name rel ^ ":"
        ^ slice_digest_ir ctx g
      in
      (match Memo.find m key with
       | Some (Memo.Cfds asts) -> List.map (Ir.of_ast ctx) asts
       | Some _ | None ->
         let cover = direct () in
         Memo.add m key (Memo.Cfds (List.map (Ir.to_ast ctx) cover));
         cover)
  in
  Schema.relations db
  |> List.concat_map (fun rel ->
         match Hashtbl.find_opt groups (Schema.relation_name rel) with
         | Some g -> cover_group rel (List.rev g)
         | None -> [])

let split_chunks ~chunk sigma =
  let rec split acc current n = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | c :: rest ->
      if n = chunk then split (List.rev current :: acc) [ c ] 1 rest
      else split acc (c :: current) (n + 1) rest
  in
  split [] [] 0 sigma

let prune_partitioned_ir ?pool ctx space ~chunk isigma =
  if chunk <= 0 then invalid_arg "Mincover.prune_partitioned_ir: chunk <= 0";
  let chunks = split_chunks ~chunk isigma in
  List.concat (Parallel.Pool.map ?pool (minimal_cover_ir ctx space) chunks)
