open Relational
module C = Cfds.Cfd
module P = Cfds.Pattern

(* Per-phase spans of Algorithm PropCFD_SPC (Fig. 4); [propcover.cover]
   wraps the whole run, the rest mirror the line numbers in [cover]. *)
let s_cover = Obs.histogram "propcover.cover"
let s_initial_mincover = Obs.histogram "propcover.initial_mincover"
let s_rename = Obs.histogram "propcover.rename"
let s_compute_eq = Obs.histogram "propcover.compute_eq"
let s_substitute = Obs.histogram "propcover.substitute"
let s_rbr = Obs.histogram "propcover.rbr"
let s_eq2cfd = Obs.histogram "propcover.eq2cfd"
let s_final_mincover = Obs.histogram "propcover.final_mincover"
let c_covers = Obs.counter "propcover.covers_computed"
let c_cover_size = Obs.counter "propcover.cover_cfds"

type options = {
  prune_chunk : int option;
  max_intermediate : int option;
  skip_initial_mincover : bool;
  rbr_order : [ `Min_degree | `Given ];
  pool : Parallel.Pool.t option;
  memo : (Memo.t * string) option;
}

(* The paper's own implementation partitions the working set and minimises
   each chunk (Section 4.3); 64 keeps the pruning cost linear in |Γ|. *)
let default_options =
  {
    prune_chunk = Some 64;
    max_intermediate = None;
    skip_initial_mincover = false;
    rbr_order = `Min_degree;
    pool = None;
    memo = None;
  }

type result = {
  cover : C.t list;
  complete : bool;
  always_empty : bool;
}

(* Lines 5-6: push the source CFDs through the renaming ρ_j of each view
   atom, onto the interned body-attribute namespace. *)
let rename_sources_ir ctx (v : Spc.t) isigma =
  let prov = Provenance.records ctx in
  List.concat_map
    (fun (a : Spc.atom) ->
      let base = Schema.find v.Spc.source a.Spc.base in
      let map = Hashtbl.create 16 in
      List.iter2
        (fun orig renamed ->
          Hashtbl.replace map
            (Ir.intern ctx (Attribute.name orig))
            (Ir.intern ctx (Attribute.name renamed)))
        (Schema.attributes base) a.Spc.attrs;
      let rn i = Option.value ~default:i (Hashtbl.find_opt map i) in
      isigma
      |> List.filter (fun ic -> String.equal ic.Ir.rel a.Spc.base)
      |> List.filter_map (fun ic ->
             match Ir.rename ic rn with
             | None -> None
             | Some ic' ->
               let ic' = Ir.with_rel ic' v.Spc.name in
               if prov then
                 Provenance.record_ir ctx ic'
                   (Provenance.Renamed ("view atom " ^ a.Spc.base))
                   [ ic ];
               Some ic'))
    v.Spc.atoms

(* The cover of Lemma 4.5: two conflicting constant CFDs on some view
   attribute, from which every view CFD follows because the view is empty. *)
let empty_view_cover (v : Spc.t) =
  let schema = Spc.view_schema v in
  let pick attr =
    let d = Attribute.domain attr in
    if Domain.is_finite d then
      match Domain.members d with
      | a :: b :: _ -> Some (a, b)
      | _ -> None
    else
      match Domain.fresh_constants d 2 ~avoid:[] with
      | [ a; b ] -> Some (a, b)
      | _ -> None
  in
  let rec find = function
    | [] ->
      invalid_arg "Propcover: no view attribute admits two distinct values"
    | attr :: rest ->
      (match pick attr with
       | Some (a, b) ->
         let n = Attribute.name attr in
         [ C.const_binding v.Spc.name n a; C.const_binding v.Spc.name n b ]
       | None -> find rest)
  in
  find (Schema.attributes schema)

(* Rewrite an empty-LHS constant CFD (∅ → A, (‖ a)), produced internally
   for keyed classes, into the paper's (A → A, (_ ‖ a)) form. *)
let normalise_const_form_ir ic =
  if Array.length ic.Ir.lhs = 0 then
    match ic.Ir.rhs with
    | a, P.Const v -> Ir.const_binding ic.Ir.rel a v
    | _ -> ic
  else ic

(* Every attribute name the run can touch is interned up front in
   (schema, view)-declaration order, before Σ is seen.  The interner's id
   assignment — and with it every id-order tie-break in
   MinCover/ComputeEQ/RBR — then depends only on the (schema, view) pair,
   not on Σ or its order: two runs on different Σ make identical pipeline
   decisions on identical name-level inputs.  This is what lets
   slice-cache entries be reused across epochs and views. *)
let intern_universe ctx (v : Spc.t) =
  List.iter
    (fun rel ->
      List.iter
        (fun a -> ignore (Ir.intern ctx (Attribute.name a)))
        (Schema.attributes rel))
    (Schema.relations v.Spc.source);
  List.iter
    (fun (a : Spc.atom) ->
      List.iter
        (fun at -> ignore (Ir.intern ctx (Attribute.name at)))
        a.Spc.attrs)
    v.Spc.atoms;
  List.iter
    (fun (a, _) -> ignore (Ir.intern ctx (Attribute.name a)))
    v.Spc.constants;
  List.iter (fun y -> ignore (Ir.intern ctx y)) v.Spc.projection

(* Everything a cached cover depends on besides Σ: the view definition
   (atoms, selection, constants, projection) and every option that can
   change the computed cover's bytes.  The pool is deliberately absent —
   [Pool.map] is order-preserving, so domain count never changes results. *)
let instance_digest options (v : Spc.t) =
  let b = Buffer.create 256 in
  Buffer.add_string b (Memo.schema_string v.Spc.source);
  Buffer.add_char b '\x1e';
  Buffer.add_string b v.Spc.name;
  List.iter
    (fun (a : Spc.atom) ->
      Buffer.add_char b '\x1e';
      Buffer.add_string b a.Spc.base;
      List.iter
        (fun at ->
          Buffer.add_char b '\x1f';
          Buffer.add_string b (Attribute.name at))
        a.Spc.attrs)
    v.Spc.atoms;
  Buffer.add_char b '\x1e';
  List.iter
    (fun sel ->
      (match sel with
       | Spc.Sel_eq (a, c) ->
         Buffer.add_string b a;
         Buffer.add_char b '=';
         Buffer.add_string b c
       | Spc.Sel_const (a, value) ->
         Buffer.add_string b a;
         Buffer.add_string b "='";
         Buffer.add_string b (Value.to_string value));
      Buffer.add_char b '\x1f')
    v.Spc.selection;
  Buffer.add_char b '\x1e';
  List.iter
    (fun (a, value) ->
      Buffer.add_string b (Attribute.name a);
      Buffer.add_char b '=';
      Buffer.add_string b (Value.to_string value);
      Buffer.add_char b '\x1f')
    v.Spc.constants;
  Buffer.add_char b '\x1e';
  List.iter
    (fun y ->
      Buffer.add_string b y;
      Buffer.add_char b '\x1f')
    v.Spc.projection;
  Buffer.add_string b
    (Printf.sprintf "\x1e%s;%s;%b;%s"
       (match options.prune_chunk with None -> "-" | Some n -> string_of_int n)
       (match options.max_intermediate with
        | None -> "-"
        | Some n -> string_of_int n)
       options.skip_initial_mincover
       (match options.rbr_order with `Min_degree -> "D" | `Given -> "G"));
  Memo.digest_string (Buffer.contents b)

(* The pipeline interior runs entirely on the IR: one context per [cover]
   call interns every attribute name touched (source, renamed, view), the
   AST is converted exactly once per relevant input CFD on the way in and
   once per cover member on the way out — the [ir.of_ast]/[ir.to_ast]
   counters pin this down in the test suite.  The context carries the
   run's provenance recorder, if any, to every record site. *)
let compute_cover ?provenance options (v : Spc.t) sigma =
  let ctx = Ir.create_ctx ?recorder:provenance () in
  intern_universe ctx v;
  (* Relevance: lines 5-6 keep only the CFDs of relations some atom reads,
     and line 1 minimises each relation on its own, so the CFDs of every
     other relation can never reach the cover.  Dropping them before the
     entry edge cannot move a byte of it: [intern_universe] has already
     fixed every id. *)
  let bases = Spc.bases v in
  let sigma = List.filter (fun c -> List.mem c.C.rel bases) sigma in
  (* The entry edge. *)
  let isigma = List.map (Ir.of_ast ctx) sigma in
  (* The relevant Σ are the leaves every derivation must bottom out in. *)
  Provenance.record_axioms_ir ctx isigma;
  let y = v.Spc.projection in
  let view_schema = Spc.view_schema v in
  let isigma =
    if options.skip_initial_mincover then isigma
    else
      (* Line 1: Σ := MinCover(Σ), one independent slice per relation. *)
      Obs.with_span s_initial_mincover (fun () ->
          Mincover.minimal_cover_db_ir ?memo:options.memo ctx v.Spc.source
            isigma)
  in
  (* Lines 5-6 first (the renamed CFDs feed ComputeEQ's closure). *)
  let sigma_v =
    Obs.with_span s_rename (fun () -> rename_sources_ir ctx v isigma)
  in
  (* Line 2: EQ := ComputeEQ. *)
  let body = Spc.body_attrs v in
  let body_ids = List.map (fun a -> Ir.intern ctx (Attribute.name a)) body in
  match
    Obs.with_span s_compute_eq (fun () ->
        Compute_eq.compute ctx ~body:body_ids ~selection:v.Spc.selection
          ~sigma:sigma_v)
  with
  | Compute_eq.Bottom ->
    { cover = empty_view_cover v; complete = true; always_empty = true }
  | Compute_eq.Classes classes ->
    let y_ids = List.map (Ir.intern ctx) y in
    let in_y id = List.mem id y_ids in
    (* Lines 7-10: representative substitution; keep Y members as reps. *)
    let rep_of, sigma_v =
      Obs.with_span s_substitute @@ fun () ->
        (* Representatives by id, every id interned so far; the first
           binding wins, as with [List.assoc], so the bindings are written
           last to first. *)
        let reps = Array.init (Cfds.Interner.size (Ir.interner ctx)) Fun.id in
        List.iter
          (fun (a, r) -> reps.(a) <- r)
          (List.rev (Compute_eq.representatives classes ~prefer:in_y));
        let rep_of a = reps.(a) in
        (* The substitution is justified by the classes that merged each
           renamed attribute with its representative — their contributors are
           extra provenance parents beside the CFD itself. *)
        let prov = Provenance.records ctx in
        let sigma_v =
          List.filter_map
            (fun ic ->
              match Ir.rename ic rep_of with
              | None -> None
              | Some ic' ->
                if prov then begin
                  let deps =
                    Ir.attrs ic
                    |> List.filter (fun a -> rep_of a <> a)
                    |> List.concat_map (fun a ->
                           match Compute_eq.class_of classes a with
                           | Some cl -> cl.Compute_eq.contribs
                           | None -> [])
                  in
                  Provenance.record_ir ctx ic' (Provenance.Renamed "representative")
                    (ic :: deps)
                end;
                Some ic')
            sigma_v
        in
        (* Key CFDs (∅ → rep, (‖ key)) let RBR resolve away keyed attributes
           that are not projected (Lemma 4.3 / domain constraints as CFDs). *)
        let key_cfds =
          List.filter_map
            (fun (cl : Compute_eq.eq_class) ->
              match cl.Compute_eq.key with
              | Some value ->
                let kc =
                  Ir.make v.Spc.name []
                    (rep_of (List.hd cl.Compute_eq.attrs), P.Const value)
                in
                if prov then
                  Provenance.record_ir ctx kc Provenance.Eq_class
                    cl.Compute_eq.contribs;
                Some kc
              | None -> None)
            classes
        in
        (rep_of, List.sort_uniq Ir.compare (key_cfds @ sigma_v))
    in
    (* Line 11: RBR over the non-projected representative attributes. *)
    let body_reps = List.sort_uniq Int.compare (List.map rep_of body_ids) in
    let drop_ids = List.filter (fun a -> not (in_y a)) body_reps in
    (* Every CFD entering RBR mentions only body representatives, so one
       space over them frames the partitioned prune's compilations. *)
    let prune =
      Option.map
        (fun chunk -> (Ir.space ctx body_reps, chunk))
        options.prune_chunk
    in
    let sigma_c, completeness =
      Obs.with_span s_rbr (fun () ->
          Rbr.reduce_ir ~ctx ?prune ?pool:options.pool
            ?max_size:options.max_intermediate ~order:options.rbr_order
            sigma_v ~drop_ids)
    in
    (* Line 12: Σd := EQ2CFD(EQ) plus the Rc constants. *)
    let sigma_d =
      Obs.with_span s_eq2cfd (fun () ->
          Compute_eq.to_cfds ctx ~view:v.Spc.name ~y:in_y classes)
    in
    let rc_cfds =
      List.map
        (fun (a, value) ->
          let c =
            Ir.const_binding v.Spc.name
              (Ir.intern ctx (Attribute.name a))
              value
          in
          Provenance.record_ir ctx c Provenance.Rc_constant [];
          c)
        v.Spc.constants
    in
    (* Line 13: a minimal cover of everything, over the view schema. *)
    let all =
      List.map
        (fun c ->
          let c' = normalise_const_form_ir c in
          Provenance.alias_ir ctx c' Provenance.Normalised c;
          c')
        (sigma_c @ sigma_d @ rc_cfds)
    in
    let vspace = Ir.space_of_schema ctx view_schema in
    let cover_ir =
      Obs.with_span s_final_mincover (fun () ->
          Mincover.minimal_cover_ir ctx vspace all)
    in
    (* The exit edge. *)
    let cover = List.sort C.compare (List.map (Ir.to_ast ctx) cover_ir) in
    Obs.add c_cover_size (List.length cover);
    {
      cover;
      complete = (match completeness with `Complete -> true | `Truncated -> false);
      always_empty = false;
    }

let cover ?(options = default_options) ?provenance (v : Spc.t) sigma =
  Obs.with_span s_cover @@ fun () ->
  Obs.incr c_covers;
  List.iter
    (fun c ->
      if not (Schema.mem v.Spc.source c.C.rel) then
        invalid_arg
          (Printf.sprintf "Propcover: CFD on unknown source relation %s" c.C.rel))
    sigma;
  (* The one bypass rule: a recording run's derivations must bottom out
     in its own MinCover steps, so it never reuses a cached slice. *)
  let options =
    match provenance with
    | Some _ -> { options with memo = None }
    | None -> options
  in
  compute_cover ?provenance options v sigma

let is_propagated_via_cover v sigma phi =
  let r = cover v sigma in
  Implication.implies (Spc.view_schema v) r.cover phi

(* Condition a branch-cover CFD on the branch's constant columns: within
   the branch those columns are fixed, on the union the condition must be
   spelled out. *)
let condition_on_constants (b : Spc.t) phi =
  if C.is_attr_eq phi then None
  else
    let extra =
      List.filter_map
        (fun (a, value) ->
          let n = Attribute.name a in
          if List.mem_assoc n phi.C.lhs || String.equal n (fst phi.C.rhs) then
            None
          else Some (n, P.Const value))
        b.Spc.constants
    in
    if extra = [] then None
    else Some (C.make phi.C.rel (extra @ phi.C.lhs) phi.C.rhs)

let cover_spcu ?(options = default_options) (view : Spcu.t) sigma =
  let branch_results =
    List.map (fun b -> (b, cover ~options b sigma)) view.Spcu.branches
  in
  if List.for_all (fun (_, r) -> r.always_empty) branch_results then
    (* Every branch is empty: the union is, too. *)
    {
      cover = empty_view_cover (List.hd view.Spcu.branches);
      complete = true;
      always_empty = true;
    }
  else begin
    let candidates =
      List.concat_map
        (fun ((b : Spc.t), r) ->
          if r.always_empty then []
          else
            r.cover
            @ List.filter_map (condition_on_constants b) r.cover)
        branch_results
    in
    let candidates = List.sort_uniq C.compare (List.map C.canonical candidates) in
    let certified =
      List.filter
        (fun phi ->
          match Propagate.decide_spcu view ~sigma phi with
          | Propagate.Propagated -> true
          | Propagate.Not_propagated _ | Propagate.Budget_exceeded -> false)
        candidates
    in
    let schema = Spcu.view_schema view in
    {
      cover = Mincover.minimal_cover schema certified;
      complete = List.for_all (fun (_, r) -> r.complete) branch_results;
      always_empty = false;
    }
  end
