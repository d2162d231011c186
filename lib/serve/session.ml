open Relational
module C = Cfds.Cfd
module Propcover = Propagation.Propcover
module Fast_impl = Propagation.Fast_impl
module Memo = Propagation.Memo
module Provenance = Propagation.Provenance

let c_patches = Obs.counter "serve.delta_patches"
let c_fallbacks = Obs.counter "serve.fallbacks"
let c_queries = Obs.counter "serve.queries"
let c_replica_reads = Obs.counter "serve.replica_reads"
let c_epoch_swaps = Obs.counter "serve.epoch_swaps"
let s_recompute = Obs.histogram "serve.recompute"
let s_delta = Obs.histogram "serve.delta"
let h_delta_noop = Obs.histogram "serve.delta_us.noop"
let h_delta_patched = Obs.histogram "serve.delta_us.patched"
let h_delta_recomputed = Obs.histogram "serve.delta_us.recomputed"

type plan = Noop | Patched | Recomputed

type delta_report = {
  plan : plan;
  epoch : int;
  cover_size : int;
  changed : bool;
  added : C.t list;
  removed : C.t list;
  stale : C.t list option;
}

type explanation = {
  propagated : bool;
  vacuous : bool;
  used : C.t list;
  sources : (C.t * C.t list) list;
  epoch : int;
}

type stats = {
  queries : int;
  patches : int;
  fallbacks : int;
  recomputes : int;
  noops : int;
  epoch : int;
  replicas : int;
}

(* One query replica: a compiled engine behind its own mutex.  A
   [Fast_impl.compiled] owns mutable chase scratch and must be confined
   to one domain at a time; N slots let N domains chase concurrently
   against the same snapshot's cover. *)
type slot = { slot_lock : Mutex.t; slot_compiled : Fast_impl.compiled }

(* Everything a reader needs, frozen at one epoch.  A snapshot is
   immutable after construction (the [slot_compiled] scratch mutates
   under [slot_lock], but never in a way observable through [implies];
   [snap_attribution] is a monotone lazy cell) — so a single [Atomic.get]
   yields a coherent (epoch, Σ, cover, digest, slices, engines) tuple and
   readers can never observe a torn or mixed-epoch state. *)
type snapshot = {
  snap_epoch : int;
  snap_sigma : C.t list;
  snap_result : Propcover.result;
  snap_cover_digest : string;
  snap_slices : (string * C.t list) list;
      (* per atom-base relation: the line-1 slice output of this Σ, in
         normalize_sigma form — the old side of Tier-B checks *)
  snap_slots : slot array;
  snap_attribution : (C.t * C.t list) list option Atomic.t;
}

type t = {
  name : string;
  view : Spc.t;
  memo : Memo.t;
  ns : string;
  vdigest : string;  (* Propcover.instance_digest of (options, view) *)
  options : Propcover.options;
  atom_bases : string list;
  replicas : int;
  rr : int Atomic.t;  (* round-robin cursor over the slots *)
  slot_reads : int Atomic.t array;  (* per-replica engine acquisitions *)
  snap : snapshot Atomic.t;
  writer : Mutex.t;  (* serialises deltas; readers never take it *)
  is_closed : bool Atomic.t;
  st_queries : int Atomic.t;
  st_patches : int Atomic.t;
  st_fallbacks : int Atomic.t;
  st_noops : int Atomic.t;
}

let normalize_sigma l = List.sort_uniq C.compare (List.map C.canonical l)

let cfds_equal a b =
  List.length a = List.length b && List.for_all2 C.equal a b

let namespace db = Memo.digest_string (Memo.schema_string db)

(* The current line-1 slice of one relation, by line 1's own procedure
   under line 1's memo key: a session recompute has usually filed it
   already, and a miss (e.g. the full-result cache short-circuited line 1)
   computes and files it, so a Tier-C recompute that follows reuses it. *)
let compute_slice ~memo ~ns view sigma rel =
  normalize_sigma (Propcover.slice ~memo:(memo, ns) view rel sigma)

let refresh_slices ~memo ~ns view atom_bases sigma =
  List.map (fun rel -> (rel, compute_slice ~memo ~ns view sigma rel)) atom_bases

let name t = t.name
let view t = t.view

let fresh_options t = { t.options with Propcover.memo = None }

(* The full-result cache.  The cover is a deterministic function of
   (view, options, Σ), so a key over all three is byte-identical on a
   hit; Σ round trips (add then remove of one CFD) land here.  Both the
   initial cover and every Tier-C recompute go through it. *)
let full_cover ~memo ~ns ~vdigest ~options view sigma =
  let compute () = Propcover.cover ~options view sigma in
  let key = "tail:" ^ ns ^ ":" ^ vdigest ^ ":" ^ Memo.digest_cfds sigma in
  Obs.with_span s_recompute @@ fun () ->
  match
    Memo.find_or_compute memo key (fun () ->
        let r = compute () in
        Memo.Cover
          {
            cover = r.Propcover.cover;
            complete = r.Propcover.complete;
            always_empty = r.Propcover.always_empty;
          })
  with
  | Memo.Cover { cover; complete; always_empty }, _ ->
    { Propcover.cover; complete; always_empty }
  | (Memo.Cfds _ | Memo.Verdict _), _ -> compute ()

(* One freshly compiled engine per replica.  Patched-tier deltas reuse
   the previous snapshot's slots (the cover is unchanged); only
   Recomputed-tier deltas pay this. *)
let compile_slots ~replicas view cover =
  Array.init replicas (fun _ ->
      {
        slot_lock = Mutex.create ();
        slot_compiled = Fast_impl.compile (Spc.view_schema view) cover;
      })

let snapshot t = Atomic.get t.snap
let epoch t = (snapshot t).snap_epoch
let sigma t = (snapshot t).snap_sigma
let cover t = (snapshot t).snap_result
let closed t = Atomic.get t.is_closed
let close t = Atomic.set t.is_closed true
let replicas t = t.replicas
let replica_reads t = Array.map Atomic.get t.slot_reads

let stats t =
  let fallbacks = Atomic.get t.st_fallbacks in
  {
    queries = Atomic.get t.st_queries;
    patches = Atomic.get t.st_patches;
    fallbacks;
    recomputes = fallbacks + 1;
    noops = Atomic.get t.st_noops;
    epoch = epoch t;
    replicas = t.replicas;
  }

(* Acquire one replica engine of [snap] round-robin and run [f] on it.
   The cursor is a plain fetch-and-add — perfect rotation under
   contention matters less than staying lock-free. *)
let with_slot t (snap : snapshot) f =
  let n = Array.length snap.snap_slots in
  let i = if n = 1 then 0 else Atomic.fetch_and_add t.rr 1 land max_int mod n in
  Atomic.incr t.slot_reads.(i);
  Obs.incr c_replica_reads;
  let s = snap.snap_slots.(i) in
  Mutex.lock s.slot_lock;
  Fun.protect
    (fun () -> f s.slot_compiled)
    ~finally:(fun () -> Mutex.unlock s.slot_lock)

let create ?pool ?(replicas = 1) ~memo ~name ~view ~sigma () =
  match
    List.find_opt
      (fun c -> not (Schema.mem view.Spc.source c.C.rel))
      sigma
  with
  | Some c -> Error (Printf.sprintf "CFD on unknown source relation %s" c.C.rel)
  | None ->
    let replicas = max 1 replicas in
    let sigma = normalize_sigma sigma in
    let ns = namespace view.Spc.source in
    let options =
      { Propcover.default_options with Propcover.pool; memo = Some (memo, ns) }
    in
    let vdigest = Propcover.instance_digest options view in
    let atom_bases = Spc.bases view in
    let result = full_cover ~memo ~ns ~vdigest ~options view sigma in
    let snap0 =
      {
        snap_epoch = 0;
        snap_sigma = sigma;
        snap_result = result;
        snap_cover_digest = Memo.digest_cfds result.Propcover.cover;
        snap_slices = refresh_slices ~memo ~ns view atom_bases sigma;
        snap_slots = compile_slots ~replicas view result.Propcover.cover;
        snap_attribution = Atomic.make None;
      }
    in
    Ok
      {
        name;
        view;
        memo;
        ns;
        vdigest;
        options;
        atom_bases;
        replicas;
        rr = Atomic.make 0;
        slot_reads = Array.init replicas (fun _ -> Atomic.make 0);
        snap = Atomic.make snap0;
        writer = Mutex.create ();
        is_closed = Atomic.make false;
        st_queries = Atomic.make 0;
        st_patches = Atomic.make 0;
        st_fallbacks = Atomic.make 0;
        st_noops = Atomic.make 0;
      }

let ensure_open t f =
  if Atomic.get t.is_closed then Error "session closed" else f ()

(* The lazily materialised cover → Σ-axiom attribution of one snapshot.
   A recording run ignores the memo, so this is a full pipeline run into
   its own recorder — done at most once per snapshot, only when an
   explain asks for it, and concurrent with any other session's work.
   The cell is monotone (None → Some, never back); two racing explains
   may both compute it, writing identical values. *)
let attribution t (snap : snapshot) =
  match Atomic.get snap.snap_attribution with
  | Some a -> a
  | None ->
    let provenance = Provenance.create () in
    let r =
      Propcover.cover ~options:t.options ~provenance t.view snap.snap_sigma
    in
    let a =
      List.map
        (fun m -> (m, List.map fst (Provenance.sources provenance m)))
        r.Propcover.cover
    in
    Atomic.set snap.snap_attribution (Some a);
    a

let validate_query t (phi : C.t) =
  if not (String.equal phi.C.rel t.view.Spc.name) then
    Error
      (Printf.sprintf "CFD is over %s, not view %s" phi.C.rel t.view.Spc.name)
  else
    let vschema = Spc.view_schema t.view in
    let known a =
      List.exists
        (fun at -> String.equal (Attribute.name at) a)
        (Schema.attributes vschema)
    in
    (match
       List.find_opt
         (fun a -> not (known a))
         (List.map fst phi.C.lhs @ [ fst phi.C.rhs ])
     with
     | Some a -> Error (Printf.sprintf "unknown view attribute %s" a)
     | None -> Ok ())

let ( let* ) = Result.bind

(* Memoised per (instance, cover, φ): verdicts survive every
   cover-neutral delta because the key digests the cover itself.  The
   memo probe is lock-free; only a miss acquires a replica engine. *)
let verdict t (snap : snapshot) phi =
  if snap.snap_result.Propcover.always_empty then true
  else
    let key =
      "verdict:" ^ t.ns ^ ":" ^ t.vdigest ^ ":" ^ snap.snap_cover_digest ^ ":"
      ^ Memo.digest_cfd phi
    in
    match
      Memo.find_or_compute t.memo key (fun () ->
          Memo.Verdict
            (with_slot t snap (fun compiled -> Fast_impl.implies compiled phi)))
    with
    | Memo.Verdict v, _ -> v
    | _ -> with_slot t snap (fun compiled -> Fast_impl.implies compiled phi)

let propagates t phi =
  ensure_open t @@ fun () ->
  let* () = validate_query t phi in
  let phi = C.canonical phi in
  Atomic.incr t.st_queries;
  Obs.incr c_queries;
  let snap = Atomic.get t.snap in
  Ok (verdict t snap phi, snap.snap_epoch)

let explain t phi =
  ensure_open t @@ fun () ->
  let* () = validate_query t phi in
  Atomic.incr t.st_queries;
  Obs.incr c_queries;
  let snap = Atomic.get t.snap in
  if snap.snap_result.Propcover.always_empty then
    Ok
      {
        propagated = true;
        vacuous = true;
        used = [];
        sources = [];
        epoch = snap.snap_epoch;
      }
  else begin
    let phi = C.canonical phi in
    let fired_opt =
      with_slot t snap (fun compiled ->
          let fired = Bytes.make (Fast_impl.num_rules compiled) '\000' in
          if Fast_impl.implies ~fired compiled phi then Some fired else None)
    in
    match fired_opt with
    | Some fired ->
      let used =
        List.filteri
          (fun i _ -> Bytes.get fired i = '\001')
          snap.snap_result.Propcover.cover
      in
      let attr = attribution t snap in
      let sources =
        List.map
          (fun m ->
            ( m,
              match List.find_opt (fun (c, _) -> C.equal c m) attr with
              | Some (_, srcs) -> srcs
              | None -> [] ))
          used
      in
      Ok
        {
          propagated = true;
          vacuous = false;
          used;
          sources;
          epoch = snap.snap_epoch;
        }
    | None ->
      Ok
        {
          propagated = false;
          vacuous = false;
          used = [];
          sources = [];
          epoch = snap.snap_epoch;
        }
  end

let diff_covers old_cover new_cover =
  let added =
    List.filter
      (fun c -> not (List.exists (C.equal c) old_cover))
      new_cover
  in
  let removed =
    List.filter
      (fun c -> not (List.exists (C.equal c) new_cover))
      old_cover
  in
  (added, removed)

(* Deltas serialise under [t.writer]; each builds the next snapshot off
   to the side and publishes it with a single [Atomic.set] — the epoch
   bump readers observe all-or-nothing. *)
let apply_delta_locked t dop c =
  Mutex.lock t.writer;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.writer) @@ fun () ->
  ensure_open t @@ fun () ->
  Obs.with_span s_delta @@ fun () ->
  let c = C.canonical c in
  if not (Schema.mem t.view.Spc.source c.C.rel) then
    Error (Printf.sprintf "CFD on unknown source relation %s" c.C.rel)
  else begin
    let snap = Atomic.get t.snap in
    let present = List.exists (C.equal c) snap.snap_sigma in
    let noop =
      match dop with `Add -> present | `Remove -> not present
    in
    if noop then begin
      Atomic.incr t.st_noops;
      Ok
        {
          plan = Noop;
          epoch = snap.snap_epoch;
          cover_size = List.length snap.snap_result.Propcover.cover;
          changed = false;
          added = [];
          removed = [];
          stale = Some [];
        }
    end
    else begin
      let sigma' =
        match dop with
        | `Add -> normalize_sigma (c :: snap.snap_sigma)
        | `Remove -> List.filter (fun d -> not (C.equal d c)) snap.snap_sigma
      in
      let rel = c.C.rel in
      let swap snap' =
        Atomic.set t.snap snap';
        Obs.incr c_epoch_swaps
      in
      let patch slices' =
        (* The cover is unchanged, so the previous snapshot's compiled
           slots carry over verbatim.  Attribution maps cover members to
           axioms; a patched delta leaves the cover intact but can change
           which axioms exist / are redundant, so the new snapshot starts
           with an empty lazy cell. *)
        let snap' =
          {
            snap with
            snap_epoch = snap.snap_epoch + 1;
            snap_sigma = sigma';
            snap_slices = slices';
            snap_attribution = Atomic.make None;
          }
        in
        swap snap';
        Atomic.incr t.st_patches;
        Obs.incr c_patches;
        Ok
          {
            plan = Patched;
            epoch = snap'.snap_epoch;
            cover_size = List.length snap.snap_result.Propcover.cover;
            changed = false;
            added = [];
            removed = [];
            stale = Some [];
          }
      in
      if not (List.mem rel t.atom_bases) then
        (* Tier A: the relation feeds no view atom, so [Propcover] drops
           every CFD of it before line 1 — the pipeline input is
           untouched. *)
        patch snap.snap_slices
      else begin
        let old_slice =
          match List.assoc_opt rel snap.snap_slices with
          | Some s -> s
          | None -> []
        in
        let new_slice = compute_slice ~memo:t.memo ~ns:t.ns t.view sigma' rel in
        if cfds_equal old_slice new_slice then
          (* Tier B: the delta is absorbed by MinCover(Σ_R) — every
             downstream stage sees element-wise identical input.  Keep
             the recomputed slice entry for the next delta's old side. *)
          patch ((rel, new_slice) :: List.remove_assoc rel snap.snap_slices)
        else begin
          (* Tier C: full recompute, warm through the memo (the
             full-result cache, then the line-1 slices of untouched
             relations and of the one the Tier-B check just filed).
             Attribution (when already materialised) narrows the report
             of which members a removal touched; it can never license
             skipping the recompute — minimal covers are not monotone
             under axiom deletion. *)
          let old_cover = snap.snap_result.Propcover.cover in
          let stale =
            match Atomic.get snap.snap_attribution, dop with
            | Some attr, `Remove ->
              Some
                (List.filter_map
                   (fun (m, srcs) ->
                     if List.exists (C.equal c) srcs then Some m else None)
                   attr)
            | Some _, `Add -> Some []
            | None, _ -> None
          in
          let result =
            full_cover ~memo:t.memo ~ns:t.ns ~vdigest:t.vdigest
              ~options:t.options t.view sigma'
          in
          let snap' =
            {
              snap_epoch = snap.snap_epoch + 1;
              snap_sigma = sigma';
              snap_result = result;
              snap_cover_digest = Memo.digest_cfds result.Propcover.cover;
              snap_slices =
                refresh_slices ~memo:t.memo ~ns:t.ns t.view t.atom_bases
                  sigma';
              snap_slots =
                compile_slots ~replicas:t.replicas t.view
                  result.Propcover.cover;
              snap_attribution = Atomic.make None;
            }
          in
          swap snap';
          Atomic.incr t.st_fallbacks;
          Obs.incr c_fallbacks;
          let new_cover = result.Propcover.cover in
          let added, removed = diff_covers old_cover new_cover in
          Ok
            {
              plan = Recomputed;
              epoch = snap'.snap_epoch;
              cover_size = List.length new_cover;
              changed = not (cfds_equal old_cover new_cover);
              added;
              removed;
              stale;
            }
        end
      end
    end
  end

(* Per-tier latency: the plan is only known once the delta resolves, so
   time the whole application and file it under the tier it took. *)
let apply_delta t dop c =
  let timed = Obs.hist_enabled () in
  let t0 = if timed then Obs.now () else 0. in
  let r = apply_delta_locked t dop c in
  (if timed then
     match r with
     | Ok d ->
       let h =
         match d.plan with
         | Noop -> h_delta_noop
         | Patched -> h_delta_patched
         | Recomputed -> h_delta_recomputed
       in
       Obs.observe_us h ((Obs.now () -. t0) *. 1e6)
     | Error _ -> ());
  r

let add_cfd t c = apply_delta t `Add c
let remove_cfd t c = apply_delta t `Remove c
