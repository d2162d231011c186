open Relational
module C = Cfds.Cfd
module Canon = Chase.Canon

let s_run = Obs.span "fleet.run"
let s_canon = Obs.span "fleet.canonicalise"
let c_views = Obs.counter "fleet.views"
let c_classes = Obs.counter "fleet.classes"
let c_cover_hits = Obs.counter "fleet.cover_hits"
let c_canon_fallbacks = Obs.counter "fleet.canon_fallbacks"

type options = {
  cover : Propcover.options;
  pool : Parallel.Pool.t option;
  memo : Memo.t option;
}

let default_options =
  { cover = Propcover.default_options; pool = None; memo = None }

type view_result = {
  view : Spc.t;
  cover : C.t list;
  complete : bool;
  always_empty : bool;
  memo_hit : bool;
  class_key : string;
  renaming : Canon.renaming option;
}

type t = {
  results : view_result list;
  classes : int;
  memo : Memo.t;
  ns : string;
}

(* The namespace pins everything a cached artefact depends on besides its
   own key: the source schema (names, attribute names, domain kinds) and
   Σ itself. *)
let schema_digest (db : Schema.db) = Memo.schema_string db

let namespace (db : Schema.db) sigma =
  Memo.digest_string (schema_digest db) ^ Memo.digest_cfds sigma

(* Map a cover computed on the canonical view back onto the view's own
   attribute names and relation name.  The inverse renaming is a bijection
   on the canonical attributes, so [rename_attrs] never merges LHS entries;
   [canonical] restores the name-sorted LHS order [Propcover] guarantees. *)
let uncanonicalize (v : Spc.t) (ren : Canon.renaming) cover =
  cover
  |> List.map (fun c ->
         match C.rename_attrs c ren.Canon.of_canonical with
         | Some c' -> C.canonical (C.with_rel c' v.Spc.name)
         | None -> assert false)
  |> List.sort C.compare

let run ?(options = default_options) views sigma =
  Obs.with_span_traced s_run @@ fun () ->
  let memo =
    match options.memo with Some m -> m | None -> Memo.create ()
  in
  match views with
  | [] -> { results = []; classes = 0; memo; ns = "" }
  | v0 :: rest ->
    let sd = schema_digest v0.Spc.source in
    List.iter
      (fun (v : Spc.t) ->
        if not (String.equal (schema_digest v.Spc.source) sd) then
          invalid_arg "Fleet.run: views must share one source schema")
      rest;
    let ns = namespace v0.Spc.source sigma in
    let cover_options = { options.cover with Propcover.memo = Some (memo, ns) } in
    let one (v : Spc.t) =
      Obs.incr c_views;
      let canon =
        Obs.with_span s_canon (fun () ->
            match Canon.canonicalize v with
            | Error _ -> None
            | Ok (cv, ren) ->
              if Canon.verified v cv ren then Some (cv, ren) else None)
      in
      match canon with
      | None ->
        Obs.incr c_canon_fallbacks;
        let r = Propcover.cover ~options:cover_options v sigma in
        {
          view = v;
          cover = r.Propcover.cover;
          complete = r.Propcover.complete;
          always_empty = r.Propcover.always_empty;
          memo_hit = false;
          (* Unshareable: key the class by the view's own serialised
             skeleton so it still counts as a (singleton) class. *)
          class_key = "solo:" ^ ns ^ ":" ^ Memo.digest_string (Canon.key v);
          renaming = None;
        }
      | Some (cv, ren) ->
        let class_key =
          "cover:" ^ ns ^ ":" ^ Memo.digest_string (Canon.key cv)
        in
        let payload, hit =
          Memo.find_or_compute memo class_key (fun () ->
              let r = Propcover.cover ~options:cover_options cv sigma in
              Memo.Cover
                {
                  cover = r.Propcover.cover;
                  complete = r.Propcover.complete;
                  always_empty = r.Propcover.always_empty;
                })
        in
        (match payload with
         | Memo.Cover { cover; complete; always_empty } ->
           if hit then Obs.incr c_cover_hits;
           let cover =
             if always_empty then
               (* Lemma 4.5 covers are built from the view schema, not the
                  pipeline interior; rebuild on the view's own names. *)
               Propcover.empty_view_cover v
             else uncanonicalize v ren cover
           in
           {
             view = v;
             cover;
             complete;
             always_empty;
             memo_hit = hit;
             class_key;
             renaming = Some ren;
           }
         | Memo.Cfds _ | Memo.Verdict _ ->
           (* A key-kind collision is impossible by construction; recover
              by computing unshared rather than failing the fleet. *)
           let r = Propcover.cover ~options:cover_options v sigma in
           {
             view = v;
             cover = r.Propcover.cover;
             complete = r.Propcover.complete;
             always_empty = r.Propcover.always_empty;
             memo_hit = false;
             class_key;
             renaming = Some ren;
           })
    in
    let results = Parallel.Pool.map ?pool:options.pool one views in
    let classes =
      List.length
        (List.sort_uniq String.compare
           (List.map (fun r -> r.class_key) results))
    in
    Obs.add c_classes classes;
    { results; classes; memo; ns }

let propagates t ~view phi =
  match
    List.find_opt
      (fun r -> String.equal r.view.Spc.name view)
      t.results
  with
  | None -> `Unknown_view
  | Some r ->
    let decide () =
      Implication.implies (Spc.view_schema r.view) r.cover phi
    in
    if r.always_empty then `Propagated
    else begin
      (* Implication is renaming-equivariant, so the verdict is keyed on
         the canonical class plus the canonically-renamed question —
         isomorphic views share it. *)
      let cached =
        match r.renaming with
        | None -> None
        | Some ren ->
          (match C.rename_attrs phi ren.Chase.Canon.to_canonical with
           | None -> None
           | Some phi_c ->
             let key =
               "impl:" ^ t.ns ^ ":"
               ^ Memo.digest_string r.class_key
               ^ ":"
               ^ Memo.digest_cfd (C.with_rel phi_c "~V")
             in
             (match
                Memo.find_or_compute t.memo key (fun () ->
                    Memo.Verdict (decide ()))
              with
              | Memo.Verdict v, _ -> Some v
              | _ -> None))
      in
      let verdict =
        match cached with Some v -> v | None -> decide ()
      in
      if verdict then `Propagated else `Not_propagated
    end
