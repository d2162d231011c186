open Relational
module P = Cfds.Pattern

exception Inconsistent

type eq_class = {
  attrs : int list;  (* members, sorted by id *)
  key : Value.t option;
  contribs : Ir.t list;
}

type t =
  | Classes of eq_class list
  | Bottom

(* Union-find over interned attribute ids with an optional constant key
   and a contributor list per root: three flat arrays indexed by id.  The
   contributor lists carry {!Ir.t} values for [Provenance.record_ir]. *)
module Uf = struct
  type t = {
    parent : int array;
    keys : Value.t option array;
    contribs : Ir.t list array;
  }

  let create n =
    {
      parent = Array.init n Fun.id;
      keys = Array.make n None;
      contribs = Array.make n [];
    }

  let rec find t a =
    let p = t.parent.(a) in
    if p = a then a
    else begin
      let r = find t p in
      t.parent.(a) <- r;
      r
    end

  let key t a = t.keys.(find t a)

  let set_key t a v =
    let r = find t a in
    match t.keys.(r) with
    | Some w -> if not (Value.equal v w) then raise Inconsistent else false
    | None ->
      t.keys.(r) <- Some v;
      true

  let contributors t a = t.contribs.(find t a)

  let add_contribs t a cs =
    if cs <> [] then begin
      let r = find t a in
      t.contribs.(r) <- cs @ t.contribs.(r)
    end

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra = rb then false
    else begin
      let ka = t.keys.(ra) and kb = t.keys.(rb) in
      (match ka, kb with
       | Some x, Some y when not (Value.equal x y) -> raise Inconsistent
       | _ -> ());
      t.parent.(rb) <- ra;
      (match ka, kb with
       | None, Some y -> t.keys.(ra) <- Some y
       | _ -> ());
      (match t.contribs.(rb) with
       | [] -> ()
       | cs ->
         t.contribs.(rb) <- [];
         add_contribs t ra cs);
      true
    end
end

let compute ctx ~body ~selection ~sigma =
  let uf = Uf.create (Cfds.Interner.size (Ir.interner ctx)) in
  (* Contributor tracking costs list traffic in the fixpoint loop, so it
     only runs when the run records (classes then report no contributors,
     which nothing else reads).  Each root carries the CFDs whose firings
     shaped its class; selection-condition facts contribute nothing —
     they are view-definition leaves. *)
  let track = Provenance.records ctx in
  try
    (* Seed with the selection condition F (Lemma 4.2); selection attribute
       names are body attributes, so interning here resolves existing
       ids. *)
    List.iter
      (function
        | Spc.Sel_eq (a, b) ->
          ignore (Uf.union uf (Ir.intern ctx a) (Ir.intern ctx b))
        | Spc.Sel_const (a, v) -> ignore (Uf.set_key uf (Ir.intern ctx a) v))
      selection;
    let fires ic =
      (not (Ir.is_attr_eq ic))
      && Array.for_all
           (fun (a, p) ->
             match Uf.key uf a with
             | None -> false
             | Some v -> P.matches v p)
           ic.Ir.lhs
    in
    let step () =
      List.fold_left
        (fun changed ic ->
          if Ir.is_attr_eq ic then begin
            let a = fst ic.Ir.lhs.(0) and b = fst ic.Ir.rhs in
            if Uf.union uf a b then begin
              if track then Uf.add_contribs uf a [ ic ];
              true
            end
            else changed
          end
          else
            match snd ic.Ir.rhs with
            | P.Const v when fires ic ->
              if Uf.set_key uf (fst ic.Ir.rhs) v then begin
                (* Snapshot the LHS classes' contributors at fire time: the
                   keys justifying this firing were established by exactly
                   those CFDs (and the selection), so the snapshot is a
                   sound parent set for the new key. *)
                if track then begin
                  let deps =
                    Array.fold_left
                      (fun acc (a, _) -> Uf.contributors uf a @ acc)
                      [] ic.Ir.lhs
                  in
                  Uf.add_contribs uf (fst ic.Ir.rhs) (ic :: deps)
                end;
                true
              end
              else changed
            | P.Const _ | P.Wild | P.Svar -> changed)
        false sigma
    in
    let rec loop () = if step () then loop () in
    loop ();
    let groups = Hashtbl.create 16 in
    List.iter
      (fun a ->
        let r = Uf.find uf a in
        Hashtbl.replace groups r
          (a :: Option.value ~default:[] (Hashtbl.find_opt groups r)))
      body;
    let classes =
      Hashtbl.fold
        (fun r members acc ->
          {
            attrs = List.sort Int.compare members;
            key = uf.Uf.keys.(r);
            contribs = List.sort_uniq Ir.compare (Uf.contributors uf r);
          }
          :: acc)
        groups []
    in
    Classes (List.sort (fun a b -> compare a.attrs b.attrs) classes)
  with Inconsistent -> Bottom

let class_of classes a = List.find_opt (fun c -> List.mem a c.attrs) classes

let representatives classes ~prefer =
  List.concat_map
    (fun c ->
      let rep =
        match List.find_opt prefer c.attrs with
        | Some a -> a
        | None -> List.hd c.attrs
      in
      List.map (fun a -> (a, rep)) c.attrs)
    classes

let to_cfds ctx ~view ~y classes =
  List.concat_map
    (fun c ->
      let members = List.filter y c.attrs in
      let emit ic =
        Provenance.record_ir ctx ic Provenance.Eq_class c.contribs;
        ic
      in
      match c.key with
      | Some v -> List.map (fun a -> emit (Ir.const_binding view a v)) members
      | None ->
        let rec pairs = function
          | [] -> []
          | a :: rest ->
            List.map (fun b -> emit (Ir.attr_eq view a b)) rest @ pairs rest
        in
        pairs members)
    classes
