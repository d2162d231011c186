type atom = {
  base : string;
  attrs : Attribute.t list;
}

type sel =
  | Sel_eq of string * string
  | Sel_const of string * Value.t

type t = {
  source : Schema.db;
  name : string;
  constants : (Attribute.t * Value.t) list;
  atoms : atom list;
  selection : sel list;
  projection : string list;
}

let atom source base names =
  let rel =
    try Schema.find source base
    with Not_found -> invalid_arg (Printf.sprintf "Spc.atom: unknown relation %s" base)
  in
  if List.length names <> Schema.arity rel then
    invalid_arg (Printf.sprintf "Spc.atom: arity mismatch for %s" base);
  let attrs =
    List.map2
      (fun a n -> Attribute.rename a n)
      (Schema.attributes rel) names
  in
  { base; attrs }

let ( let* ) = Result.bind

let all_distinct names =
  let sorted = List.sort String.compare names in
  let rec dup = function
    | a :: (b :: _ as rest) -> if String.equal a b then Some a else dup rest
    | [ _ ] | [] -> None
  in
  dup sorted

let make ~source ~name ?(constants = []) ?(selection = []) ~atoms ~projection () =
  let body = List.concat_map (fun a -> a.attrs) atoms in
  let body_names = List.map Attribute.name body in
  let const_names = List.map (fun (a, _) -> Attribute.name a) constants in
  let* () =
    match all_distinct (body_names @ const_names) with
    | Some a -> Error (Printf.sprintf "duplicate attribute %s across atoms/constants" a)
    | None -> Ok ()
  in
  let* () =
    List.fold_left
      (fun acc a ->
        let* () = acc in
        if not (Schema.mem source a.base) then
          Error (Printf.sprintf "unknown base relation %s" a.base)
        else
          let rel = Schema.find source a.base in
          if List.length a.attrs <> Schema.arity rel then
            Error (Printf.sprintf "arity mismatch for atom %s" a.base)
          else if
            not
              (List.for_all2
                 (fun x y -> Domain.equal (Attribute.domain x) (Attribute.domain y))
                 a.attrs (Schema.attributes rel))
          then Error (Printf.sprintf "domain mismatch for atom %s" a.base)
          else Ok ())
      (Ok ()) atoms
  in
  let* () =
    List.fold_left
      (fun acc (a, v) ->
        let* () = acc in
        if not (Domain.mem v (Attribute.domain a)) then
          Error
            (Printf.sprintf "constant %s for %s outside its domain"
               (Value.to_string v) (Attribute.name a))
        else Ok ())
      (Ok ()) constants
  in
  let body_mem n = List.mem n body_names in
  let* () =
    List.fold_left
      (fun acc s ->
        let* () = acc in
        match s with
        | Sel_eq (a, b) ->
          if body_mem a && body_mem b then Ok ()
          else Error (Printf.sprintf "selection %s = %s mentions a non-body attribute" a b)
        | Sel_const (a, v) ->
          if not (body_mem a) then
            Error (Printf.sprintf "selection on non-body attribute %s" a)
          else
            let attr = List.find (fun x -> String.equal (Attribute.name x) a) body in
            if Domain.mem v (Attribute.domain attr) then Ok ()
            else
              Error
                (Printf.sprintf "selection constant %s outside dom(%s)"
                   (Value.to_string v) a))
      (Ok ()) selection
  in
  let* () =
    match all_distinct projection with
    | Some a -> Error (Printf.sprintf "duplicate projection attribute %s" a)
    | None -> Ok ()
  in
  let* () =
    List.fold_left
      (fun acc n ->
        let* () = acc in
        if body_mem n || List.mem n const_names then Ok ()
        else Error (Printf.sprintf "projection of unknown attribute %s" n))
      (Ok ()) projection
  in
  let* () =
    List.fold_left
      (fun acc n ->
        let* () = acc in
        if List.mem n projection then Ok ()
        else Error (Printf.sprintf "constant attribute %s must be projected" n))
      (Ok ()) const_names
  in
  if projection = [] then Error "empty projection"
  else Ok { source; name; constants; atoms; selection; projection }

let make_exn ~source ~name ?constants ?selection ~atoms ~projection () =
  match make ~source ~name ?constants ?selection ~atoms ~projection () with
  | Ok v -> v
  | Error msg -> invalid_arg ("Spc.make: " ^ msg)

let body_attrs v = List.concat_map (fun a -> a.attrs) v.atoms

let bases v = List.sort_uniq String.compare (List.map (fun a -> a.base) v.atoms)

let body_attr v n =
  List.find (fun a -> String.equal (Attribute.name a) n) (body_attrs v)

let view_schema v =
  let body = body_attrs v in
  let find n =
    match List.find_opt (fun a -> String.equal (Attribute.name a) n) body with
    | Some a -> a
    | None -> fst (List.find (fun (a, _) -> String.equal (Attribute.name a) n) v.constants)
  in
  Schema.relation v.name (List.map find v.projection)

type fragment = {
  has_s : bool;
  has_p : bool;
  has_c : bool;
}

let fragment v =
  let body = body_attrs v in
  let factors = List.length v.atoms + if v.constants = [] then 0 else 1 in
  {
    has_s = v.selection <> [];
    has_p =
      List.exists (fun a -> not (List.mem (Attribute.name a) v.projection)) body;
    has_c = factors >= 2;
  }

let fragment_name f =
  let s = [ (f.has_s, "S"); (f.has_p, "P"); (f.has_c, "C") ] in
  let name = String.concat "" (List.filter_map (fun (b, n) -> if b then Some n else None) s) in
  if String.equal name "" then "identity" else name

let eval v d =
  let body = body_attrs v in
  let body_names = List.map Attribute.name body in
  let index = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.replace index n i) body_names;
  let pos n = Hashtbl.find index n in
  let rows =
    List.fold_left
      (fun acc a ->
        let inst = Relation.tuples (Database.instance d a.base) in
        List.concat_map (fun row -> List.map (fun t -> Array.append row t) inst) acc)
      [ [||] ] v.atoms
  in
  let keep row =
    List.for_all
      (function
        | Sel_eq (a, b) -> Value.equal row.(pos a) row.(pos b)
        | Sel_const (a, c) -> Value.equal row.(pos a) c)
      v.selection
  in
  let out_value row n =
    match Hashtbl.find_opt index n with
    | Some i -> row.(i)
    | None -> snd (List.find (fun (a, _) -> String.equal (Attribute.name a) n) v.constants)
  in
  let tuples =
    List.filter_map
      (fun row ->
        if keep row then
          Some (Array.of_list (List.map (out_value row) v.projection))
        else None)
      rows
  in
  Relation.make_unchecked (view_schema v) tuples

let to_algebra v =
  let product qs =
    match qs with
    | [] -> None
    | q :: rest -> Some (List.fold_left (fun acc q -> Algebra.Product (acc, q)) q rest)
  in
  let atom_q a =
    let rel = Schema.find v.source a.base in
    let pairs =
      List.map2
        (fun old renamed -> (Attribute.name old, Attribute.name renamed))
        (Schema.attributes rel) a.attrs
    in
    Algebra.Rename (pairs, Algebra.Relation a.base)
  in
  let ec = product (List.map atom_q v.atoms) in
  let es =
    Option.map
      (fun ec ->
        let pred =
          List.fold_left
            (fun acc s ->
              let p =
                match s with
                | Sel_eq (a, b) -> Algebra.Eq_attr (a, b)
                | Sel_const (a, c) -> Algebra.Eq_const (a, c)
              in
              Algebra.And (acc, p))
            Algebra.True v.selection
        in
        Algebra.Select (pred, ec))
      ec
  in
  let rc =
    if v.constants = [] then None
    else
      let schema = Schema.relation (v.name ^ "_rc") (List.map fst v.constants) in
      Some (Algebra.Constant (schema, [ Array.of_list (List.map snd v.constants) ]))
  in
  let body =
    match rc, es with
    | Some rc, Some es -> Algebra.Product (rc, es)
    | Some rc, None -> rc
    | None, Some es -> es
    | None, None -> invalid_arg "Spc.to_algebra: empty view body"
  in
  Algebra.Project (v.projection, body)

(* ------------------------------------------------------------------ *)
(* Normalisation from relational algebra.                              *)

(* During compilation every relation atom receives globally fresh internal
   attribute names; [cvisible] maps the query's output names to either a
   fresh body name or a constant. *)
type vref =
  | Vbody of string
  | Vconst of Attribute.t * Value.t

type cbody = {
  catoms : atom list;
  csel : sel list;
  cvisible : (string * vref) list;
}

exception Static_false

let fresh_counter = ref 0

let fresh_name () =
  incr fresh_counter;
  Printf.sprintf "#a%d" !fresh_counter

let compile_branches db ~name q =
  let rec go q =
    match q with
    | Algebra.Relation r ->
      if not (Schema.mem db r) then Error (Printf.sprintf "unknown relation %s" r)
      else
        let rel = Schema.find db r in
        let fresh = List.map (fun _ -> fresh_name ()) (Schema.attributes rel) in
        let a = atom db r fresh in
        Ok
          [
            {
              catoms = [ a ];
              csel = [];
              cvisible =
                List.map2
                  (fun orig f -> (Attribute.name orig, Vbody f))
                  (Schema.attributes rel) fresh;
            };
          ]
    | Algebra.Constant (schema, tuples) ->
      let branch t =
        {
          catoms = [];
          csel = [];
          cvisible =
            List.mapi
              (fun i a -> (Attribute.name a, Vconst (a, t.(i))))
              (Schema.attributes schema);
        }
      in
      Ok (List.map branch tuples)
    | Algebra.Select (p, q) ->
      let* branches = go q in
      (match Algebra.conjuncts p with
       | None -> Error "selection is not a conjunction of equality atoms"
       | Some cs ->
         let apply b =
           try
             Some
               (List.fold_left
                  (fun b c ->
                    let lookup n =
                      match List.assoc_opt n b.cvisible with
                      | Some r -> r
                      | None -> raise Static_false
                      (* unknown attr: flagged below *)
                    in
                    match c with
                    | Algebra.Eq_const (a, v) ->
                      (match lookup a with
                       | Vbody n -> { b with csel = Sel_const (n, v) :: b.csel }
                       | Vconst (_, c) ->
                         if Value.equal c v then b else raise Static_false)
                    | Algebra.Eq_attr (a1, a2) ->
                      (match lookup a1, lookup a2 with
                       | Vbody n1, Vbody n2 ->
                         { b with csel = Sel_eq (n1, n2) :: b.csel }
                       | Vbody n, Vconst (_, c) | Vconst (_, c), Vbody n ->
                         { b with csel = Sel_const (n, c) :: b.csel }
                       | Vconst (_, c1), Vconst (_, c2) ->
                         if Value.equal c1 c2 then b else raise Static_false)
                    | Algebra.True | Algebra.False | Algebra.And _
                    | Algebra.Or _ | Algebra.Not _ ->
                      b)
                  b cs)
           with Static_false -> None
         in
         (* Check attributes exist in at least one branch signature. *)
         let known = match branches with b :: _ -> List.map fst b.cvisible | [] -> [] in
         let bad =
           List.find_opt
             (fun c ->
               match c with
               | Algebra.Eq_const (a, _) -> not (List.mem a known)
               | Algebra.Eq_attr (a, b) -> not (List.mem a known && List.mem b known)
               | _ -> false)
             cs
         in
         (match bad with
          | Some _ -> Error "selection mentions an unknown attribute"
          | None -> Ok (List.filter_map apply branches)))
    | Algebra.Project (names, q) ->
      let* branches = go q in
      let apply b =
        let* vis =
          List.fold_right
            (fun n acc ->
              let* acc = acc in
              match List.assoc_opt n b.cvisible with
              | Some r -> Ok ((n, r) :: acc)
              | None -> Error (Printf.sprintf "projection of unknown attribute %s" n))
            names (Ok [])
        in
        Ok { b with cvisible = vis }
      in
      List.fold_right
        (fun b acc ->
          let* acc = acc in
          let* b = apply b in
          Ok (b :: acc))
        branches (Ok [])
    | Algebra.Rename (pairs, q) ->
      let* branches = go q in
      let rename b =
        {
          b with
          cvisible =
            List.map
              (fun (n, r) ->
                match List.assoc_opt n pairs with
                | Some n' -> (n', r)
                | None -> (n, r))
              b.cvisible;
        }
      in
      Ok (List.map rename branches)
    | Algebra.Product (q1, q2) ->
      let* b1 = go q1 in
      let* b2 = go q2 in
      let combine x y =
        let n1 = List.map fst x.cvisible in
        if List.exists (fun (n, _) -> List.mem n n1) y.cvisible then
          Error "product attribute clash"
        else
          Ok
            {
              catoms = x.catoms @ y.catoms;
              csel = x.csel @ y.csel;
              cvisible = x.cvisible @ y.cvisible;
            }
      in
      List.fold_right
        (fun x acc ->
          let* acc = acc in
          let* row =
            List.fold_right
              (fun y acc2 ->
                let* acc2 = acc2 in
                let* c = combine x y in
                Ok (c :: acc2))
              b2 (Ok [])
          in
          Ok (row @ acc))
        b1 (Ok [])
    | Algebra.Union (q1, q2) ->
      let* b1 = go q1 in
      let* b2 = go q2 in
      let sig1 = List.map fst (match b1 with b :: _ -> b.cvisible | [] -> []) in
      let sig2 = List.map fst (match b2 with b :: _ -> b.cvisible | [] -> []) in
      if b1 <> [] && b2 <> [] && sig1 <> sig2 then
        Error "union of non-union-compatible queries"
      else Ok (b1 @ b2)
    | Algebra.Difference _ -> Error "difference is not SPC/SPCU-expressible"
  in
  let* branches = go q in
  let finalize b =
    (* Rename each visible body attribute to its outer name; internal
       invisible names keep their fresh '#' names. *)
    let rename_map =
      List.filter_map
        (fun (outer, r) ->
          match r with Vbody n -> Some (n, outer) | Vconst _ -> None)
        b.cvisible
    in
    let rn n = match List.assoc_opt n rename_map with Some o -> o | None -> n in
    let atoms =
      List.map
        (fun a ->
          { a with attrs = List.map (fun at -> Attribute.rename at (rn (Attribute.name at))) a.attrs })
        b.catoms
    in
    let selection =
      List.map
        (function
          | Sel_eq (x, y) -> Sel_eq (rn x, rn y)
          | Sel_const (x, v) -> Sel_const (rn x, v))
        b.csel
    in
    let constants =
      List.filter_map
        (fun (outer, r) ->
          match r with
          | Vconst (a, v) -> Some (Attribute.rename a outer, v)
          | Vbody _ -> None)
        b.cvisible
    in
    let projection = List.map fst b.cvisible in
    make ~source:db ~name ~constants ~selection ~atoms ~projection ()
  in
  List.fold_right
    (fun b acc ->
      let* acc = acc in
      let* v = finalize b in
      Ok (v :: acc))
    branches (Ok [])

let of_algebra db ~name q =
  let* branches = compile_branches db ~name q in
  match branches with
  | [ v ] -> Ok v
  | [] -> Error "query is statically empty (no SPC branch)"
  | _ -> Error "query has unions; use Spcu.of_algebra"

let pp_sel ppf = function
  | Sel_eq (a, b) -> Fmt.pf ppf "%s = %s" a b
  | Sel_const (a, v) -> Fmt.pf ppf "%s = %a" a Value.pp v

let pp ppf v =
  let pp_atom ppf a =
    Fmt.pf ppf "%s(%a)" a.base
      Fmt.(list ~sep:(any ", ") string)
      (List.map Attribute.name a.attrs)
  in
  let pp_const ppf (a, c) = Fmt.pf ppf "%s:%a" (Attribute.name a) Value.pp c in
  Fmt.pf ppf "@[<hv 2>%s = project[%a](@ {%a} x select[%a](%a))@]" v.name
    Fmt.(list ~sep:(any ", ") string)
    v.projection
    Fmt.(list ~sep:(any ", ") pp_const)
    v.constants
    Fmt.(list ~sep:(any " and ") pp_sel)
    v.selection
    Fmt.(list ~sep:(any " x ") pp_atom)
    v.atoms
