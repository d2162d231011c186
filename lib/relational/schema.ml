(* Name indexes hash and compare strings directly, not through the
   polymorphic [Hashtbl] primitives: every attribute lookup of the parser,
   [Cfd.check] and the compilers goes through them. *)
module Names = Hashtbl.Make (String)

type relation = {
  rname : string;
  attrs : Attribute.t array;
  index : int Names.t;
}

let relation name attrs =
  if attrs = [] then invalid_arg "Schema.relation: no attributes";
  let index = Names.create (List.length attrs) in
  List.iteri
    (fun i a ->
      let n = Attribute.name a in
      if Names.mem index n then
        invalid_arg (Printf.sprintf "Schema.relation %s: duplicate attribute %s" name n);
      Names.add index n i)
    attrs;
  { rname = name; attrs = Array.of_list attrs; index }

let relation_name r = r.rname
let attributes r = Array.to_list r.attrs
let attribute_names r = Array.to_list (Array.map Attribute.name r.attrs)
let arity r = Array.length r.attrs

let attr_index r name =
  match Names.find_opt r.index name with
  | Some i -> i
  | None -> raise Not_found

let attr r name = r.attrs.(attr_index r name)
let mem_attr r name = Names.mem r.index name
let nth_attr r i = r.attrs.(i)
let has_finite_attr r = Array.exists Attribute.is_finite r.attrs

let equal_relation a b =
  String.equal a.rname b.rname
  && Array.length a.attrs = Array.length b.attrs
  && Array.for_all2 Attribute.equal a.attrs b.attrs

let pp_relation ppf r =
  Fmt.pf ppf "%s(%a)" r.rname
    Fmt.(list ~sep:(any ", ") Attribute.pp)
    (attributes r)

type db = {
  rels : relation list;
  rindex : relation Names.t;
}

let db rels =
  let rindex = Names.create (List.length rels) in
  List.iter
    (fun r ->
      if Names.mem rindex r.rname then
        invalid_arg (Printf.sprintf "Schema.db: duplicate relation %s" r.rname);
      Names.add rindex r.rname r)
    rels;
  { rels; rindex }

let relations d = d.rels

let find d name =
  match Names.find_opt d.rindex name with
  | Some r -> r
  | None -> raise Not_found

let mem d name = Names.mem d.rindex name
let db_has_finite_attr d = List.exists has_finite_attr d.rels
let pp_db ppf d = Fmt.(list ~sep:(any "@\n") pp_relation) ppf d.rels
