open Relational
module L = Lexer
module C = Cfds.Cfd
module P = Cfds.Pattern

type document = {
  schema : Schema.db;
  cfds : C.t list;
  cinds : Cfds.Cind.t list;
  views : Spc.t list;
  data : Database.t;
}

exception Parse_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

(* The smart constructors reject bad declarations with [Invalid_argument];
   the parser reports them as parse errors. *)
let checked f x = try f x with Invalid_argument m -> fail "%s" m

(* The lexer and a one-token lookahead: tokens are lexed as the parser
   asks for them. *)
type state = { lex : L.t; mutable look : L.token }

let peek st = st.look

let next st =
  match st.look with
  | L.Eof -> fail "unexpected end of input"
  | t ->
    st.look <- L.next st.lex;
    t

(* [tok] is always a payload-free token, so physical equality decides it
   without a polymorphic compare. *)
let expect st tok =
  let t = next st in
  if t != tok then fail "expected %a but found %a" L.pp_token tok L.pp_token t

let ident st =
  match next st with
  | L.Ident s -> s
  | t -> fail "expected an identifier, found %a" L.pp_token t

let value st =
  match next st with
  | L.Int n -> Value.int n
  | L.String s -> Value.str s
  | L.Ident "true" -> Value.bool true
  | L.Ident "false" -> Value.bool false
  | t -> fail "expected a value, found %a" L.pp_token t

(* [sep] and [stop] are payload-free tokens, as in [expect]. *)
let sep_list st ~sep ~stop parse_item =
  let rec go acc =
    let acc = parse_item st :: acc in
    match peek st with
    | L.Eof -> fail "unexpected end of input"
    | t when t == sep ->
      ignore (next st);
      go acc
    | t when t == stop -> List.rev acc
    | t -> fail "expected %a or %a, found %a" L.pp_token sep L.pp_token stop L.pp_token t
  in
  if peek st == stop then [] else go []

(* schema R(A: string, B: enum(1, 2)); *)
let parse_type st =
  match next st with
  | L.Ident "int" -> Domain.int
  | L.Ident "string" -> Domain.string
  | L.Ident "bool" -> Domain.boolean
  | L.Ident "enum" ->
    expect st L.Lparen;
    let vs = sep_list st ~sep:L.Comma ~stop:L.Rparen value in
    expect st L.Rparen;
    checked Domain.finite vs
  | t -> fail "expected a type, found %a" L.pp_token t

let parse_schema st =
  let name = ident st in
  expect st L.Lparen;
  let attr st =
    let a = ident st in
    expect st L.Colon;
    let ty = parse_type st in
    Attribute.make a ty
  in
  let attrs = sep_list st ~sep:L.Comma ~stop:L.Rparen attr in
  expect st L.Rparen;
  expect st L.Semicolon;
  checked (Schema.relation name) attrs

(* cfd R([A='a', B] -> [C='c']);  or  cfd R(A == B); *)
let parse_entry st =
  let a = ident st in
  match peek st with
  | L.Equal ->
    ignore (next st);
    (a, P.Const (value st))
  | _ -> (a, P.Wild)

let parse_cfd st =
  let rel = ident st in
  expect st L.Lparen;
  match peek st with
  | L.Lbracket ->
    ignore (next st);
    let lhs = sep_list st ~sep:L.Comma ~stop:L.Rbracket parse_entry in
    expect st L.Rbracket;
    expect st L.Arrow;
    expect st L.Lbracket;
    let rhs = sep_list st ~sep:L.Comma ~stop:L.Rbracket parse_entry in
    expect st L.Rbracket;
    expect st L.Rparen;
    expect st L.Semicolon;
    if rhs = [] then fail "CFD with an empty right-hand side";
    checked C.normalize { C.grel = rel; C.glhs = lhs; C.grhs = rhs }
  | _ ->
    let a = ident st in
    expect st L.Eqeq;
    let b = ident st in
    expect st L.Rparen;
    expect st L.Semicolon;
    [ C.attr_eq rel a b ]

(* cind R1([A, B]; [P='p']) <= R2([C, D]; [Q='q']); *)
let parse_cind st =
  let side st =
    let rel = ident st in
    expect st L.Lparen;
    expect st L.Lbracket;
    let attrs = sep_list st ~sep:L.Comma ~stop:L.Rbracket ident in
    expect st L.Rbracket;
    expect st L.Semicolon;
    expect st L.Lbracket;
    let cond st =
      let a = ident st in
      expect st L.Equal;
      (a, value st)
    in
    let condition = sep_list st ~sep:L.Comma ~stop:L.Rbracket cond in
    expect st L.Rbracket;
    expect st L.Rparen;
    { Cfds.Cind.rel; attrs; condition }
  in
  let lhs = side st in
  expect st L.Le;
  let rhs = side st in
  expect st L.Semicolon;
  checked (fun rhs -> Cfds.Cind.make ~lhs ~rhs) rhs

(* data R = ('a', 'b'), ('c', 'd'); *)
let parse_data st schema =
  let name = ident st in
  let rel =
    try Schema.find schema name
    with Not_found -> fail "data for unknown relation %s" name
  in
  expect st L.Equal;
  let row st =
    expect st L.Lparen;
    let vs = sep_list st ~sep:L.Comma ~stop:L.Rparen value in
    expect st L.Rparen;
    Tuple.make vs
  in
  let rows = sep_list st ~sep:L.Comma ~stop:L.Semicolon row in
  expect st L.Semicolon;
  List.iter
    (fun t ->
      if not (Tuple.conforms rel t) then
        fail "data tuple %s does not conform to %s"
          (Fmt.str "%a" Tuple.pp t) name)
    rows;
  (name, rows)

(* view V = from [...] where [...] constants [...] project [...]; *)
let parse_view st schema =
  let name = ident st in
  expect st L.Equal;
  (match ident st with
   | "from" -> ()
   | kw -> fail "expected 'from', found %s" kw);
  expect st L.Lbracket;
  let atom st =
    let base = ident st in
    expect st L.Lparen;
    let names = sep_list st ~sep:L.Comma ~stop:L.Rparen ident in
    expect st L.Rparen;
    checked (Spc.atom schema base) names
  in
  let atoms = sep_list st ~sep:L.Comma ~stop:L.Rbracket atom in
  expect st L.Rbracket;
  let selection = ref [] and constants = ref [] and projection = ref None in
  let parse_sel st =
    let a = ident st in
    expect st L.Equal;
    match next st with
    | L.Ident b -> Spc.Sel_eq (a, b)
    | L.Int n -> Spc.Sel_const (a, Value.int n)
    | L.String s -> Spc.Sel_const (a, Value.str s)
    | t -> fail "expected attribute or value, found %a" L.pp_token t
  in
  let parse_const st =
    let a = ident st in
    expect st L.Equal;
    let v = value st in
    (Attribute.make a (Domain.Infinite (Domain.dtype_of_value v)), v)
  in
  let rec clauses () =
    match peek st with
    | L.Ident "where" ->
      ignore (next st);
      expect st L.Lbracket;
      selection := sep_list st ~sep:L.Comma ~stop:L.Rbracket parse_sel;
      expect st L.Rbracket;
      clauses ()
    | L.Ident "constants" ->
      ignore (next st);
      expect st L.Lbracket;
      constants := sep_list st ~sep:L.Comma ~stop:L.Rbracket parse_const;
      expect st L.Rbracket;
      clauses ()
    | L.Ident "project" ->
      ignore (next st);
      expect st L.Lbracket;
      projection := Some (sep_list st ~sep:L.Comma ~stop:L.Rbracket ident);
      expect st L.Rbracket;
      clauses ()
    | _ -> ()
  in
  clauses ();
  expect st L.Semicolon;
  let projection =
    match !projection with
    | Some p -> p
    | None -> fail "view %s has no 'project' clause" name
  in
  match
    Spc.make ~source:schema ~name ~constants:!constants ~selection:!selection
      ~atoms ~projection ()
  with
  | Ok v -> v
  | Error m -> fail "view %s: %s" name m

let parse_declarations st =
  let schemas = ref [] and cfds = ref [] and pending_views = ref [] in
  let cinds = ref [] and data_rows = ref [] in
  let rec go () =
    match peek st with
    | L.Eof -> ()
    | L.Ident "schema" ->
      ignore (next st);
      schemas := parse_schema st :: !schemas;
      go ()
    | L.Ident "cfd" ->
      ignore (next st);
      (* CFDs may reference views declared later; defer validation. *)
      cfds := parse_cfd st @ !cfds;
      go ()
    | L.Ident "view" ->
      ignore (next st);
      let schema = checked Schema.db (List.rev !schemas) in
      pending_views := parse_view st schema :: !pending_views;
      go ()
    | L.Ident "cind" ->
      ignore (next st);
      cinds := parse_cind st :: !cinds;
      go ()
    | L.Ident "data" ->
      ignore (next st);
      let schema = checked Schema.db (List.rev !schemas) in
      data_rows := parse_data st schema :: !data_rows;
      go ()
    | t -> fail "expected a declaration, found %a" L.pp_token t
  in
  go ();
  let schema = checked Schema.db (List.rev !schemas) in
  let cfds = List.rev !cfds and views = List.rev !pending_views in
  (* Validate CFD attribute references on declared relations and views;
     a CFD on an undeclared name stays a question for the caller. *)
  let view_schemas =
    List.map (fun (v : Spc.t) -> (v.Spc.name, Spc.view_schema v)) views
  in
  List.iter
    (fun (c : C.t) ->
      let r =
        match Schema.find schema c.C.rel with
        | r -> Some r
        | exception Not_found -> List.assoc_opt c.C.rel view_schemas
      in
      match Option.map (fun r -> C.check r c) r with
      | Some (Error m) -> fail "cfd %a: %s" C.pp c m
      | Some (Ok ()) | None -> ())
    cfds;
  (* Validate CIND attribute references. *)
  List.iter
    (fun (c : Cfds.Cind.t) ->
      List.iter
        (fun (side : Cfds.Cind.side) ->
          if not (Schema.mem schema side.Cfds.Cind.rel) then
            fail "CIND over unknown relation %s" side.Cfds.Cind.rel;
          let rel = Schema.find schema side.Cfds.Cind.rel in
          List.iter
            (fun a ->
              if not (Schema.mem_attr rel a) then
                fail "CIND attribute %s not in %s" a side.Cfds.Cind.rel)
            (side.Cfds.Cind.attrs @ List.map fst side.Cfds.Cind.condition))
        [ c.Cfds.Cind.lhs; c.Cfds.Cind.rhs ])
    !cinds;
  let data =
    let by_rel = Hashtbl.create 8 in
    List.iter
      (fun (name, rows) ->
        Hashtbl.replace by_rel name
          (rows @ Option.value ~default:[] (Hashtbl.find_opt by_rel name)))
      !data_rows;
    Database.make schema
      (Hashtbl.fold
         (fun name rows acc ->
           Relation.make (Schema.find schema name) rows :: acc)
         by_rel [])
  in
  {
    schema;
    cfds;
    cinds = List.rev !cinds;
    views;
    data;
  }

let parse_document input =
  let lex = L.of_string input in
  let lexical_error msg pos =
    Error (Printf.sprintf "lexical error at offset %d: %s" pos msg)
  in
  (* A lexical error anywhere in the input wins over a parse error, as if
     the whole input had been lexed first: on a parse error, lex the rest
     of the input for one. *)
  let rec rest_lexes () =
    match L.next lex with
    | L.Eof -> None
    | _ -> rest_lexes ()
    | exception L.Error (msg, pos) -> Some (msg, pos)
  in
  match parse_declarations { lex; look = L.next lex } with
  | doc -> Ok doc
  | exception L.Error (msg, pos) -> lexical_error msg pos
  | exception Parse_error m -> (
    match rest_lexes () with
    | Some (msg, pos) -> lexical_error msg pos
    | None -> Error m)

(* --- Printers ----------------------------------------------------------- *)

let print_value ppf = function
  | Value.Int n -> Fmt.int ppf n
  | Value.Str s -> Fmt.pf ppf "'%s'" s
  | Value.Bool b -> Fmt.bool ppf b

let print_type ppf d =
  match d with
  | Domain.Infinite Domain.Dint -> Fmt.string ppf "int"
  | Domain.Infinite Domain.Dstr -> Fmt.string ppf "string"
  | Domain.Infinite Domain.Dbool -> Fmt.string ppf "bool"
  | Domain.Finite vs ->
    if Domain.equal d Domain.boolean then Fmt.string ppf "bool"
    else Fmt.pf ppf "enum(%a)" Fmt.(list ~sep:(any ", ") print_value) vs

let print_schema ppf rel =
  let attr ppf a =
    Fmt.pf ppf "%s: %a" (Attribute.name a) print_type (Attribute.domain a)
  in
  Fmt.pf ppf "schema %s(%a);"
    (Schema.relation_name rel)
    Fmt.(list ~sep:(any ", ") attr)
    (Schema.attributes rel)

let print_entry ppf (a, p) =
  match p with
  | P.Wild -> Fmt.string ppf a
  | P.Const v -> Fmt.pf ppf "%s=%a" a print_value v
  | P.Svar -> Fmt.string ppf a

let print_cfd ppf c =
  if C.is_attr_eq c then
    match c.C.lhs, c.C.rhs with
    | [ (a, _) ], (b, _) -> Fmt.pf ppf "cfd %s(%s == %s);" c.C.rel a b
    | _ -> assert false
  else
    Fmt.pf ppf "cfd %s([%a] -> [%a]);" c.C.rel
      Fmt.(list ~sep:(any ", ") print_entry)
      c.C.lhs print_entry c.C.rhs

let print_cind ppf (c : Cfds.Cind.t) =
  let side ppf (s : Cfds.Cind.side) =
    let cond ppf (a, v) = Fmt.pf ppf "%s=%a" a print_value v in
    Fmt.pf ppf "%s([%a]; [%a])" s.Cfds.Cind.rel
      Fmt.(list ~sep:(any ", ") string)
      s.Cfds.Cind.attrs
      Fmt.(list ~sep:(any ", ") cond)
      s.Cfds.Cind.condition
  in
  Fmt.pf ppf "cind %a <= %a;" side c.Cfds.Cind.lhs side c.Cfds.Cind.rhs

let print_view ppf (v : Spc.t) =
  let atom ppf (a : Spc.atom) =
    Fmt.pf ppf "%s(%a)" a.Spc.base
      Fmt.(list ~sep:(any ", ") string)
      (List.map Attribute.name a.Spc.attrs)
  in
  let sel ppf = function
    | Spc.Sel_eq (a, b) -> Fmt.pf ppf "%s=%s" a b
    | Spc.Sel_const (a, c) -> Fmt.pf ppf "%s=%a" a print_value c
  in
  let pconst ppf (a, c) =
    Fmt.pf ppf "%s=%a" (Attribute.name a) print_value c
  in
  Fmt.pf ppf "view %s = from [%a]" v.Spc.name Fmt.(list ~sep:(any ", ") atom) v.Spc.atoms;
  if v.Spc.selection <> [] then
    Fmt.pf ppf " where [%a]" Fmt.(list ~sep:(any ", ") sel) v.Spc.selection;
  if v.Spc.constants <> [] then
    Fmt.pf ppf " constants [%a]" Fmt.(list ~sep:(any ", ") pconst) v.Spc.constants;
  Fmt.pf ppf " project [%a];" Fmt.(list ~sep:(any ", ") string) v.Spc.projection

let print_data ppf d =
  List.iter
    (fun rel ->
      let name = Schema.relation_name rel in
      let inst = Database.instance d name in
      if not (Relation.is_empty inst) then begin
        let row ppf t =
          Fmt.pf ppf "(%a)"
            Fmt.(list ~sep:(any ", ") print_value)
            (Array.to_list t)
        in
        Fmt.pf ppf "data %s = %a;@." name
          Fmt.(list ~sep:(any ", ") row)
          (Relation.tuples inst)
      end)
    (Schema.relations (Database.schema d))

let print_document ppf d =
  List.iter (fun r -> Fmt.pf ppf "%a@." print_schema r) (Schema.relations d.schema);
  List.iter (fun c -> Fmt.pf ppf "%a@." print_cfd c) d.cfds;
  List.iter (fun c -> Fmt.pf ppf "%a@." print_cind c) d.cinds;
  List.iter (fun v -> Fmt.pf ppf "%a@." print_view v) d.views;
  print_data ppf d.data
