open Relational

type t = {
  rel : string;
  lhs : (string * Pattern.sym) list;
  rhs : string * Pattern.sym;
}

let is_attr_eq_shape lhs rhs =
  match lhs, rhs with
  | [ (_, Pattern.Svar) ], (_, Pattern.Svar) -> true
  | _ -> false

let make rel lhs rhs =
  let names = List.map fst lhs in
  let sorted = List.sort String.compare names in
  let rec dup = function
    | a :: (b :: _ as rest) -> if String.equal a b then Some a else dup rest
    | [ _ ] | [] -> None
  in
  (match dup sorted with
   | Some a -> invalid_arg (Printf.sprintf "Cfd.make: duplicate LHS attribute %s" a)
   | None -> ());
  let has_svar =
    List.exists (fun (_, p) -> Pattern.equal p Pattern.Svar) lhs
    || Pattern.equal (snd rhs) Pattern.Svar
  in
  if has_svar && not (is_attr_eq_shape lhs rhs) then
    invalid_arg "Cfd.make: the special variable x only appears in (A -> B, (x || x))";
  { rel; lhs; rhs }

let attr_eq rel a b = make rel [ (a, Pattern.Svar) ] (b, Pattern.Svar)
let const_binding rel a v = make rel [ (a, Pattern.Wild) ] (a, Pattern.Const v)
let fd rel xs a = make rel (List.map (fun x -> (x, Pattern.Wild)) xs) (a, Pattern.Wild)
let is_attr_eq c = is_attr_eq_shape c.lhs c.rhs

let is_fd_like c =
  (not (is_attr_eq c))
  && List.for_all (fun (_, p) -> Pattern.equal p Pattern.Wild) c.lhs
  && Pattern.equal (snd c.rhs) Pattern.Wild

type general = {
  grel : string;
  glhs : (string * Pattern.sym) list;
  grhs : (string * Pattern.sym) list;
}

let normalize g = List.map (fun rhs -> make g.grel g.glhs rhs) g.grhs
let lhs_pattern c a = List.assoc_opt a c.lhs
let attrs c = List.sort_uniq String.compare (fst c.rhs :: List.map fst c.lhs)

let is_trivial c =
  if is_attr_eq c then
    match c.lhs, c.rhs with
    | [ (a, _) ], (b, _) -> String.equal a b
    | _ -> false
  else
    let a, eta2 = c.rhs in
    match lhs_pattern c a with
    | None -> false
    | Some eta1 ->
      Pattern.equal eta1 eta2
      || (Pattern.is_const eta1 && Pattern.equal eta2 Pattern.Wild)

let rename_attrs c map =
  let rn n = match List.assoc_opt n map with Some n' -> n' | None -> n in
  let exception Undefined in
  try
    let lhs =
      List.fold_left
        (fun acc (n, p) ->
          let n = rn n in
          match List.assoc_opt n acc with
          | None -> (n, p) :: acc
          | Some q ->
            (match Pattern.meet p q with
             | Some m -> (n, m) :: List.remove_assoc n acc
             | None -> raise Undefined))
        [] c.lhs
    in
    let a, pa = c.rhs in
    Some { c with lhs = List.rev lhs; rhs = (rn a, pa) }
  with Undefined -> None

let with_rel c r = { c with rel = r }

let check r c =
  let name = Schema.relation_name r in
  if not (String.equal c.rel name) then
    Error (Printf.sprintf "CFD is over %s, not %s" c.rel name)
  else
    match
      List.find_opt
        (fun a -> not (Schema.mem_attr r a))
        (List.map fst c.lhs @ [ fst c.rhs ])
    with
    | Some a -> Error (Printf.sprintf "%s has no attribute %s" name a)
    | None -> Ok ()

let satisfies_attr_eq r c =
  match c.lhs, c.rhs with
  | [ (a, _) ], (b, _) ->
    let schema = Relation.schema r in
    List.for_all
      (fun t -> Value.equal (Tuple.get schema t a) (Tuple.get schema t b))
      (Relation.tuples r)
  | _ -> assert false

let matching_tuples r c =
  let schema = Relation.schema r in
  List.filter
    (fun t ->
      List.for_all (fun (n, p) -> Pattern.matches (Tuple.get schema t n) p) c.lhs)
    (Relation.tuples r)

let lhs_key schema c t = List.map (fun (n, _) -> Tuple.get schema t n) c.lhs

let violations r c =
  if is_attr_eq c then
    match c.lhs, c.rhs with
    | [ (a, _) ], (b, _) ->
      let schema = Relation.schema r in
      List.filter_map
        (fun t ->
          if Value.equal (Tuple.get schema t a) (Tuple.get schema t b) then None
          else Some (t, t))
        (Relation.tuples r)
    | _ -> assert false
  else
    let schema = Relation.schema r in
    let a, pa = c.rhs in
    let matching = matching_tuples r c in
    (* Binding violations: a matching tuple whose RHS value breaks tp[A]. *)
    let binding =
      List.filter_map
        (fun t ->
          if Pattern.matches (Tuple.get schema t a) pa then None else Some (t, t))
        matching
    in
    (* Pair violations: matching tuples agreeing on X but not on A. *)
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun t ->
        let k = lhs_key schema c t in
        Hashtbl.replace tbl k (t :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
      matching;
    let pairs =
      Hashtbl.fold
        (fun _ group acc ->
          let rec all_pairs = function
            | [] -> []
            | t :: rest ->
              List.filter_map
                (fun t' ->
                  if Value.equal (Tuple.get schema t a) (Tuple.get schema t' a) then
                    None
                  else Some (t, t'))
                rest
              @ all_pairs rest
          in
          all_pairs group @ acc)
        tbl []
    in
    binding @ pairs

let satisfies r c =
  if is_attr_eq c then satisfies_attr_eq r c else violations r c = []

let satisfies_all r cs = List.for_all (satisfies r) cs

let canonical c =
  { c with lhs = List.sort (fun (a, _) (b, _) -> String.compare a b) c.lhs }

let strip_redundant_wildcards c =
  match snd c.rhs with
  | Pattern.Const _ when not (is_attr_eq c) ->
    { c with lhs = List.filter (fun (_, p) -> not (Pattern.equal p Pattern.Wild)) c.lhs }
  | Pattern.Const _ | Pattern.Wild | Pattern.Svar -> c

let equal a b =
  String.equal a.rel b.rel
  && List.length a.lhs = List.length b.lhs
  && List.for_all2
       (fun (n1, p1) (n2, p2) -> String.equal n1 n2 && Pattern.equal p1 p2)
       (List.sort compare a.lhs) (List.sort compare b.lhs)
  && String.equal (fst a.rhs) (fst b.rhs)
  && Pattern.equal (snd a.rhs) (snd b.rhs)

let compare = Stdlib.compare

let pp ppf c =
  let pp_entry ppf (n, p) =
    match p with
    | Pattern.Wild -> Fmt.string ppf n
    | _ -> Fmt.pf ppf "%s=%a" n Pattern.pp p
  in
  Fmt.pf ppf "%s([%a] -> %a)" c.rel
    Fmt.(list ~sep:(any ", ") pp_entry)
    c.lhs pp_entry c.rhs
