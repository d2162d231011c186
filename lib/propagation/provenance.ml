module C = Cfds.Cfd

type rule = Ir.rule =
  | Axiom
  | Renamed of string
  | Normalised
  | Resolvent of string
  | Eq_class
  | Rc_constant
  | Lhs_reduced

type node = { id : int; cfd : C.t; rule : rule; parents : int list }

(* --- the recorder -------------------------------------------------------- *)

(* One arena per run, carried by the run's [Ir.ctx]: a stage whose context
   has no recorder skips every record site.  Nodes are immutable; the
   arena only ever appends.  A CFD derived more than once keeps its first
   derivation, so parent ids are always strictly smaller than the child's
   and the structure is a DAG by construction.  The lock serialises
   writers (the partitioned MinCover prune records from pool workers).

   Nodes are keyed on (context stamp, Ir.t) — the IR is canonical by
   construction, so no re-sorting of string ASTs happens per record — and
   hold their AST lazily (forced only at the query/render edges).  The
   AST-keyed index is filled on demand: every query first indexes the
   nodes recorded since the last one, first derivation winning. *)

type t = Ir.arena

let create () =
  {
    Ir.lock = Mutex.create ();
    nodes = [||];
    n_nodes = 0;
    by_ir = Hashtbl.create 256;
    by_ast = Hashtbl.create 256;
    indexed = 0;
  }

let records ctx = Option.is_some (Ir.recorder ctx)

(* Callers hold the lock. *)
let alloc_locked (a : t) ctx ic rule parents =
  let id = a.n_nodes in
  let s_cfd = lazy (Ir.to_ast ctx ic) in
  if id >= Array.length a.nodes then begin
    let nodes =
      Array.make
        (max 256 (2 * Array.length a.nodes))
        { Ir.s_cfd; s_rule = Axiom; s_parents = [] }
    in
    Array.blit a.nodes 0 nodes 0 id;
    a.nodes <- nodes
  end;
  a.nodes.(id) <- { s_cfd; s_rule = rule; s_parents = parents };
  a.n_nodes <- id + 1;
  Hashtbl.replace a.by_ir (Ir.stamp ctx, ic) id;
  id

let intern_locked (a : t) ctx ic =
  match Hashtbl.find_opt a.by_ir (Ir.stamp ctx, ic) with
  | Some id -> id
  | None -> alloc_locked a ctx ic Axiom []

let record_ir ctx ic rule parents =
  match Ir.recorder ctx with
  | None -> ()
  | Some a ->
    Mutex.lock a.lock;
    (* Parents first: their ids end up strictly below the child's. *)
    let pids = List.map (intern_locked a ctx) parents in
    if not (Hashtbl.mem a.by_ir (Ir.stamp ctx, ic)) then
      ignore (alloc_locked a ctx ic rule pids);
    Mutex.unlock a.lock

let record_axiom_ir ctx ic = record_ir ctx ic Axiom []
let record_axioms_ir ctx ics = List.iter (record_axiom_ir ctx) ics

(* [alias_ir ctx child rule parent]: a unary rewriting step (renaming,
   normalisation); skipped when the rewrite was the identity. *)
let alias_ir ctx child rule parent =
  if records ctx && not (Ir.equal child parent) then
    record_ir ctx child rule [ parent ]

(* --- queries ------------------------------------------------------------- *)

let size (a : t) =
  Mutex.lock a.lock;
  let n = a.n_nodes in
  Mutex.unlock a.lock;
  n

(* Callers hold the lock. *)
let index_locked (a : t) =
  for id = a.indexed to a.n_nodes - 1 do
    let cfd = Lazy.force a.nodes.(id).s_cfd in
    if not (Hashtbl.mem a.by_ast cfd) then Hashtbl.replace a.by_ast cfd id
  done;
  a.indexed <- a.n_nodes

let node_locked (a : t) id =
  let s = a.nodes.(id) in
  { id; cfd = Lazy.force s.s_cfd; rule = s.s_rule; parents = s.s_parents }

let find (a : t) cfd =
  Mutex.lock a.lock;
  index_locked a;
  let r =
    Option.map (node_locked a) (Hashtbl.find_opt a.by_ast (C.canonical cfd))
  in
  Mutex.unlock a.lock;
  r

let node (a : t) id =
  Mutex.lock a.lock;
  if id < 0 || id >= a.n_nodes then begin
    Mutex.unlock a.lock;
    invalid_arg "Provenance.node"
  end
  else begin
    let n = node_locked a id in
    Mutex.unlock a.lock;
    n
  end

(* Saturating addition: derivation-path counts can explode combinatorially
   on deep DAGs, and a multiset multiplicity only needs to stay ordered. *)
let sat_add a b = if a > max_int - b then max_int else a + b

let sources a cfd =
  match find a cfd with
  | None -> []
  | Some root ->
    (* Memoised DAG walk: per node, the multiset of Axiom leaves below it
       (as [id -> path count]). *)
    let memo : (int, (int, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
    let rec leaves id =
      match Hashtbl.find_opt memo id with
      | Some m -> m
      | None ->
        let n = node a id in
        let m = Hashtbl.create 8 in
        (match n.rule, n.parents with
         | Axiom, _ -> Hashtbl.replace m id 1
         | _, [] -> () (* a view-definition fact: no Σ leaves below *)
         | _, ps ->
           List.iter
             (fun p ->
               Hashtbl.iter
                 (fun leaf c ->
                   let prev = Option.value ~default:0 (Hashtbl.find_opt m leaf) in
                   Hashtbl.replace m leaf (sat_add prev c))
                 (leaves p))
             ps);
        Hashtbl.replace memo id m;
        m
    in
    Hashtbl.fold
      (fun leaf count acc -> ((node a leaf).cfd, count) :: acc)
      (leaves root.id) []
    |> List.sort (fun (a, _) (b, _) -> C.compare a b)

let rule_label = function
  | Axiom -> "source"
  | Renamed via -> Printf.sprintf "renamed (%s)" via
  | Normalised -> "normalised"
  | Resolvent a -> Printf.sprintf "resolvent on %s" a
  | Eq_class -> "equivalence class (ComputeEQ)"
  | Rc_constant -> "view constant"
  | Lhs_reduced -> "LHS reduction (MinCover)"

(* --- rendering ----------------------------------------------------------- *)

let default_pp_cfd = C.pp

let pp_tree ?(pp_cfd = default_pp_cfd) ?(max_lines = 200) a ppf cfd =
  match find a cfd with
  | None -> Fmt.pf ppf "%a  [no recorded derivation]@." pp_cfd cfd
  | Some root ->
    let budget = ref max_lines in
    (* The DAG is re-expanded as a tree; shared subtrees print in full
       (they are small in practice) under a global line budget. *)
    let rec go prefix child_prefix n =
      if !budget <= 0 then ()
      else begin
        decr budget;
        if !budget = 0 then Fmt.pf ppf "%s...@." prefix
        else begin
          Fmt.pf ppf "%s%a  [%s]@." prefix pp_cfd n.cfd (rule_label n.rule);
          let ps = n.parents in
          let last = List.length ps - 1 in
          List.iteri
            (fun i p ->
              let tee, pad =
                if i = last then ("`- ", "   ") else ("|- ", "|  ")
              in
              go (child_prefix ^ tee) (child_prefix ^ pad) (node a p))
            ps
        end
      end
    in
    go "" "" root

(* JSON: the reachable sub-DAG of the given roots plus, per root, its node
   id and source multiset. *)
let to_json ?(pp_cfd = default_pp_cfd) a roots =
  let b = Buffer.create 1024 in
  let escape s =
    let eb = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string eb "\\\""
        | '\\' -> Buffer.add_string eb "\\\\"
        | '\n' -> Buffer.add_string eb "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string eb (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char eb c)
      s;
    Buffer.contents eb
  in
  let cfd_str c = escape (Fmt.str "%a" pp_cfd c) in
  let reachable = Hashtbl.create 64 in
  let rec visit id =
    if not (Hashtbl.mem reachable id) then begin
      Hashtbl.replace reachable id ();
      List.iter visit (node a id).parents
    end
  in
  let root_nodes = List.map (find a) roots in
  List.iter (function Some n -> visit n.id | None -> ()) root_nodes;
  Buffer.add_string b "{\"cover\": [";
  List.iteri
    (fun i (cfd, n) ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b "\n    ";
      match n with
      | None -> Buffer.add_string b (Printf.sprintf "{\"cfd\": \"%s\"}" (cfd_str cfd))
      | Some (n : node) ->
        Buffer.add_string b
          (Printf.sprintf "{\"cfd\": \"%s\", \"node\": %d, \"sources\": ["
             (cfd_str cfd) n.id);
        List.iteri
          (fun j (src, count) ->
            if j > 0 then Buffer.add_string b ", ";
            Buffer.add_string b
              (Printf.sprintf "{\"cfd\": \"%s\", \"count\": %d}" (cfd_str src)
                 count))
          (sources a cfd);
        Buffer.add_string b "]}")
    (List.combine roots root_nodes);
  Buffer.add_string b "\n  ], \"nodes\": [";
  let ids = List.sort Int.compare (Hashtbl.fold (fun id () acc -> id :: acc) reachable []) in
  List.iteri
    (fun i id ->
      if i > 0 then Buffer.add_string b ",";
      let n = node a id in
      Buffer.add_string b
        (Printf.sprintf
           "\n    {\"id\": %d, \"cfd\": \"%s\", \"rule\": \"%s\", \"parents\": [%s]}"
           n.id (cfd_str n.cfd)
           (escape (rule_label n.rule))
           (String.concat ", " (List.map string_of_int n.parents))))
    ids;
  Buffer.add_string b "\n  ]}\n";
  Buffer.contents b
