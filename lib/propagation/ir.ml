module C = Cfds.Cfd
module P = Cfds.Pattern
module I = Cfds.Interner

(* The conversion edges are the only places the pipeline is allowed to
   touch the string AST; the drift guard requires both counters in the
   smoke-bench stats and a test pins them to the edge counts of a cover
   run. *)
let c_of_ast = Obs.counter "ir.of_ast"
let c_to_ast = Obs.counter "ir.to_ast"

type t = {
  rel : string;
  lhs : (int * P.sym) array;
  rhs : int * P.sym;
}

(* A why-provenance recorder's storage ([Provenance.t]).  It lives here
   because a context carries the recorder of its run and [Provenance]
   itself depends on this module; [Provenance] owns every operation. *)
type rule =
  | Axiom
  | Renamed of string
  | Normalised
  | Resolvent of string
  | Eq_class
  | Rc_constant
  | Lhs_reduced

type stored = { s_cfd : C.t Lazy.t; s_rule : rule; s_parents : int list }

type arena = {
  lock : Mutex.t;
  mutable nodes : stored array;
  mutable n_nodes : int;
  by_ir : (int * t, int) Hashtbl.t;
  by_ast : (C.t, int) Hashtbl.t;
  mutable indexed : int;
}

type ctx = {
  interner : I.t;
  stamp : int;
  recorder : arena option;
  (* ComputeEQ's union-find scratch, keyed by interner id and owned by the
     context so repeated [Compute_eq.compute] calls reuse one set of buffers.
     Single-writer like [intern]: only the ctx-owning domain may borrow it
     (ComputeEQ interns while it runs, so this already holds). *)
  mutable uf_parent : int array;
  mutable uf_keys : Relational.Value.t option array;
  mutable uf_contribs : t list array;
}

let next_stamp = Atomic.make 0

let create_ctx ?size ?recorder () =
  {
    interner = I.create ?size ();
    stamp = Atomic.fetch_and_add next_stamp 1;
    recorder;
    uf_parent = [||];
    uf_keys = [||];
    uf_contribs = [||];
  }

let interner ctx = ctx.interner
let stamp ctx = ctx.stamp
let recorder ctx = ctx.recorder
let intern ctx a = I.intern ctx.interner a
let name ctx id = I.name ctx.interner id

let scratch_uf ctx n =
  if Array.length ctx.uf_parent < n then begin
    let cap = max n (2 * Array.length ctx.uf_parent) in
    ctx.uf_parent <- Array.make cap 0;
    ctx.uf_keys <- Array.make cap None;
    ctx.uf_contribs <- Array.make cap []
  end;
  for i = 0 to n - 1 do
    ctx.uf_parent.(i) <- i;
    ctx.uf_keys.(i) <- None;
    ctx.uf_contribs.(i) <- []
  done;
  (ctx.uf_parent, ctx.uf_keys, ctx.uf_contribs)

let is_attr_eq ic =
  match ic.lhs, ic.rhs with
  | [| (_, P.Svar) |], (_, P.Svar) -> true
  | _ -> false

let sort_lhs arr = Array.sort (fun (i, _) (j, _) -> Int.compare i j) arr

let make rel lhs rhs =
  let arr = Array.of_list lhs in
  sort_lhs arr;
  for k = 1 to Array.length arr - 1 do
    if fst arr.(k - 1) = fst arr.(k) then
      invalid_arg "Ir.make: duplicate LHS attribute"
  done;
  let ic = { rel; lhs = arr; rhs } in
  let has_svar =
    Array.exists (fun (_, p) -> P.equal p P.Svar) arr
    || P.equal (snd rhs) P.Svar
  in
  if has_svar && not (is_attr_eq ic) then
    invalid_arg "Ir.make: the special variable x only appears in (A -> B, (x || x))";
  ic

let of_ast ctx (c : C.t) =
  Obs.incr c_of_ast;
  let arr =
    Array.of_list
      (List.map (fun (a, p) -> (I.intern ctx.interner a, p)) c.C.lhs)
  in
  sort_lhs arr;
  {
    rel = c.C.rel;
    lhs = arr;
    rhs = (I.intern ctx.interner (fst c.C.rhs), snd c.C.rhs);
  }

let to_ast ctx ic =
  Obs.incr c_to_ast;
  C.canonical
    (C.make ic.rel
       (Array.to_list
          (Array.map (fun (i, p) -> (I.name ctx.interner i, p)) ic.lhs))
       (I.name ctx.interner (fst ic.rhs), snd ic.rhs))

let attr_eq rel a b = { rel; lhs = [| (a, P.Svar) |]; rhs = (b, P.Svar) }
let const_binding rel a v = { rel; lhs = [| (a, P.Wild) |]; rhs = (a, P.Const v) }
let with_rel ic rel = { ic with rel }

(* Index of [a] in the id-sorted LHS, or -1.  Allocation-free (unlike the
   option-returning [lhs_pattern]) — [is_trivial] guards every implication
   query of the packed chase kernel, whose steady state must not touch the
   minor heap.  The search is a top-level recursion: a local [rec] would
   close over the array and cost a closure per call. *)
let rec lhs_bs (arr : (int * P.sym) array) a lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let i = fst arr.(mid) in
    if i = a then mid
    else if i < a then lhs_bs arr a (mid + 1) hi
    else lhs_bs arr a lo mid

let lhs_pattern_idx ic a = lhs_bs ic.lhs a 0 (Array.length ic.lhs)

let lhs_pattern ic a =
  let k = lhs_pattern_idx ic a in
  if k < 0 then None else Some (snd ic.lhs.(k))

let is_trivial ic =
  if is_attr_eq ic then fst ic.lhs.(0) = fst ic.rhs
  else
    let a, eta2 = ic.rhs in
    let k = lhs_pattern_idx ic a in
    k >= 0
    &&
    let eta1 = snd ic.lhs.(k) in
    P.equal eta1 eta2 || (P.is_const eta1 && P.equal eta2 P.Wild)

let mentions a ic = fst ic.rhs = a || lhs_pattern_idx ic a >= 0

let attrs_iter ic f =
  let r = fst ic.rhs in
  let seen_r = ref false in
  Array.iter
    (fun (i, _) ->
      if i = r then seen_r := true;
      f i)
    ic.lhs;
  if not !seen_r then f r

let attrs ic =
  let acc = ref [] in
  attrs_iter ic (fun a -> acc := a :: !acc);
  List.sort_uniq Int.compare !acc

let strip_redundant_wildcards ic =
  match snd ic.rhs with
  | P.Const _ when not (is_attr_eq ic) ->
    { ic with lhs = Array.of_seq (Seq.filter (fun (_, p) -> not (P.equal p P.Wild)) (Array.to_seq ic.lhs)) }
  | P.Const _ | P.Wild | P.Svar -> ic

let drop_lhs ic a =
  { ic with lhs = Array.of_seq (Seq.filter (fun (i, _) -> i <> a) (Array.to_seq ic.lhs)) }

exception Undefined

let rename ic rn =
  try
    let arr = Array.map (fun (i, p) -> (rn i, p)) ic.lhs in
    sort_lhs arr;
    (* Merge duplicate ids created by the renaming with the pattern meet
       (linear: the array is sorted). *)
    let n = Array.length arr in
    let out = ref [] in
    let k = ref 0 in
    while !k < n do
      let i, p = arr.(!k) in
      let m = ref p in
      incr k;
      while !k < n && fst arr.(!k) = i do
        (match P.meet !m (snd arr.(!k)) with
         | Some q -> m := q
         | None -> raise Undefined);
        incr k
      done;
      out := (i, !m) :: !out
    done;
    let a, pa = ic.rhs in
    Some
      {
        ic with
        lhs = Array.of_list (List.rev !out);
        rhs = (rn a, pa);
      }
  with Undefined -> None

(* Merge two id-sorted LHS rows, meeting patterns on shared attributes and
   skipping the eliminated attribute in [z].  Raises [Undefined] on an
   empty meet. *)
let merge_lhs w z ~skip =
  let nw = Array.length w and nz = Array.length z in
  let out = Array.make (nw + nz) (0, P.Wild) in
  let k = ref 0 in
  let push e =
    out.(!k) <- e;
    incr k
  in
  let i = ref 0 and j = ref 0 in
  while !i < nw || !j < nz do
    if !j < nz && fst z.(!j) = skip then incr j
    else if !i >= nw then begin
      push z.(!j);
      incr j
    end
    else if !j >= nz then begin
      push w.(!i);
      incr i
    end
    else begin
      let ai, pi = w.(!i) and aj, pj = z.(!j) in
      if ai < aj then begin
        push w.(!i);
        incr i
      end
      else if aj < ai then begin
        push z.(!j);
        incr j
      end
      else begin
        (match P.meet pi pj with
         | Some m -> push (ai, m)
         | None -> raise Undefined);
        incr i;
        incr j
      end
    end
  done;
  Array.sub out 0 !k

let resolvent phi1 phi2 ~on:a =
  if is_attr_eq phi1 || is_attr_eq phi2 then None
  else if fst phi1.rhs <> a then None
  else
    match lhs_pattern phi2 a with
    | None -> None
    | Some t2_a ->
      if not (P.leq (snd phi1.rhs) t2_a) then None
      else if lhs_pattern phi1 a <> None then None
      else if fst phi2.rhs = a then None
      else (
        try
          let merged = merge_lhs phi1.lhs phi2.lhs ~skip:a in
          let ic = { rel = phi1.rel; lhs = merged; rhs = phi2.rhs } in
          if is_trivial ic then None else Some ic
        with Undefined -> None)

let equal a b = a = b
let compare = Stdlib.compare

type space = { sp_arity : int; sp_pos : int array }

let space ctx ids =
  let sp_pos = Array.make (I.size ctx.interner) (-1) in
  let n = ref 0 in
  List.iter
    (fun id ->
      if sp_pos.(id) < 0 then begin
        sp_pos.(id) <- !n;
        incr n
      end)
    ids;
  { sp_arity = !n; sp_pos }

let space_of_schema ctx r =
  space ctx
    (List.map
       (fun a -> intern ctx (Relational.Attribute.name a))
       (Relational.Schema.attributes r))

let arity sp = sp.sp_arity
let pos sp id = if id >= 0 && id < Array.length sp.sp_pos then sp.sp_pos.(id) else -1

let pp ctx ppf ic =
  let pp_entry ppf (i, p) =
    match p with
    | P.Wild -> Fmt.string ppf (name ctx i)
    | _ -> Fmt.pf ppf "%s=%a" (name ctx i) P.pp p
  in
  Fmt.pf ppf "%s([%a] -> %a)" ic.rel
    Fmt.(list ~sep:(any ", ") pp_entry)
    (Array.to_list ic.lhs) pp_entry ic.rhs
