module C = Cfds.Cfd
module P = Cfds.Pattern
module I = Cfds.Interner
module Value = Relational.Value

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

type ctx = { interner : I.t; stamp : int; recorder : arena option }

let next_stamp = Atomic.make 0

let create_ctx ?recorder () =
  {
    interner = I.create ();
    stamp = Atomic.fetch_and_add next_stamp 1;
    recorder;
  }

let interner ctx = ctx.interner
let stamp ctx = ctx.stamp
let recorder ctx = ctx.recorder
let intern ctx a = I.intern ctx.interner a
let name ctx id = I.name ctx.interner id

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

(* Whether a row with RHS pattern [eta2] whose LHS holds the RHS attribute
   with [eta1] is trivial. *)
let trivial_at eta1 eta2 =
  P.equal eta1 eta2 || (P.is_const eta1 && P.equal eta2 P.Wild)

let is_trivial ic =
  if is_attr_eq ic then fst ic.lhs.(0) = fst ic.rhs
  else
    let a, eta2 = ic.rhs in
    let k = lhs_pattern_idx ic a in
    k >= 0 && trivial_at (snd ic.lhs.(k)) eta2

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

(* The resolvent test runs on every producer × consumer pair an RBR
   elimination step hands it, and most pairs fail, so the test allocates
   nothing: a first walk over the two id-sorted LHS rows decides whether
   every shared attribute's meet is defined and whether the merged row
   would be trivial, and only a row that passes is allocated, once, at its
   exact length, and filled by a second walk.  Neither row holds [Svar]
   ([resolvent] rejects the attr-eq shape, the only one that may), so a
   defined meet is the constant side if there is one, and the merged row
   shares its entries with [w] and [z].  The walk is a top-level
   recursion, which closes over nothing. *)
let meet_defined p q =
  match p, q with
  | P.Const x, P.Const y -> Value.equal x y
  | (P.Const _ | P.Wild), (P.Const _ | P.Wild) -> true
  | P.Svar, _ | _, P.Svar -> false

(* The length of the merge of [w] and [z] minus [skip], or -1 when [w]
   mentions [skip], a meet is undefined, or the entry for [b] makes the
   row with RHS [(b, eta2)] trivial.  Entries go to [out] unless it is
   empty. *)
let rec merge_walk out (w : (int * P.sym) array) z skip b eta2 i j n =
  let nw = Array.length w and nz = Array.length z in
  if j < nz && fst z.(j) = skip then merge_walk out w z skip b eta2 i (j + 1) n
  else if i < nw && fst w.(i) = skip then -1
  else if i >= nw && j >= nz then n
  else
    let from_w = j >= nz || (i < nw && fst w.(i) < fst z.(j)) in
    let from_z = (not from_w) && (i >= nw || fst z.(j) < fst w.(i)) in
    let both = not (from_w || from_z) in
    if both && not (meet_defined (snd w.(i)) (snd z.(j))) then -1
    else
      let e =
        if from_w || (both && P.is_const (snd w.(i))) then w.(i) else z.(j)
      in
      if fst e = b && trivial_at (snd e) eta2 then -1
      else begin
        if Array.length out > 0 then out.(n) <- e;
        merge_walk out w z skip b eta2
          (if from_z then i else i + 1)
          (if from_w then j else j + 1)
          (n + 1)
      end

let no_entry = (-1, P.Wild)

let resolvent phi1 phi2 ~on:a =
  if is_attr_eq phi1 || is_attr_eq phi2 then None
  else if fst phi1.rhs <> a || fst phi2.rhs = a then None
  else
    let k = lhs_pattern_idx phi2 a in
    if k < 0 || not (P.leq (snd phi1.rhs) (snd phi2.lhs.(k))) then None
    else
      let b, eta2 = phi2.rhs in
      let n = merge_walk [||] phi1.lhs phi2.lhs a b eta2 0 0 0 in
      if n < 0 then None
      else begin
        let lhs = Array.make n no_entry in
        ignore (merge_walk lhs phi1.lhs phi2.lhs a b eta2 0 0 0);
        Some { rel = phi1.rel; lhs; rhs = phi2.rhs }
      end

let rec lhs_equal (x : (int * P.sym) array) y k =
  k < 0
  || (fst x.(k) = fst y.(k)
     && P.equal (snd x.(k)) (snd y.(k))
     && lhs_equal x y (k - 1))

let equal a b =
  a == b
  || fst a.rhs = fst b.rhs
     && P.equal (snd a.rhs) (snd b.rhs)
     && Array.length a.lhs = Array.length b.lhs
     && lhs_equal a.lhs b.lhs (Array.length a.lhs - 1)
     && String.equal a.rel b.rel

(* A hash over every LHS entry, the RHS and the relation, consistent with
   [equal] and allocation-free.  The polymorphic [Hashtbl.hash] stops after
   ten values, so long rows that share a prefix would collide.  Entries are
   folded in arithmetically and the result is scrambled once. *)
let hash_sym = function
  | P.Wild -> 0x2f1
  | P.Svar -> 0x3a7
  | P.Const (Value.Int x) -> x
  | P.Const (Value.Str s) -> Hashtbl.hash s
  | P.Const (Value.Bool v) -> if v then 0x1b5 else 0x0d3

let mix h x = (h * 0x100_0193) lxor x

let rec hash_lhs lhs k h =
  if k >= Array.length lhs then h
  else
    let a, p = lhs.(k) in
    hash_lhs lhs (k + 1) (mix (mix h a) (hash_sym p))

let hash ic =
  let a, p = ic.rhs in
  Hashtbl.hash (hash_lhs ic.lhs 0 (mix (mix (Hashtbl.hash ic.rel) a) (hash_sym p)))

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
