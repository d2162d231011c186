open Relational
module P = Cfds.Pattern
module C = Cfds.Cfd
module Term = Chase.Term
module Subst = Chase.Subst
module Engine = Chase.Engine
module Tableau = Chase.Tableau
module Instantiate = Chase.Instantiate

type strategy =
  | Auto of { budget : int }
  | Chase_only
  | Enumerate of { budget : int }

let default_strategy = Auto { budget = 200_000 }

type decision =
  | Propagated
  | Not_propagated of Database.t
  | Budget_exceeded

(* ------------------------------------------------------------------ *)
(* Constants mentioned by pattern tuples: the witness realisation must
   avoid them so that fresh values never accidentally match a pattern.   *)

let cfd_constants c =
  let of_pat = function P.Const v -> [ v ] | P.Wild | P.Svar -> [] in
  List.concat_map (fun (_, p) -> of_pat p) c.C.lhs @ of_pat (snd c.C.rhs)

let all_constants sigma phi =
  List.sort_uniq Value.compare (List.concat_map cfd_constants (phi :: sigma))

(* ------------------------------------------------------------------ *)
(* Violation checks on a chased fixpoint.                               *)

type violation = {
  var_avoid : (int * Value.t list) list;
      (** a violating realisation must keep these variables away from
          these values *)
  distinct : (int * int) list;
      (** … and keep these variable pairs distinct *)
}

let no_constraints = { var_avoid = []; distinct = [] }

(* Pair check: after chasing, t1[B] and t2[B] must be the same term and that
   term must respect the RHS pattern binding. *)
let examine_pair b1 b2 pat resolve =
  let b1 = resolve b1 and b2 = resolve b2 in
  if not (Term.equal b1 b2) then
    Some
      (match b1, b2 with
       | Term.V v, Term.V w -> { no_constraints with distinct = [ (v, w) ] }
       | _ -> no_constraints)
  else
    match pat, b1 with
    | P.Wild, _ -> None
    | P.Const a, Term.C c -> if Value.equal a c then None else Some no_constraints
    | P.Const a, Term.V v -> Some { no_constraints with var_avoid = [ (v, [ a ]) ] }
    | P.Svar, _ -> assert false

(* Single-copy check for a constant-RHS pattern: the pair (t, t) forces the
   binding t[B] ≍ tp[B] on every matching tuple. *)
let examine_binding b a resolve =
  match resolve b with
  | Term.C c -> if Value.equal a c then None else Some no_constraints
  | Term.V v -> Some { no_constraints with var_avoid = [ (v, [ a ]) ] }

(* Single-copy check for attribute-equality view CFDs. *)
let examine_attr_eq ta tb resolve =
  let ta = resolve ta and tb = resolve tb in
  if Term.equal ta tb then None
  else
    Some
      (match ta, tb with
       | Term.V v, Term.V w -> { no_constraints with distinct = [ (v, w) ] }
       | _ -> no_constraints)

(* ------------------------------------------------------------------ *)
(* One check = a chase instance plus an examination of its fixpoint.    *)

type check = {
  rows : Engine.instance;
  examine : (Term.t -> Term.t) -> violation option;
}

let rows_per_relation_le2 rows =
  let tbl = Hashtbl.create 8 in
  List.for_all
    (fun (r : Engine.row) ->
      let n = Schema.relation_name r.Engine.rel in
      let k = 1 + Option.value ~default:0 (Hashtbl.find_opt tbl n) in
      Hashtbl.replace tbl n k;
      k <= 2)
    rows

(* The PTIME special case of Theorem 3.3(a,b): plain-FD sources, at most two
   rows per source relation, roomy finite domains, wildcard-RHS view CFD.
   Under these conditions the un-instantiated chase is complete: any
   fixpoint can be realised with per-column-distinct values. *)
let shortcut_applies sigma fvars rows ~phi_wild_rhs =
  phi_wild_rhs
  && List.for_all C.is_fd_like sigma
  && rows_per_relation_le2 rows
  && List.for_all (fun (_, vs) -> List.length vs >= 3) fvars

(* Columns (relation name, attribute index) of the source schema that no CFD
   of Σ mentions.  Values in such columns can never fire a chase rule, so
   (a) variables occurring only there need no finite-domain instantiation,
   and (b) a witness realisation may reuse values there freely. *)
let inert_columns schema sigma =
  let non_inert = Hashtbl.create 32 in
  List.iter
    (fun c ->
      if Schema.mem schema c.C.rel then
        let rel = Schema.find schema c.C.rel in
        List.iter
          (fun a ->
            if Schema.mem_attr rel a then
              Hashtbl.replace non_inert (c.C.rel, Schema.attr_index rel a) ())
          (C.attrs c))
    sigma;
  List.concat_map
    (fun rel ->
      let name = Schema.relation_name rel in
      List.filteri
        (fun i _ -> not (Hashtbl.mem non_inert (name, i)))
        (List.mapi (fun i _ -> (name, i)) (Schema.attributes rel)))
    (Schema.relations schema)

(* Keep only variables whose value can influence the chase: at least one
   occurrence in a non-inert column, or a candidate set too small to leave
   symbolic (a ≤1-element domain forces the value). *)
let relevant_fvars ~inert rows fvars =
  let inert_col (rel, i) =
    List.exists
      (fun (n, j) -> String.equal n (Schema.relation_name rel) && i = j)
      inert
  in
  let var_cols = Hashtbl.create 32 in
  List.iter
    (fun (r : Engine.row) ->
      Array.iteri
        (fun i t ->
          match t with
          | Term.V v ->
            Hashtbl.replace var_cols v
              ((r.Engine.rel, i)
              :: Option.value ~default:[] (Hashtbl.find_opt var_cols v))
          | Term.C _ -> ())
        r.Engine.terms)
    rows;
  List.filter
    (fun (v, candidates) ->
      List.length candidates < 2
      ||
      match Hashtbl.find_opt var_cols v with
      | None -> false
      | Some cols -> not (List.for_all inert_col cols))
    fvars

let run_check ~strategy ~budget_left ~sigma ~schema ~avoid ~phi_wild_rhs ~inert
    check =
  let examine_fixpoint assignment inst resolve =
    let resolve_full t =
      let t =
        match t with
        | Term.V v ->
          (match List.assoc_opt v assignment with
           | Some value -> Term.C value
           | None -> t)
        | Term.C _ -> t
      in
      resolve t
    in
    match check.examine resolve_full with
    | None -> `Ok
    | Some violation ->
      let witness =
        Engine.to_database ~inert_columns:inert schema inst ~extra_avoid:avoid
          ~var_avoid:violation.var_avoid ~distinct_vars:violation.distinct
      in
      `Violation witness
  in
  let chase_once assignment rows =
    match Engine.run sigma rows with
    | Engine.Failed -> `Ok
    | Engine.Fixpoint (inst, resolve) -> examine_fixpoint assignment inst resolve
  in
  (* Enumeration with a generic pre-chase: merges forced by Σ hold in every
     instantiation, so instantiating the chased fixpoint is complete and
     usually leaves far fewer free finite-domain variables. *)
  let enumerate () =
    match Engine.run sigma check.rows with
    | Engine.Failed -> `Ok
    | Engine.Fixpoint (inst1, res1) ->
      let fvars =
        relevant_fvars ~inert inst1 (Instantiate.finite_vars inst1)
      in
      if fvars = [] then examine_fixpoint [] inst1 res1
      else
        let rec go seq =
          if !budget_left <= 0 then `Budget
          else
            match seq () with
            | Seq.Nil -> `Ok
            | Seq.Cons ((assignment, rows), rest) ->
              decr budget_left;
              (match Engine.run sigma rows with
               | Engine.Failed -> go rest
               | Engine.Fixpoint (inst2, res2) ->
                 (* Resolution chain: generic chase, then the instantiation
                    assignment, then the per-instantiation chase. *)
                 let resolve t =
                   let t = res1 t in
                   let t =
                     match t with
                     | Term.V v ->
                       (match List.assoc_opt v assignment with
                        | Some value -> Term.C value
                        | None -> t)
                     | Term.C _ -> t
                   in
                   res2 t
                 in
                 (match examine_fixpoint [] inst2 resolve with
                  | `Ok -> go rest
                  | `Violation w -> `Violation w))
        in
        go (Instantiate.enumerate fvars inst1)
  in
  match strategy with
  | Chase_only -> chase_once [] check.rows
  | Enumerate _ -> enumerate ()
  | Auto _ ->
    let fvars = Instantiate.finite_vars check.rows in
    if fvars = [] then chase_once [] check.rows
    else if shortcut_applies sigma fvars check.rows ~phi_wild_rhs then
      chase_once [] check.rows
    else enumerate ()

(* ------------------------------------------------------------------ *)
(* Building the checks for a view CFD over SPCU branches.               *)

exception Pass

let unify_lhs s phi t1 t2 =
  (* Apply the LHS pattern of [phi] across the two summaries: constants are
     bound on both copies, wildcards identify the copies' terms.  A conflict
     means no pair of view tuples can match the premise. *)
  let m a b =
    match Subst.merge s a b with
    | `Conflict -> raise Pass
    | `Changed | `Unchanged -> ()
  in
  List.iter
    (fun (c, p) ->
      let u1 = Tableau.summary_term t1 c and u2 = Tableau.summary_term t2 c in
      match p with
      | P.Const k ->
        m u1 (Term.C k);
        m u2 (Term.C k)
      | P.Wild -> m u1 u2
      | P.Svar -> assert false)
    phi.C.lhs

let apply_subst s rows =
  List.map
    (fun (r : Engine.row) -> { r with Engine.terms = Subst.apply_row s r.Engine.terms })
    rows

let pair_check gen phi vi vj ~same =
  match Tableau.of_spc ~gen vi with
  | Error `Statically_empty -> None
  | Ok t1 ->
    let t2 =
      if same then Some (Tableau.refresh ~gen t1)
      else
        match Tableau.of_spc ~gen vj with
        | Error `Statically_empty -> None
        | Ok t -> Some t
    in
    (match t2 with
     | None -> None
     | Some t2 ->
       let s = Subst.create () in
       (try
          unify_lhs s phi t1 t2;
          let b = fst phi.C.rhs in
          let b1 = Subst.resolve s (Tableau.summary_term t1 b) in
          let b2 = Subst.resolve s (Tableau.summary_term t2 b) in
          let rows = apply_subst s (t1.Tableau.rows @ t2.Tableau.rows) in
          Some { rows; examine = examine_pair b1 b2 (snd phi.C.rhs) }
        with Pass -> None))

let single_check gen phi v =
  match Tableau.of_spc ~gen v with
  | Error `Statically_empty -> None
  | Ok t ->
    if C.is_attr_eq phi then begin
      match phi.C.lhs, phi.C.rhs with
      | [ (a, _) ], (b, _) ->
        let ta = Tableau.summary_term t a and tb = Tableau.summary_term t b in
        Some { rows = t.Tableau.rows; examine = examine_attr_eq ta tb }
      | _ -> assert false
    end
    else
      match snd phi.C.rhs with
      | P.Wild -> None (* a single tuple cannot violate a wildcard RHS *)
      | P.Svar -> assert false
      | P.Const a ->
        let s = Subst.create () in
        (try
           List.iter
             (fun (c, p) ->
               match p with
               | P.Const k ->
                 (match Subst.merge s (Tableau.summary_term t c) (Term.C k) with
                  | `Conflict -> raise Pass
                  | `Changed | `Unchanged -> ())
               | P.Wild -> ()
               | P.Svar -> assert false)
             phi.C.lhs;
           let b = Subst.resolve s (Tableau.summary_term t (fst phi.C.rhs)) in
           Some { rows = apply_subst s t.Tableau.rows; examine = examine_binding b a }
         with Pass -> None)

let validate view phi =
  let schema = Spcu.view_schema view in
  (match C.check schema phi with
   | Ok () -> ()
   | Error m -> invalid_arg ("Propagate: " ^ m));
  let check_entry (a, p) =
    match p with
    | P.Const v ->
      if not (Domain.mem v (Attribute.domain (Schema.attr schema a))) then
        invalid_arg
          (Printf.sprintf "Propagate: pattern constant %s outside dom(%s)"
             (Value.to_string v) a)
    | P.Wild | P.Svar -> ()
  in
  List.iter check_entry phi.C.lhs;
  check_entry phi.C.rhs

let decide_spcu ?(strategy = default_strategy) view ~sigma phi =
  validate view phi;
  let schema = Spcu.source view in
  let avoid = all_constants sigma phi in
  let budget_left =
    ref (match strategy with Auto { budget } | Enumerate { budget } -> budget | Chase_only -> max_int)
  in
  let gen = Term.make_gen () in
  let phi_wild_rhs = (not (C.is_attr_eq phi)) && P.equal (snd phi.C.rhs) P.Wild in
  let checks =
    if C.is_attr_eq phi then
      (* Attribute equality is a per-tuple condition: single-copy checks. *)
      List.filter_map (fun b -> single_check gen phi b) view.Spcu.branches
    else
      let branches = Array.of_list view.Spcu.branches in
      let n = Array.length branches in
      let pairs = ref [] in
      for i = 0 to n - 1 do
        for j = i to n - 1 do
          match pair_check gen phi branches.(i) branches.(j) ~same:(i = j) with
          | Some c -> pairs := c :: !pairs
          | None -> ()
        done
      done;
      let singles =
        List.filter_map (fun b -> single_check gen phi b) view.Spcu.branches
      in
      !pairs @ singles
  in
  let inert = inert_columns schema sigma in
  let rec run = function
    | [] -> Propagated
    | check :: rest ->
      (match
         run_check ~strategy ~budget_left ~sigma ~schema ~avoid ~phi_wild_rhs
           ~inert check
       with
       | `Ok -> run rest
       | `Violation w -> Not_propagated w
       | `Budget -> Budget_exceeded)
  in
  run checks

let decide ?strategy v ~sigma phi =
  decide_spcu ?strategy (Spcu.of_spc v) ~sigma phi

let is_propagated ?strategy view ~sigma phi =
  match decide_spcu ?strategy view ~sigma phi with
  | Propagated -> true
  | Not_propagated _ -> false
  | Budget_exceeded -> failwith "Propagate.is_propagated: budget exceeded"
