(** Procedure [ComputeEQ] (Section 4.2): partition the pre-projection
    attributes of an SPC view into equivalence classes [EQ], driven by the
    selection condition [F] and by source CFDs whose left-hand side is fully
    determined by constants.

    Each class [eq] may carry a constant [key(eq)]; two distinct keys for
    one class signal that the view is always empty ([⊥], Lemma 4.5), and
    procedure [EQ2CFD] (Fig. 4) converts the classes into view CFDs
    (Lemma 4.2). *)

open Relational

type eq_class = {
  attrs : string list;  (** members, sorted *)
  key : Value.t option;  (** the constant all members equal, if known *)
}

type t =
  | Classes of eq_class list
  | Bottom  (** inconsistent: the view is empty on all Σ-satisfying sources *)

(** [compute ~body ~selection ~sigma] computes [EQ] over the attributes
    [body] (the attributes of [Es]).  [sigma] must already be renamed to the
    body attribute namespace.  The closure applies any CFD whose LHS classes
    all have keys matching its pattern: a constant RHS pattern keys the RHS
    class. *)
val compute :
  body:Attribute.t list ->
  selection:Spc.sel list ->
  sigma:Cfds.Cfd.t list ->
  t

(** [class_of eq a] finds [a]'s class, if any. *)
val class_of : eq_class list -> string -> eq_class option

(** [representatives classes ~prefer] picks one representative per class,
    preferring members of [prefer] (the projection list [Y], line 8 of
    Fig. 2), and returns the attribute→representative map. *)
val representatives :
  eq_class list -> prefer:string list -> (string * string) list

(** [EQ2CFD] (Fig. 4): convert the classes, restricted to the view
    attributes [y], into view CFDs on relation [view]: a keyed class yields
    [A → A, (_ ‖ key)] for each member; an unkeyed class yields the
    attribute-equality CFDs [(A → B, (x ‖ x))]. *)
val to_cfds : view:string -> y:string list -> eq_class list -> Cfds.Cfd.t list

val pp : t Fmt.t

(** {2 The IR path}

    The same procedure over interned attribute ids and CFDs: flat-array
    union-find.  [Propcover.cover] runs this variant; the AST one is kept
    for external callers and the unit suite.  Only this path records
    why-provenance, into the context's recorder ({!Provenance}). *)

type eq_class_ir = {
  iattrs : int list;  (** members, sorted by id *)
  ikey : Value.t option;
  icontribs : Ir.t list;
      (** the CFDs (of the already-renamed [sigma]) whose firings shaped
          this class, sorted and deduplicated — the class's
          why-provenance.  Empty when the context records nothing or the
          class follows from the selection condition alone. *)
}

type ir_result =
  | Classes_ir of eq_class_ir list
  | Bottom_ir

(** [compute_ir ctx ~body ~selection ~sigma] — [body] are the interned
    pre-projection attribute ids; [selection] names resolve to already
    interned ids. *)
val compute_ir :
  Ir.ctx ->
  body:int list ->
  selection:Spc.sel list ->
  sigma:Ir.t list ->
  ir_result

val class_of_ir : eq_class_ir list -> int -> eq_class_ir option

(** [representatives_ir classes ~prefer] picks one representative per
    class — the first member satisfying [prefer] (projection membership),
    else the lowest id. *)
val representatives_ir :
  eq_class_ir list -> prefer:(int -> bool) -> (int * int) list

(** [EQ2CFD] over the IR; [y] is projection membership.  Each emitted
    CFD is recorded with its class's contributors as parents. *)
val to_cfds_ir :
  Ir.ctx -> view:string -> y:(int -> bool) -> eq_class_ir list -> Ir.t list
