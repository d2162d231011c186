(** Procedure [ComputeEQ] (Section 4.2): partition the pre-projection
    attributes of an SPC view into equivalence classes [EQ], driven by the
    selection condition [F] and by source CFDs whose left-hand side is fully
    determined by constants.

    Each class [eq] may carry a constant [key(eq)]; two distinct keys for
    one class signal that the view is always empty ([⊥], Lemma 4.5), and
    procedure [EQ2CFD] (Fig. 4) converts the classes into view CFDs
    (Lemma 4.2).

    The procedure runs over interned attribute ids and CFDs ({!Ir}), with
    a flat-array union-find.  Its EQ2CFD output records why-provenance
    into the context's recorder ({!Provenance}), if it has one. *)

open Relational

type eq_class = {
  attrs : int list;  (** members, sorted by id *)
  key : Value.t option;  (** the constant all members equal, if known *)
  contribs : Ir.t list;
      (** the CFDs (of the already-renamed [sigma]) whose firings shaped
          this class, sorted and deduplicated — the class's
          why-provenance.  Empty when the context records nothing or the
          class follows from the selection condition alone. *)
}

type t =
  | Classes of eq_class list  (** sorted by member list *)
  | Bottom  (** inconsistent: the view is empty on all Σ-satisfying sources *)

(** [compute ctx ~body ~selection ~sigma] computes [EQ] over the interned
    pre-projection attribute ids [body] (the attributes of [Es]);
    [selection] names resolve to already interned ids, and [sigma] must
    already be renamed to the body attribute namespace.  The closure
    applies any CFD whose LHS classes all have keys matching its pattern:
    a constant RHS pattern keys the RHS class. *)
val compute :
  Ir.ctx -> body:int list -> selection:Spc.sel list -> sigma:Ir.t list -> t

(** [class_of classes a] finds [a]'s class, if any. *)
val class_of : eq_class list -> int -> eq_class option

(** [representatives classes ~prefer] picks one representative per class —
    the first member satisfying [prefer] (membership of the projection
    list [Y], line 8 of Fig. 2), else the lowest id — and returns the
    attribute→representative map. *)
val representatives :
  eq_class list -> prefer:(int -> bool) -> (int * int) list

(** [EQ2CFD] (Fig. 4): convert the classes, restricted to the view
    attributes [y] (projection membership), into view CFDs on relation
    [view]: a keyed class yields [A → A, (_ ‖ key)] for each member; an
    unkeyed class yields the attribute-equality CFDs [(A → B, (x ‖ x))].
    Each emitted CFD is recorded with its class's contributors as
    parents. *)
val to_cfds :
  Ir.ctx -> view:string -> y:(int -> bool) -> eq_class list -> Ir.t list
