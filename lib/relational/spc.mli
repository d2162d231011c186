(** SPC views in the normal form of Section 2.2:

    {v π_Y (Rc × Es),   Es = σ_F (Ec),   Ec = R1 × … × Rn v}

    where [Rc] is a single-tuple constant relation whose attributes all
    appear in [Y], each [Rj] is a renamed relation atom [ρ_j(S)] with
    attribute names pairwise disjoint across atoms, and [F] is a conjunction
    of equality atoms [A = B] and [A = 'a'] over the attributes of [Ec]. *)

(** A renamed relation atom [ρ_j(S)]: the base relation name and the renamed
    attributes, positionally matching the base schema. *)
type atom = {
  base : string;
  attrs : Attribute.t list;
}

(** One equality atom of the selection condition [F]. *)
type sel =
  | Sel_eq of string * string  (** [A = B] *)
  | Sel_const of string * Value.t  (** [A = 'a'] *)

type t = private {
  source : Schema.db;
  name : string;  (** name of the view relation [R_V] *)
  constants : (Attribute.t * Value.t) list;  (** the constant relation [Rc] *)
  atoms : atom list;
  selection : sel list;
  projection : string list;  (** [Y]; includes every [Rc] attribute *)
}

(** [atom source base names] renames relation [base] to attribute names
    [names] (domains copied positionally).
    Raises [Invalid_argument] on arity mismatch or unknown base. *)
val atom : Schema.db -> string -> string list -> atom

(** [make] validates the normal-form invariants listed above.  Atoms may be
    empty, in which case the view is the single [Rc] tuple. *)
val make :
  source:Schema.db ->
  name:string ->
  ?constants:(Attribute.t * Value.t) list ->
  ?selection:sel list ->
  atoms:atom list ->
  projection:string list ->
  unit ->
  (t, string) result

(** [make_exn] is [make] but raises [Invalid_argument] on error. *)
val make_exn :
  source:Schema.db ->
  name:string ->
  ?constants:(Attribute.t * Value.t) list ->
  ?selection:sel list ->
  atoms:atom list ->
  projection:string list ->
  unit ->
  t

(** The schema [R_V] of the view's answers: the projected attributes in
    projection order. *)
val view_schema : t -> Schema.relation

(** The attributes of [Es] (all atom attributes), i.e. the pre-projection
    columns the propagation-cover algorithm works over. *)
val body_attrs : t -> Attribute.t list

val body_attr : t -> string -> Attribute.t

(** The source relations some atom reads, sorted and de-duplicated.  Only
    CFDs on these relations can reach the propagation cover. *)
val bases : t -> string list

(** Which operators the view actually uses, for classifying it into the
    fragments S, P, C, SP, SC, PC, SPC of Section 2.2. *)
type fragment = {
  has_s : bool;  (** non-empty selection *)
  has_p : bool;  (** projection drops at least one body attribute *)
  has_c : bool;  (** at least two product factors (counting [Rc]) *)
}

val fragment : t -> fragment
val fragment_name : fragment -> string

(** [eval v d] materialises the view over database [d]. *)
val eval : t -> Database.t -> Relation.t

(** [to_algebra v] is the RA expression π_Y(Rc × σ_F(R1 × … × Rn)). *)
val to_algebra : t -> Algebra.t

(** [of_algebra db ~name q] normalises an RA expression into SPC normal
    form.  Fails on unions (use {!Spcu.of_algebra}), differences, and
    non-conjunctive selections.  Branches whose constant selections are
    statically false are rejected with an error. *)
val of_algebra : Schema.db -> name:string -> Algebra.t -> (t, string) result

(** [compile_branches db ~name q] normalises an RA expression into a list of
    union-compatible SPC branches (the SPCU normal form), distributing ∪
    over σ, π and ×.  Statically-empty branches are dropped. *)
val compile_branches :
  Schema.db -> name:string -> Algebra.t -> (t list, string) result

val pp : t Fmt.t
