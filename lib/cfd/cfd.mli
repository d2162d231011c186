(** Conditional functional dependencies in the normal form [(R: X → A, tp)]
    used throughout Section 4: a single right-hand-side attribute.

    Plain FDs are the special case where every pattern entry is ['_'].  View
    CFDs additionally admit the attribute-equality form [R(A → B, (x ‖ x))]
    stating [t\[A\] = t\[B\]] for every view tuple, and the constant form
    [R(A → A, (_ ‖ a))] stating that column [A] holds the constant [a]. *)

open Relational

type t = private {
  rel : string;  (** the relation (or view) the CFD is defined on *)
  lhs : (string * Pattern.sym) list;  (** [X] with its pattern [tp\[X\]] *)
  rhs : string * Pattern.sym;  (** [A] with its pattern [tp\[A\]] *)
}

(** [make rel lhs rhs] builds a CFD.  Validates: LHS attribute names are
    distinct; [Svar] appears only in the attribute-equality shape
    [(\[(a, Svar)\], (b, Svar))]. *)
val make : string -> (string * Pattern.sym) list -> string * Pattern.sym -> t

(** [attr_eq rel a b] is the view CFD [R(a → b, (x ‖ x))]. *)
val attr_eq : string -> string -> string -> t

(** [const_binding rel a v] is [R(a → a, (_ ‖ v))]: column [a] is
    constantly [v]. *)
val const_binding : string -> string -> Value.t -> t

(** [fd rel xs a] is the plain FD [xs → a] as an all-wildcard CFD. *)
val fd : string -> string list -> string -> t

val is_attr_eq : t -> bool

(** [is_fd_like c] holds when every pattern entry is ['_'], i.e. [c] is a
    traditional FD. *)
val is_fd_like : t -> bool

(** The general form of Definition 2.1 — multiple RHS attributes — and its
    linear-time conversion to an equivalent set of normal-form CFDs. *)
type general = {
  grel : string;
  glhs : (string * Pattern.sym) list;
  grhs : (string * Pattern.sym) list;
}

val normalize : general -> t list

(** [lhs_pattern c a] is [tp\[a\]] for [a ∈ X], if present. *)
val lhs_pattern : t -> string -> Pattern.sym option

val attrs : t -> string list

(** [is_trivial c] implements the (non)triviality test of Section 4.1: a
    CFD [(X → A, tp)] is trivial iff [A ∈ X] and, writing [η1] for the LHS
    pattern of [A] and [η2] for the RHS pattern, either [η1 = η2] or
    [η1] is a constant and [η2 = '_'].  Attribute-equality CFDs
    [a = a] are also trivial. *)
val is_trivial : t -> bool

(** [rename_attrs c map] renames attributes via the partial map; attributes
    outside the map are kept.  Used to push source CFDs through the renaming
    ρ_j of a view atom.  Duplicate LHS entries created by the renaming are
    combined with {!Pattern.meet}; [None] is returned when the meet is
    undefined (the renamed CFD has an unsatisfiable premise and can be
    dropped). *)
val rename_attrs : t -> (string * string) list -> t option

(** [with_rel c r] re-homes the CFD on relation [r]. *)
val with_rel : t -> string -> t

(** [check r c] is [Ok ()] when [c] is a CFD on relation [r] that names
    only attributes of [r], else an [Error] saying which part is not.
    Every edge where CFDs enter the program (the parser, the CLI's CFD
    argument, the serve protocol, the propagation decision procedure)
    runs this one check. *)
val check : Schema.relation -> t -> (unit, string) result

(** [satisfies r c] decides [r |= c].  Implements Definition 2.1's
    semantics, including the pair [(t, t)] — so a matching tuple must also
    satisfy the constant binding of the RHS pattern — and the special
    per-tuple semantics of attribute-equality CFDs. *)
val satisfies : Relation.t -> t -> bool

val satisfies_all : Relation.t -> t list -> bool

(** [violations r c] lists the violating tuple pairs; a binding violation by
    a single tuple [t] is reported as [(t, t)]. *)
val violations : Relation.t -> t -> (Tuple.t * Tuple.t) list

(** [canonical c] sorts the LHS by attribute name — a canonical
    representative for deduplication. *)
val canonical : t -> t

(** [strip_redundant_wildcards c] removes wildcard LHS entries from
    constant-RHS CFDs: because satisfaction quantifies over the pair
    [(t, t)], [(X C → A, (tp\[X\], _ ‖ a))] already forces [t\[A\] = a] on
    every tuple matching [tp\[X\]], whatever [t\[C\]] is — the two CFDs are
    equivalent.  The normalisation is what makes RBR's resolution see
    through such CFDs when [C] is projected away. *)
val strip_redundant_wildcards : t -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : t Fmt.t
