(** The pipeline-wide interned CFD representation.

    [PropCFD_SPC] is a pipeline — MinCover → ComputeEQ → renaming → RBR →
    EQ2CFD → MinCover — and every stage used to speak its own CFD dialect:
    the string-keyed {!Cfds.Cfd.t} AST between stages, RBR's private
    interned form inside [reduce], and {!Fast_impl}'s positional form
    inside every MinCover.  This module is the one representation they all
    consume and produce natively: attribute names are interned once per
    {!ctx} (one [cover] run), LHS rows are id-sorted arrays, and the string
    AST survives only at the edges (parser/CLI input, [--why]/trace/JSON
    output).

    {2 Interning discipline}

    A {!ctx} owns one {!Cfds.Interner.t} spanning {e all} attribute names a
    [cover] run touches — source, renamed, and view.  Interning is
    single-writer: only the domain that created the context may call
    {!intern}/{!of_ast}/{!space} (pool workers get read-only access through
    {!name} and prebuilt {!space}s; the partitioned prune relies on this).
    The {!of_ast}/{!to_ast} edges tally the [ir.of_ast]/[ir.to_ast]
    counters, so the test suite can assert the interior of a pipeline run
    performs zero AST↔IR conversions. *)

(** One interning context: an interner, a unique stamp (used by
    {!Provenance} to key a recorder shared by several contexts) and the
    run's provenance recorder, if any. *)
type ctx

(** An interned CFD, canonical by construction: the LHS is sorted by
    attribute id with distinct ids.  The fields are readable (the engine's
    hot loops pattern-match them) but construction goes through the
    smart constructors below. *)
type t = private {
  rel : string;
  lhs : (int * Cfds.Pattern.sym) array;  (** id-sorted, ids distinct *)
  rhs : int * Cfds.Pattern.sym;
}

(** {2 Derivation records}

    The storage of a why-provenance recorder ({!Provenance.t}), declared
    here so that a context can carry the recorder of its run: the IR
    record sites reach it through their [ctx] argument, and a run
    without one records nothing.  {!Provenance} owns every operation on
    it; see {!Provenance.rule} for the rules. *)

type rule =
  | Axiom
  | Renamed of string
  | Normalised
  | Resolvent of string
  | Eq_class
  | Rc_constant
  | Lhs_reduced

type stored = { s_cfd : Cfds.Cfd.t Lazy.t; s_rule : rule; s_parents : int list }

type arena = {
  lock : Mutex.t;
  mutable nodes : stored array;
  mutable n_nodes : int;
  by_ir : (int * t, int) Hashtbl.t;  (** (context stamp, CFD) -> node id *)
  by_ast : (Cfds.Cfd.t, int) Hashtbl.t;
      (** canonical AST -> node id, filled on demand up to [indexed] *)
  mutable indexed : int;
}

(** [create_ctx ?recorder ()] — [recorder] receives the derivations of
    every stage run under the context. *)
val create_ctx : ?recorder:arena -> unit -> ctx

val recorder : ctx -> arena option
val interner : ctx -> Cfds.Interner.t
val stamp : ctx -> int

(** [intern ctx a] is the dense id of attribute name [a].  Single-writer:
    only the context-creating domain may call this. *)
val intern : ctx -> string -> int

(** [name ctx id] resolves an id back to its name (read-only, safe from
    pool workers). *)
val name : ctx -> int -> string

(** [make rel lhs rhs] sorts [lhs] by id and validates the same invariants
    as {!Cfds.Cfd.make}: distinct LHS ids, [Svar] only in the
    attribute-equality shape. *)
val make : string -> (int * Cfds.Pattern.sym) list -> int * Cfds.Pattern.sym -> t

(** The AST → IR edge.  Tallies [ir.of_ast]. *)
val of_ast : ctx -> Cfds.Cfd.t -> t

(** The IR → AST edge; the result is {!Cfds.Cfd.canonical}.  Tallies
    [ir.to_ast]. *)
val to_ast : ctx -> t -> Cfds.Cfd.t

val attr_eq : string -> int -> int -> t
val const_binding : string -> int -> Relational.Value.t -> t
val with_rel : t -> string -> t

val lhs_pattern : t -> int -> Cfds.Pattern.sym option

val is_attr_eq : t -> bool

(** The (non)triviality test of Section 4.1 (see {!Cfds.Cfd.is_trivial}). *)
val is_trivial : t -> bool

(** [mentions a ic]: does [a] appear in [ic] (LHS or RHS)? *)
val mentions : int -> t -> bool

(** Iterate the distinct attribute ids of [ic]. *)
val attrs_iter : t -> (int -> unit) -> unit

(** The attribute ids of [ic], sorted and deduplicated. *)
val attrs : t -> int list

(** [strip_redundant_wildcards ic] — see
    {!Cfds.Cfd.strip_redundant_wildcards}. *)
val strip_redundant_wildcards : t -> t

(** [drop_lhs ic a] removes the LHS entry for [a] (MinCover's candidate
    reductions). *)
val drop_lhs : t -> int -> t

(** [rename ic rn] maps every attribute id through [rn]; duplicate LHS ids
    created by the renaming are combined with {!Cfds.Pattern.meet}, [None]
    on an undefined meet (see {!Cfds.Cfd.rename_attrs}). *)
val rename : t -> (int -> int) -> t option

(** [resolvent phi1 phi2 ~on:a] — the A-resolvent (see {!Rbr.resolvent});
    [None] when undefined, trivial, or still mentioning [a].  Only a
    resolvent that is returned is allocated: whether the meet is defined
    and whether the merged row would be trivial are decided in one pass
    over the two rows first. *)
val resolvent : t -> t -> on:int -> t option

val equal : t -> t -> bool

(** A hash consistent with {!equal} that reads every LHS entry, the RHS
    and the relation, and allocates nothing — unlike the polymorphic
    [Hashtbl.hash], which stops after ten values, so long rows that share
    a prefix collide. *)
val hash : t -> int

(** Structural order: total and deterministic within one context (ids are
    assigned in first-intern order).  {e Not} the name-lexicographic order
    of {!Cfds.Cfd.compare}. *)
val compare : t -> t -> int

(** An attribute space: the positional frame one {!Fast_impl.compile_ir}
    site resolves ids against — built once per MinCover site per context. *)
type space

(** [space ctx ids] assigns positions [0 .. length ids - 1] in list
    order. *)
val space : ctx -> int list -> space

(** [space_of_schema ctx r] interns [r]'s attribute names, positions
    matching the schema's attribute order. *)
val space_of_schema : ctx -> Relational.Schema.relation -> space

val arity : space -> int

(** [pos sp id] is the position of [id] in the space, [-1] when absent. *)
val pos : space -> int -> int

val pp : ctx -> t Fmt.t
