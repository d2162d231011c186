(** Why-provenance for the propagation cover: a recorder of immutable
    derivation nodes recording {e how} every CFD flowing through
    [PropCFD_SPC] was obtained, so each member of the final cover maps
    back to the multiset of source CFDs (members of Σ) it was derived
    from.

    A recorder is a value owned by the run that fills it: pass one to
    {!Propcover.cover} ([?provenance]) and that run's {!Ir.ctx} carries
    it to every record site ({!Rbr} resolvents, {!Compute_eq} classes,
    {!Mincover} LHS reductions, the renaming/normalisation steps of
    {!Propcover}).  A run without one pays a single test of its context
    per site, and the covers computed are identical either way (checked
    by the transparency property in the test suite).  Runs on different
    recorders never see each other, so they may execute concurrently.

    CFDs are interned by canonical form: a CFD derived more than once
    keeps its {e first} derivation, parents are interned before children,
    and node ids strictly decrease from child to parent — the arena is a
    DAG by construction.  Writers are serialised by the recorder's lock
    (the partitioned prune records from pool workers).

    The pipeline records {e interned} CFDs: the arena keys them on
    (context stamp, {!Ir.t}) — canonical ids, no re-sorting of string
    ASTs per record — and holds each node's AST lazily.  The AST is only
    produced at the query/render edges ({!find}, {!node}, {!sources},
    {!pp_tree}, {!to_json}), which index the nodes recorded so far by
    AST on demand, first derivation winning. *)

(** How a node's CFD was obtained from its parents. *)
type rule = Ir.rule =
  | Axiom  (** a member of the original Σ (or an externally given CFD) *)
  | Renamed of string
      (** attribute/relation renaming; the payload says which step
          (view atom, equivalence representative) *)
  | Normalised  (** [strip_redundant_wildcards] / constant-form rewrite *)
  | Resolvent of string  (** RBR resolvent on the named dropped attribute *)
  | Eq_class
      (** emitted from a ComputeEQ equivalence class (EQ2CFD output or
          key CFD); parents are the class's contributing CFDs *)
  | Rc_constant  (** a constant column of the view — no CFD parents *)
  | Lhs_reduced
      (** MinCover LHS reduction; parents are the original CFD plus the
          implication witness (the rules that fired in the chase) *)

type node = { id : int; cfd : Cfds.Cfd.t; rule : rule; parents : int list }

(** A recorder: the arena one run records into. *)
type t = Ir.arena

(** A fresh, empty recorder. *)
val create : unit -> t

(** [records ctx] — does [ctx] carry a recorder?  Sites that would do
    extra work only to feed a record (ComputeEQ's contributor lists,
    MinCover's fired-rule witness) test this first. *)
val records : Ir.ctx -> bool

(** [record_ir ctx ic rule parents] interns a derivation into [ctx]'s
    recorder: no-op when [ctx] has none or when [ic] already has a node
    (first derivation wins).  Parents without a node yet are interned as
    {!Axiom} leaves.  No AST is built: the node's AST stays a thunk until
    a query edge forces it. *)
val record_ir : Ir.ctx -> Ir.t -> rule -> Ir.t list -> unit

(** [record_axiom_ir ctx ic] marks a CFD as a leaf (a member of Σ). *)
val record_axiom_ir : Ir.ctx -> Ir.t -> unit

val record_axioms_ir : Ir.ctx -> Ir.t list -> unit

(** [alias_ir ctx child rule parent] records a unary rewriting step,
    skipped when [child] and [parent] are equal ({!Ir.equal}: the IR is
    canonical by construction). *)
val alias_ir : Ir.ctx -> Ir.t -> rule -> Ir.t -> unit

(** Number of nodes in the recorder. *)
val size : t -> int

(** The node of a CFD (looked up by canonical form). *)
val find : t -> Cfds.Cfd.t -> node option

(** [node t id] — raises [Invalid_argument] on unknown ids. *)
val node : t -> int -> node

(** [sources t cfd] is the multiset of {!Axiom} leaves below [cfd]'s node:
    each source CFD with its number of derivation paths (saturating),
    sorted.  Empty when the CFD has no node or descends only from
    view-definition facts (selection/constants). *)
val sources : t -> Cfds.Cfd.t -> (Cfds.Cfd.t * int) list

val rule_label : rule -> string

(** [pp_tree t ppf cfd] prints the derivation tree (the DAG re-expanded,
    shared subtrees in full), one node per line as
    ["<cfd>  [<rule>]"], children indented with box-drawing rails;
    [max_lines] (default 200) bounds the output.  [pp_cfd] overrides the
    CFD printer (e.g. the concrete-syntax one). *)
val pp_tree :
  ?pp_cfd:Cfds.Cfd.t Fmt.t ->
  ?max_lines:int ->
  t ->
  Format.formatter ->
  Cfds.Cfd.t ->
  unit

(** [to_json t roots] renders the sub-DAG reachable from [roots]:
    [{"cover": [{"cfd", "node", "sources": [{"cfd", "count"}]}],
    "nodes": [{"id", "cfd", "rule", "parents"}]}]. *)
val to_json : ?pp_cfd:Cfds.Cfd.t Fmt.t -> t -> Cfds.Cfd.t list -> string
