(** The fleet's shared cross-view memo: a sharded, mutex-striped table
    from string keys to cached propagation artefacts, safe to consult and
    fill from every domain of a {!Parallel.Pool} concurrently.

    Keys are built by the callers ({!Fleet}, {!Mincover}) from a
    {e namespace} digest (source schema + Σ, so a memo can even be reused
    across fleets without confusion) plus a canonical
    payload-specific part — e.g. the {!Chase.Canon.key} of a canonicalised
    view, or a source relation name for a shared Σ-slice.  Values are
    plain ASTs (never interned {!Ir.t}): each view's cover call owns its
    private interning context, so cached entries must be context-free and
    re-interned on the way in.

    Locking discipline: one mutex per stripe, held only for the table
    probe or insert — never across a compute.  {!find_or_compute}
    therefore admits a bounded duplicate-compute race (two domains miss
    the same key and both compute); first insert wins, the loser's value
    is dropped and counted under [memo.races].  All cached computations
    are deterministic functions of their key, so the race is benign —
    whichever value lands is the value every later reader sees.

    Counters (through {!Obs}): [memo.hits], [memo.misses],
    [memo.inserts], [memo.races]; with the trace recorder on, each probe
    also emits a [memo.hit]/[memo.miss] instant on the calling domain's
    track. *)

type t

(** What a memo entry can hold. *)
type payload =
  | Cover of {
      cover : Cfds.Cfd.t list;
      complete : bool;
      always_empty : bool;
    }  (** a full per-view propagation cover (canonical names) *)
  | Cfds of Cfds.Cfd.t list
      (** an intermediate CFD list, e.g. a per-relation MinCover(Σ) slice *)
  | Verdict of bool  (** a cached implication verdict *)

(** [create ()] is an empty memo of 16 stripes. *)
val create : unit -> t

(** [find t key] probes the memo, bumping [memo.hits]/[memo.misses]. *)
val find : t -> string -> payload option

(** [add t key p] inserts first-wins: a concurrent duplicate is dropped
    and counted as [memo.races] instead of overwriting. *)
val add : t -> string -> payload -> unit

(** [find_or_compute t key f] is [find] then, on a miss, [f ()] + [add].
    Returns the payload and whether it was a hit.  [f] runs outside any
    stripe lock. *)
val find_or_compute : t -> string -> (unit -> payload) -> payload * bool

(** Total entries across stripes (locks each stripe briefly). *)
val entries : t -> int

(** {2 Key/digest helpers} *)

(** An unambiguous serialisation of a CFD list (relation, LHS attribute
    patterns, RHS), MD5-digested to hex.  Order-sensitive by design: the
    callers' CFD lists are already canonically sorted. *)
val digest_cfds : Cfds.Cfd.t list -> string

val digest_cfd : Cfds.Cfd.t -> string

(** [buf_cfd b rel lhs rhs] appends the serialisation {!digest_cfds} uses
    for one CFD, from its parts — so IR-level callers ({!Mincover}'s slice
    keys) can produce byte-identical digests through {!Ir.name} without an
    [ir.to_ast] conversion.  To match {!digest_cfds} of a
    {!Cfds.Cfd.canonical} AST, [lhs] must be name-sorted. *)
val buf_cfd :
  Buffer.t ->
  string ->
  (string * Cfds.Pattern.sym) list ->
  string * Cfds.Pattern.sym ->
  unit

(** [digest_string s] is MD5-hex of [s] — for clamping long canonical
    keys to fixed size. *)
val digest_string : string -> string

(** An unambiguous serialisation of a source schema (relation and
    attribute names, domain kinds) — the schema half of a namespace
    digest, shared by {!Fleet} and the serve-layer sessions. *)
val schema_string : Relational.Schema.db -> string
