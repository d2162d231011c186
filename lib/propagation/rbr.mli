(** Reduction By Resolution (Section 4.2, Fig. 3), extended from FDs
    (Gottlob, PODS'87) to CFDs: computing a cover of the CFDs propagated
    through a projection by repeatedly "dropping" the non-projected
    attributes, shortcutting every CFD that mentions them with
    A-resolvents.

    Two implementations coexist.  The reference one ([resolvent], [drop])
    works over the string-keyed {!Cfds.Cfd.t} representation and resolves
    all pairs of the involved set; the property tests use it as the oracle.
    The engine driving [reduce]/[reduce_ir] works natively over the
    pipeline IR ({!Ir.t}: interned attribute ids, id-sorted LHS arrays):

    - {b Rows by node id.}  Each live row has a node id, assigned in
      insertion order; rows sit in an array indexed by id, and removing a
      row overwrites its slot with a dead sentinel, which is the alive
      test.  A dedup table maps each live row to its id; it hashes whole
      rows ({!Ir.hash}) and compares them with {!Ir.equal}.  A row that is
      removed and added again (a prune round diffs its result into the
      engine: stale rows removed, reduced ones added) gets a fresh id, so
      no bucket lists it live twice.
    - {b Int-vector buckets with lazy deletion.}  [by_rhs.(a)] and
      [by_lhs.(a)] are growable vectors of the ids of the rows whose RHS
      is [a], and of those with [a] in their LHS, in ascending id.  Adding
      a row appends its id; removing it touches no bucket: scans skip dead
      ids, and a full vector squeezes them out before it grows.
      Per-attribute degrees (live rows mentioning the attribute, for the
      min-degree order) are updated on every add and remove.  Dropping [a]
      frees both of [a]'s vectors: the step removes every row mentioning
      [a], and no resolvent mentions it.
    - {b The (attribute, pattern) join.}  [drop a] resolves the
      {i producers} (rhs = a) against the {i consumers} (a ∈ lhs), split
      by their pattern at [a]: a producer whose RHS pattern is [_] meets
      only the [_] consumers, one whose RHS is the constant [c] the [_] and
      the [c] consumers; attr-eq rows never resolve and are skipped.
      [rbr.pairs_tested] counts the pairs handed to the resolvent test.
    - {b The resolvent test} ({!Ir.resolvent}) decides in one walk over the
      two rows whether the meet is defined and whether the merged row would
      be trivial, and allocates only a resolvent it returns.
    - {b Scan order.}  Producers, and each producer's consumers, are
      visited in ascending id.  The cover does not depend on it (the result
      is extracted sorted by {!Ir.compare}), but provenance does: the first
      derivation of a row wins, so the order fixes which pair a repeated
      resolvent cites and how [--provenance-json] numbers its nodes.

    The engine is built exactly once per reduction, prune rounds included
    (counted by [rbr.engine_builds]). *)

open Relational

(** [resolvent phi1 phi2 ~on:a] is the A-resolvent of
    [phi1 = (W → a, t1)] and [phi2 = (aZ → B, t2)]: defined when
    [t1\[a\] ≤ t2\[a\]] and the pattern meet [t1\[W\] ⊕ t2\[Z\]] is defined,
    yielding [(WZ → B, (t1\[W\] ⊕ t2\[Z\] ‖ t2\[B\]))].  Returns [None] when
    undefined, when the result is trivial, or when the result still mentions
    [a] (such resolvents cannot help eliminate [a]). *)
val resolvent :
  Cfds.Cfd.t -> Cfds.Cfd.t -> on:string -> Cfds.Cfd.t option

(** [drop sigma a] is [Drop(Σ, A) = Res(Σ, A) ∪ Σ\[U − {A}\]]: all
    nontrivial A-resolvents plus the CFDs that do not mention [a].
    Reference implementation: all-pairs resolution over the involved set. *)
val drop : Cfds.Cfd.t list -> string -> Cfds.Cfd.t list

(** [drop_indexed sigma a] computes the same set as {!drop} through the
    indexed engine (producers joined with consumers).  One-shot wrapper used
    by the differential tests and micro-benchmarks; [reduce] keeps the
    engine alive across all elimination steps instead. *)
val drop_indexed : Cfds.Cfd.t list -> string -> Cfds.Cfd.t list

(** [reduce ?prune sigma ~drop_attrs] is [RBR(Σ, drop_attrs)]: drop each
    attribute in turn.  [prune] optionally bounds intermediate growth with
    the partitioned-MinCover optimisation of Section 4.3 (the pseudo
    relation schema and chunk size); [pool] parallelises that pruning over
    a domain pool (chunks are independent).

    [max_size], when given, turns the procedure into the paper's
    {e heuristic}: if the working set exceeds the bound, the computation
    stops and only the CFDs already free of dropped attributes are returned,
    flagged incomplete.

    [order] selects the elimination order: [`Min_degree] (default) greedily
    drops the attribute involved in the fewest CFDs, which avoids most
    intermediate blow-ups; [`Given] follows [drop_attrs] as written (the
    paper's Fig. 3 pops attributes in arbitrary order) — kept for the
    drop-order ablation.  Either order yields a cover (Proposition 4.4). *)
val reduce :
  ?prune:Schema.relation * int ->
  ?pool:Parallel.Pool.t ->
  ?max_size:int ->
  ?order:[ `Min_degree | `Given ] ->
  Cfds.Cfd.t list ->
  drop_attrs:string list ->
  Cfds.Cfd.t list * [ `Complete | `Truncated ]

(** [reduce_ir ~ctx isigma ~drop_ids] — {!reduce} natively over the
    pipeline IR: no conversion at either edge, and prune rounds diff the
    partitioned-MinCover result into the live engine (removing stale nodes,
    adding reduced ones) instead of rebuilding it — [rbr.engine_builds]
    stays at one per call.  [prune] takes a prebuilt {!Ir.space} covering
    every attribute the working set can mention.  Resolvents are recorded
    into [ctx]'s provenance recorder, if it has one. *)
val reduce_ir :
  ctx:Ir.ctx ->
  ?prune:Ir.space * int ->
  ?pool:Parallel.Pool.t ->
  ?max_size:int ->
  ?order:[ `Min_degree | `Given ] ->
  Ir.t list ->
  drop_ids:int list ->
  Ir.t list * [ `Complete | `Truncated ]
