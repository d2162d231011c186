(** Minimal covers of CFD sets (Section 4.1, procedure [MinCover] of
    ref [8]): an equivalent subset with no redundant CFDs and no redundant
    LHS attributes.  Assumes the infinite-domain setting (implication is
    then PTIME).

    The redundancy-pruning loop compiles the rule set once and tests each
    candidate with a {!Fast_impl.mask} (leave-one-out bitset) instead of
    recompiling Σ ∖ {φ} per candidate — the former O(|Σ|²) compile work in
    the hot path of [PropCFD_SPC]'s line 1 and line 13.  Every function
    here decides implication with that one kernel. *)

open Relational

(** [minimal_cover_ir ctx space isigma] computes a minimal cover of
    [isigma], whose CFDs must mention only attributes of [space]:

    - trivial CFDs are removed (Section 4.1's nontriviality test);
    - for each CFD [(X → A, tp)], LHS attributes [C] with
      [Σ |= (X∖C → A, (tp\[X∖C\] ‖ tp\[A\]))] are removed;
    - CFDs implied by the rest are removed.

    One [Fast_impl.compile_ir] per call: accepted LHS reductions are
    patched into the compiled rules in place and the leave-one-out loop
    reuses them through the mask.  Candidates are tried in id order, so
    the result depends on [ctx]'s id assignment.  There is no relation
    re-homing (the pipeline interior keeps one uniform relation per
    site).  Never interns, so it is safe on pool workers with a prebuilt
    [space].  Its normalisation and LHS-reduction steps (with the
    chase's fired-rule witness) are recorded into [ctx]'s provenance
    recorder, if it has one. *)
val minimal_cover_ir : Ir.ctx -> Ir.space -> Ir.t list -> Ir.t list

(** [minimal_cover schema sigma] is {!minimal_cover_ir} on the AST:
    every CFD of [sigma] is read as a CFD on [schema], whatever relation
    it names, and [schema]'s attribute names are interned in name order,
    so the cover does not depend on their declaration order.  The result
    is sorted by {!Cfds.Cfd.compare}.  It records nothing. *)
val minimal_cover : Schema.relation -> Cfds.Cfd.t list -> Cfds.Cfd.t list

(** [minimal_cover_db_ir ctx db isigma] groups by relation and covers each
    group over its schema's space.  With [memo], each relation's slice
    cover is cached (as ASTs, re-interned on hit) under
    ["slice:<ns>:<relation>:<digest Σ_R>"] — [ns] must digest everything
    the slice depends on besides the relation name and its own CFDs (the
    schema); both the fleet driver's namespace and the serve sessions'
    satisfy that. *)
val minimal_cover_db_ir :
  ?memo:Memo.t * string ->
  Ir.ctx ->
  Schema.db ->
  Ir.t list ->
  Ir.t list

(** [prune_partitioned_ir ctx space ~chunk isigma] is the optimisation of
    Section 4.3 that RBR runs: partition [isigma] into chunks of size
    [chunk] and minimise each chunk independently — removes redundancy
    "to an extent" in [O(|Σ|·chunk²)] time instead of [O(|Σ|³)].  Chunks
    are independent, so [pool] distributes them over a domain pool; the
    result is identical to the sequential run (order-preserving map). *)
val prune_partitioned_ir :
  ?pool:Parallel.Pool.t ->
  Ir.ctx ->
  Ir.space ->
  chunk:int ->
  Ir.t list ->
  Ir.t list
