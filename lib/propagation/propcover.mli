(** Algorithm [PropCFD_SPC] (Fig. 2): compute a minimal cover of {e all}
    CFDs propagated from source CFDs [Σ] through an SPC view
    [π_Y(Rc × σ_F(R1 × … × Rn))] — the propagation cover problem of
    Section 4.  Assumes the infinite-domain setting (as does the paper's
    Section 4).

    Pipeline: [MinCover(Σ)] → [ComputeEQ] over [F] and the renamed sources
    (⊥ short-circuits to the always-empty-view cover of Lemma 4.5) →
    renaming per product factor → representative substitution and key CFDs
    for the domain constraints (Lemmas 4.2/4.3) → [RBR] over the dropped
    attributes → [EQ2CFD] → final [MinCover].

    Only the CFDs on relations some view atom reads ({!Spc.bases}) enter
    the pipeline.  The rest would be minimised by line 1 and then dropped
    by the renaming of lines 5–6, and line 1 minimises each relation on
    its own, so skipping them cannot change the cover.

    Every run interns all (schema, view) attribute names in declaration
    order before Σ is seen, so the IR's id assignment — and every
    id-order tie-break in the pipeline — depends on the (schema, view)
    pair alone, never on Σ or its order.  Covers are therefore
    byte-identical under any permutation of Σ, and across Σ-deltas that
    leave the name-level pipeline inputs unchanged; the serve layer's
    resident sessions and the line-1 slice memo rely on this. *)

open Relational

type options = {
  prune_chunk : int option;
      (** partitioned-MinCover pruning inside RBR (Section 4.3's
          optimisation); [None] disables it *)
  max_intermediate : int option;
      (** heuristic bound on the working set; exceeded → truncated cover *)
  skip_initial_mincover : bool;
      (** skip line 1 of Fig. 2 (for ablation) *)
  rbr_order : [ `Min_degree | `Given ];
      (** RBR elimination order; see {!Rbr.reduce} (for ablation) *)
  pool : Parallel.Pool.t option;
      (** domain pool for the partitioned pruning inside RBR; [None] (the
          default) keeps everything on the calling domain *)
  memo : (Memo.t * string) option;
      (** the line-1 slice memo + key namespace, shared by the fleet
          driver's views and the serve sessions: line 1's per-relation
          MinCover(Σ) slices are cached/reused through it (see
          {!Mincover.minimal_cover_db_ir}).  [None] (the default) changes
          nothing; a run given a provenance recorder ignores it *)
}

val default_options : options

(** [instance_digest options v] digests everything a cached artefact of a
    [cover] run depends on besides Σ: the source schema, the full view
    definition, and every cover-affecting option (the pool is excluded —
    [Parallel.Pool.map] is order-preserving).  The serve layer keys its
    per-session verdicts with it. *)
val instance_digest : options -> Spc.t -> string

type result = {
  cover : Cfds.Cfd.t list;  (** CFDs over the view schema *)
  complete : bool;  (** [false] iff the heuristic bound was hit *)
  always_empty : bool;  (** [ComputeEQ] returned ⊥ (Lemma 4.5) *)
}

(** [cover ?options ?provenance v sigma] runs [PropCFD_SPC].  Given
    [provenance], the run records the derivation of every CFD it derives
    into that recorder (see {!Provenance}) and ignores [options.memo], so
    the derivations bottom out in the run's own steps; the cover is the
    same either way.  Raises [Invalid_argument] when some source CFD is
    not defined on a source relation of [v]. *)
val cover :
  ?options:options ->
  ?provenance:Provenance.t ->
  Spc.t ->
  Cfds.Cfd.t list ->
  result

(** [is_propagated_via_cover v sigma phi] decides [Σ |=_V φ] by computing
    the cover and testing [Γ |= φ] — the indirect decision procedure
    described at the start of Section 4.  Used to cross-validate
    {!Propagate.decide}. *)
val is_propagated_via_cover : Spc.t -> Cfds.Cfd.t list -> Cfds.Cfd.t -> bool

(** [cover_spcu view sigma] — the "supporting union" extension sketched in
    Section 7, as a {e certified heuristic}: candidate CFDs are drawn from
    each branch's minimal cover, both as-is and conditioned on the branch's
    constant columns (within a branch the condition is implicit; on the
    union it must be explicit — exactly how f2/f3 become ϕ2/ϕ3 in
    Example 1.1); every candidate is then checked with the exact SPCU
    decision procedure ({!Propagate.decide_spcu}) and the survivors are
    minimised.

    The result is {e sound} (every returned CFD is propagated) but only
    complete relative to the candidate set — computing provably-minimal
    SPCU covers is open. *)
val cover_spcu : ?options:options -> Spcu.t -> Cfds.Cfd.t list -> result

(** The always-empty-view cover of Lemma 4.5: two conflicting constant
    CFDs on the first view attribute that admits two values.  Exposed for
    {!Fleet}, which rebuilds it per view instead of renaming a cached
    copy (its constants depend on the attribute's domain, not the
    pipeline interior). *)
val empty_view_cover : Spc.t -> Cfds.Cfd.t list
