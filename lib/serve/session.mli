(** One resident (view, Σ) propagation session: the compiled state a
    [cfdprop serve] daemon keeps warm across requests — the current
    minimal propagation cover, {!Propagation.Fast_impl} engines compiled
    from it for [propagates?] queries, the per-relation line-1 slices,
    and (lazily) the provenance attribution of each cover member.

    {2 State ownership: epoch-swapped snapshots behind replica slots}

    The session is a thin coordinator over {e immutable epoch-stamped
    snapshots}.  A snapshot freezes everything a reader needs — Σ, the
    cover with its digest, the per-relation slices, and an array of
    [replicas] compiled engines — and is published through one [Atomic]
    cell.  Reads ([epoch]/[sigma]/[cover]/[propagates]/[explain]) are
    lock-free at the session level: one [Atomic.get] yields a coherent
    tuple, so a reader can never observe a torn or mixed-epoch state,
    and sequential reads observe monotonically non-decreasing epochs.
    The only locks a read can touch are a replica slot's (each compiled
    engine owns mutable chase scratch confined to one domain at a time;
    queries rotate round-robin over the slots, counted
    [serve.replica_reads]) and the memo's stripe — both sharded, neither
    shared with deltas.

    Deltas ([add_cfd]/[remove_cfd]) serialise on a writer mutex, build
    the next snapshot off to the side, and atomically swap it in as an
    epoch bump (counted [serve.epoch_swaps]).  Readers in flight keep
    answering from the old snapshot; new reads see the new one.  Shared,
    append-only state lives in the server's {!Propagation.Memo} (line-1
    slices, the session's full-result cache, verdicts), safe across
    domains by construction.  An [explain] records its attribution into
    a recorder of its own ({!Propagation.Provenance}), so it runs
    concurrently with every other session's work.

    {2 The Σ-delta planner}

    {!Propagation.Propcover}'s id-order tie-breaks depend only on the
    (schema, view) pair — never on Σ.  [add_cfd]/[remove_cfd] therefore
    pick the cheapest plan that keeps the session's cover
    {e byte-identical} to a fresh [Propcover.cover] on the current Σ:

    - {b Patched} (counted [serve.delta_patches]): either the delta's
      relation is not a base of any view atom ({!Relational.Spc.bases}:
      {!Propagation.Propcover} drops its CFDs before line 1, so the
      pipeline input is untouched), or the recomputed per-relation
      line-1 slice is set-identical to the old one (then every
      downstream stage sees element-wise identical input).  Slices come
      from {!Propagation.Propcover.slice} — line 1 itself under line 1's
      memo key — so a miss files the slice a following recompute reuses.
      The next snapshot shares the cover, digest, and compiled slots with
      the old one; only Σ and the slices change.
    - {b Recomputed} (counted [serve.fallbacks]): anything else — minimal
      covers are not monotone under axiom deletion, so provenance
      attribution alone can never justify skipping the recompute; it only
      narrows the {e report} of which members were touched.  The
      recompute runs warm through the memo: a Σ seen at an earlier epoch
      is answered by the session's full-result cache (keyed on the
      namespace, {!Propagation.Propcover.instance_digest} and the digest
      of Σ) without running the pipeline, and otherwise line 1 reuses
      the slices of untouched relations and the one the Tier-B check
      just filed.  Byte-identity with from-scratch is asserted by the
      differential walks.  [replicas] fresh engines are compiled for the
      new cover.
    - {b Noop}: adding a CFD already in Σ / removing an absent one. *)

open Relational

type t

type plan = Noop | Patched | Recomputed

type delta_report = {
  plan : plan;
  epoch : int;  (** the epoch after the delta *)
  cover_size : int;
  changed : bool;  (** did the cover's bytes change? *)
  added : Cfds.Cfd.t list;
  removed : Cfds.Cfd.t list;
  stale : Cfds.Cfd.t list option;
      (** advisory: cover members whose provenance cites a removed axiom.
          [None] when attribution was not materialised (no [explain] ran
          since the last recompute) — the recompute is exact either way. *)
}

type explanation = {
  propagated : bool;
  vacuous : bool;  (** the view is always empty (Lemma 4.5) *)
  used : Cfds.Cfd.t list;  (** cover members the implication chase fired *)
  sources : (Cfds.Cfd.t * Cfds.Cfd.t list) list;
      (** each used member with the Σ axioms it derives from *)
  epoch : int;
}

type stats = {
  queries : int;
  patches : int;
  fallbacks : int;
  recomputes : int;
      (** [fallbacks + 1]: the initial cover plus every Tier-C delta,
          including those the session's result cache answered without
          running the pipeline *)
  noops : int;
  epoch : int;
  replicas : int;  (** size of the replica slot array (fixed at create) *)
}

(** [normalize_sigma l] is the session's canonical Σ form — each CFD
    canonicalised, the list sorted and deduplicated.  Differential
    harnesses must feed {e this} form to their fresh batch runs. *)
val normalize_sigma : Cfds.Cfd.t list -> Cfds.Cfd.t list

(** [create ~memo ~name ~view ~sigma ()] computes the initial cover
    (epoch 0, through the full-result cache) and compiles [replicas]
    (default 1, floored to 1) query engines.  [memo] may be shared with
    other sessions — keys are namespaced by a digest of the schema.
    Errors on CFDs over unknown source relations. *)
val create :
  ?pool:Parallel.Pool.t ->
  ?replicas:int ->
  memo:Propagation.Memo.t ->
  name:string ->
  view:Spc.t ->
  sigma:Cfds.Cfd.t list ->
  unit ->
  (t, string) result

val name : t -> string
val view : t -> Spc.t

(** The exact options a from-scratch differential run must use to be
    byte-comparable with the session: the session's pipeline options
    without the memo. *)
val fresh_options : t -> Propagation.Propcover.options

(** Current epoch: 0 after [create], +1 per applied (non-noop) delta.
    Lock-free. *)
val epoch : t -> int

(** The current Σ, in {!normalize_sigma} form.  Lock-free. *)
val sigma : t -> Cfds.Cfd.t list

(** The current cover (sorted as [Propcover.cover] returns it), with the
    completeness flags.  Lock-free. *)
val cover : t -> Propagation.Propcover.result

val stats : t -> stats

(** Number of replica engine slots. *)
val replicas : t -> int

(** Cumulative engine acquisitions per replica slot, index-aligned with
    the slot array — the bench's per-replica breakdown.  Counts persist
    across epoch swaps (slots are renewed, the counters are not). *)
val replica_reads : t -> int array

(** [propagates t phi] — [Σ |=_V φ], answered from one replica's
    compiled engine (memoised per (instance, cover, φ), so verdicts
    survive cover-neutral deltas and the memo probe itself is replica-
    free).  Returns the verdict and the epoch of the snapshot it was
    answered from.  Errors when [phi] is not a CFD over the view. *)
val propagates : t -> Cfds.Cfd.t -> (bool * int, string) result

(** [explain t phi] — the verdict plus the cover members the implication
    chase fired and their Σ attributions (materialising the provenance
    attribution on first use, by one recording pipeline run into a fresh
    recorder; it lives in the snapshot, so a delta swap naturally
    invalidates it). *)
val explain : t -> Cfds.Cfd.t -> (explanation, string) result

val add_cfd : t -> Cfds.Cfd.t -> (delta_report, string) result
val remove_cfd : t -> Cfds.Cfd.t -> (delta_report, string) result

(** [close t] — subsequent operations return [Error "session closed"]. *)
val close : t -> unit

val closed : t -> bool
