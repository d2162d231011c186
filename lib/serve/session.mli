(** One resident (view, Σ) propagation session: the compiled state a
    [cfdprop serve] daemon keeps warm across requests — the current
    minimal propagation cover, the {!Propagation.Fast_impl} engine
    compiled from it for [propagates?] queries, and (lazily) the
    provenance attribution of each cover member.

    {2 State ownership: epoch-swapped snapshots, one engine each}

    The session is a thin coordinator over {e immutable epoch-stamped
    snapshots}.  A snapshot freezes everything a reader needs — Σ, the
    cover with its digest, and one compiled engine — and is published
    through one [Atomic] cell.  Reads
    ([epoch]/[sigma]/[cover]/[propagates]/[explain]) are lock-free at
    the session level: one [Atomic.get] yields a coherent
    tuple, so a reader can never observe a torn or mixed-epoch state,
    and sequential reads observe monotonically non-decreasing epochs.

    The only locks a read can touch are the engine's mutex and, for a
    lookup, one memo stripe's; deltas never take the engine's mutex.
    That mutex guards the engine's chase scratch: a compiled engine
    mutates scratch on every chase, so one domain at a time may run it.
    A [propagates] takes the mutex only when the verdict memo misses,
    and an [explain] for its one chase; each acquisition is counted
    [serve.replica_reads] (a name kept from the replica slots this
    engine replaced).  Readers on several domains therefore chase one
    after another, never at once; both shipped front ends answer one
    request at a time anyway.  Snapshots whose covers have the same
    bytes share one engine, and so one mutex.

    Deltas ([add_cfd]/[remove_cfd]) serialise on a writer mutex, build
    the next snapshot off to the side, and atomically swap it in as an
    epoch bump (counted [serve.epoch_swaps]).  Readers in flight keep
    answering from the old snapshot; new reads see the new one.  Shared,
    append-only state lives in the server's {!Propagation.Memo} (line-1
    slices and verdicts), safe across domains by construction.  An
    [explain] records its attribution into a recorder of its own
    ({!Propagation.Provenance}), so it runs concurrently with every
    other session's work.

    {2 The Σ-delta planner}

    {!Propagation.Propcover}'s id-order tie-breaks depend only on the
    (schema, view) pair — never on Σ.  [add_cfd]/[remove_cfd] therefore
    pick the cheapest plan that keeps the session's cover
    {e byte-identical} to a fresh [Propcover.cover] on the current Σ:

    - {b Patched} (counted [serve.delta_patches]): the delta's relation
      is not a base of any view atom ({!Relational.Spc.bases}):
      {!Propagation.Propcover} drops its CFDs before line 1, so the
      pipeline input is untouched.  The next snapshot shares the cover,
      digest, and compiled engine with the old one; only Σ changes.
    - {b Recomputed} (counted [serve.fallbacks]): every other delta runs
      the pipeline a fresh [Propcover.cover] runs, so the cover is
      byte-identical by construction.  Line 1 reuses the slices of the
      untouched relations through the memo.  When the new cover's bytes
      equal the old one's, the next snapshot shares the old engine and
      digest, as a patched delta does; otherwise one fresh engine is
      compiled for the new cover.  Minimal covers are not monotone
      under axiom deletion, so provenance attribution can never justify
      skipping the recompute; it only narrows the {e report} of which
      members were touched.
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
      (** [fallbacks + 1]: the initial cover plus every recomputed
          delta *)
  noops : int;
  epoch : int;
}

(** [normalize_sigma l] is the session's canonical Σ form — each CFD
    canonicalised, the list sorted and deduplicated.  Differential
    harnesses must feed {e this} form to their fresh batch runs. *)
val normalize_sigma : Cfds.Cfd.t list -> Cfds.Cfd.t list

(** [create ~memo ~name ~view ~sigma ()] computes the initial cover
    (epoch 0) and compiles its query engine.  [pool] is handed to every
    cover run of the session, where RBR's partitioned prune uses it
    ({!Propagation.Propcover.options}).  [memo] may be shared with
    other sessions — keys are namespaced by a digest of the schema.
    Errors on a CFD that is not over a source relation's attributes
    ({!Cfds.Cfd.check}). *)
val create :
  ?pool:Parallel.Pool.t ->
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

(** [propagates t phi] — [Σ |=_V φ], answered from the snapshot's
    compiled engine (memoised per (instance, cover, φ), so verdicts
    survive cover-neutral deltas and the memo probe itself takes no
    lock).  Returns the verdict and the epoch of the snapshot it was
    answered from.  Errors when [phi] is not a CFD over the view. *)
val propagates : t -> Cfds.Cfd.t -> (bool * int, string) result

(** [explain t phi] — the verdict plus the cover members the implication
    chase fired and their Σ attributions (materialising the provenance
    attribution on first use, by one recording pipeline run into a fresh
    recorder; it lives in the snapshot, so a delta swap naturally
    invalidates it). *)
val explain : t -> Cfds.Cfd.t -> (explanation, string) result

(** [add_cfd t c] and [remove_cfd t c] apply a Σ-delta.  Both error on
    a [c] that is not a CFD over a source relation's attributes. *)
val add_cfd : t -> Cfds.Cfd.t -> (delta_report, string) result
val remove_cfd : t -> Cfds.Cfd.t -> (delta_report, string) result

(** [close t] — subsequent operations return [Error "session closed"]. *)
val close : t -> unit

val closed : t -> bool
