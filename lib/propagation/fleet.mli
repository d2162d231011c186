(** Fleet-scale propagation: one Σ through N views concurrently, with a
    shared cross-view {!Memo} so work done for one view is reused by every
    other.

    Per view, the driver (1) canonicalises it with {!Chase.Canon}
    (order-preserving positional renaming) and verifies the
    canonicalisation homomorphically; (2) looks the canonical key up in
    the memo — a hit returns another isomorphic view's cover instantly;
    (3) on a miss, runs {!Propcover.cover} {e on the canonical view} with
    the memo plumbed through (so line 1's per-relation MinCover(Σ) slices
    are shared across canonical classes too) and publishes the result;
    (4) inverts the renaming, restoring the view's own attribute names and
    relation name.  Because the pipeline is renaming-equivariant, the
    result is byte-identical to a direct [Propcover.cover] call — the
    fleet property test and the [bench --fleet] A/B both assert this.

    Views are mapped over the {!Parallel.Pool}; the memo is mutex-striped,
    so concurrent hits/misses are safe (first insert wins; duplicate
    computes are bounded by the race window and counted).

    The driver records no provenance; a caller wanting one view's
    derivations runs {!Propcover.cover} on it with a recorder.

    Counters: [fleet.views], [fleet.classes], [fleet.cover_hits],
    [fleet.canon_fallbacks]; spans: [fleet.run], [fleet.canonicalise]
    (plus everything {!Memo} records). *)

open Relational

type options = {
  cover : Propcover.options;
      (** per-view pipeline options; [cover.memo] is overwritten by the
          driver's own memo *)
  pool : Parallel.Pool.t option;
  memo : Memo.t option;
      (** share an existing memo (e.g. across successive [run] calls on
          the same Σ); [None] creates a fresh one per run *)
}

val default_options : options

type view_result = {
  view : Spc.t;
  cover : Cfds.Cfd.t list;  (** over the view's own schema and names *)
  complete : bool;
  always_empty : bool;
  memo_hit : bool;  (** cover came from another view's computation *)
  class_key : string;  (** canonical-class memo key (unique on fallback) *)
  renaming : Chase.Canon.renaming option;
      (** [None] when canonicalisation fell back (reserved names / failed
          verification) *)
}

type t = {
  results : view_result list;  (** in input view order *)
  classes : int;  (** distinct canonical classes seen *)
  memo : Memo.t;
  ns : string;  (** key namespace: digest of schema + Σ *)
}

(** [run views sigma] propagates [sigma] through every view.  All views
    must share one source schema ([Invalid_argument] otherwise); each
    view's result is byte-identical to [Propcover.cover view sigma] with
    the same pipeline options.  [run [] _] returns an empty result. *)
val run : ?options:options -> Spc.t list -> Cfds.Cfd.t list -> t

(** [propagates t ~view phi] decides [Σ |=_V φ] against the fleet's
    covers, memoising the implication verdict under the view's canonical
    class — isomorphic views asking renamed copies of the same question
    share one verdict.  [`Unknown_view] when [view] names no fleet
    member.  Raises like {!Implication.implies} when [phi] mentions
    attributes outside the view schema. *)
val propagates :
  t -> view:string -> Cfds.Cfd.t -> [ `Propagated | `Not_propagated | `Unknown_view ]
