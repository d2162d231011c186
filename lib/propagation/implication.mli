(** CFD implication [Σ |= φ] (Section 4.1) — exactly the special case of
    the propagation problem where the view is the identity mapping
    (Corollary 3.6's reduction, read backwards).

    Without finite-domain attributes the decision is PTIME: {!implies}
    runs the packed two-tuple chase kernel of {!Fast_impl}.  In the
    general setting it is coNP-complete: {!implies_general} decides it as
    propagation through {!identity_view} with {!Propagate}, instantiating
    finite-domain variables. *)

open Relational

(** [implies schema sigma phi] decides [Σ |= φ] in the infinite-domain
    setting (complete when no finite-domain attribute of [schema] is
    involved).  All CFDs must be over [schema]. *)
val implies : Schema.relation -> Cfds.Cfd.t list -> Cfds.Cfd.t -> bool

(** [implies_general ?budget schema sigma phi] decides [Σ |= φ] in the
    general setting, instantiating finite-domain variables. *)
val implies_general :
  ?budget:int ->
  Schema.relation ->
  Cfds.Cfd.t list ->
  Cfds.Cfd.t ->
  (bool, [ `Budget_exceeded ]) Stdlib.result

(** [equivalent schema s1 s2] checks mutual implication of two sets
    (infinite-domain setting). *)
val equivalent : Schema.relation -> Cfds.Cfd.t list -> Cfds.Cfd.t list -> bool

(** [identity_view schema] is the identity SPC view over [schema] — also
    used by {!Consistency} and exposed for tests. *)
val identity_view : Schema.relation -> Spc.t
