(** A specialised implication kernel for the infinite-domain setting.

    [MinCover] and the final step of [PropCFD_SPC] decide [Σ |= φ]
    O(|Σ|²) times over a single relation; the generic tableau machinery of
    {!Propagate} is far too heavyweight there.  This kernel runs the same
    pair-tableau chase (so it agrees with {!Propagate} on the identity
    view by construction — the test suite cross-validates this) over
    int-indexed union-find arrays, with the CFD set compiled to
    positional form once.  The pair tableau is symmetric in its two
    rows, so one row of cells whose classes carry a "the rows agree"
    flag represents it exactly, and one chase per query decides both the
    pair and, for a constant RHS, the single-tuple [(t, t)] case.

    The chase is {e semi-naive}: rules are indexed by the cell positions
    their premises read, and the fixpoint is driven by a dirty-position
    worklist instead of full passes over the rule set.  {e Rule masks}
    (bitsets over the compiled rules) support leave-one-out implication
    checks — [implies ~mask compiled phi] behaves exactly like recompiling
    the unmasked subset, without the O(|Σ|) recompile.

    This is the pipeline's only implication kernel — {!Implication.implies}
    and every MinCover site run it — and it is built for raw speed:

    - {b flat bitsets} — LHS applicability masks live in packed 32-bit
      words ([⌈arity / 32⌉] per rule), so mask pruning works at {e every}
      arity (a single-int mask would have to give up past
      [Sys.int_size - 2] attributes);
    - {b struct-of-arrays rules} — premise rows are flat position/value
      pools indexed by offset, not per-rule boxed arrays;
    - {b a per-compiled arena} — union-find, dirty sets, the watcher
      worklist and query scratch are allocated once at compile time and
      reset in O(arity) per query, so the steady-state query loop performs
      {e zero} minor-heap allocation (asserted by [test/test_kernel.ml]);
    - {b a goal stop} — a query's chase stops as soon as the query's RHS
      holds (its cells equal and, for a constant RHS, bound to the
      constant).  The chase state only grows, so the answer is the
      fixpoint's; counted [fast_impl.goal_stops];
    - {b retirement} — a rule whose premise has held is skipped for the
      rest of the chase ([fast_impl.retired_skips]): its effect is in the
      state, which only grows;
    - {b constant-keyed wake-up} — a rule with a constant LHS entry is
      keyed on the first one and a chase does not scan it until the key
      position is bound to the key constant; then it is linked into the
      chase's per-position live lists ([fast_impl.rule_wakes]).
      Constants only accumulate and every newly bound position is
      queued, so the rule is live before its premise can hold.  A
      witness-collecting chase ([?fired]) scans every rule.

    Its decisions are checked against the tableau chase of {!Propagate}
    (over the identity view) on random narrow and wide schemas, plain and
    leave-one-out masked, by [test/test_kernel.ml].

    A [compiled] value owns mutable scratch and must be confined to one
    domain at a time; the partitioned prune compiles per chunk on its
    worker, so this holds throughout the pipeline. *)

open Relational

type compiled

(** [compile schema sigma] resolves every CFD of [sigma] to attribute
    positions of [schema].  Rule [i] of the result corresponds to the [i]-th
    element of [sigma] (for use with masks).  Raises on unknown
    attributes. *)
val compile : Schema.relation -> Cfds.Cfd.t list -> compiled

(** [compile_ir space isigma] compiles interned CFDs against an {!Ir.space}
    (built once per MinCover site per context) instead of a schema.  The
    result only answers {!implies_ir} queries; feeding it to {!implies}
    raises.  Raises on attributes outside the space. *)
val compile_ir : Ir.space -> Ir.t list -> compiled

(** [set_rule_ir compiled space i ic] replaces rule [i] in place.
    Precondition: [ic]'s premise positions are a subset of the old rule
    [i]'s (MinCover's LHS reductions only ever shrink premises) — the
    semi-naive watcher index is not extended, only the autonomous set can
    grow, and a shrink that drops the rule's wake-up key makes the rule
    keyless (always live).  This is what lets one {!compile_ir} per MinCover site survive
    the whole reduction loop. *)
val set_rule_ir : compiled -> Ir.space -> int -> Ir.t -> unit

(** Number of compiled rules (= [List.length sigma]). *)
val num_rules : compiled -> int

(** A mutable bitset over the compiled rules: byte [i] nonzero iff rule
    [i] is enabled.  Cleared rules are invisible to [implies]. *)
type mask = Bytes.t

(** A fresh mask with every rule enabled. *)
val full_mask : compiled -> mask

(** Disable rule [i]. *)
val mask_clear : mask -> int -> unit

(** Re-enable rule [i]. *)
val mask_set : mask -> int -> unit

(** [implies ?mask ?fired compiled phi] decides [Σ' |= φ] where [Σ'] is the
    set of mask-enabled rules ([Σ] itself when [mask] is omitted), in the
    infinite-domain setting.

    When [fired] is given (a buffer of [num_rules] bytes), every rule whose
    application changed the chase state (or raised the conflict) has its
    byte set to ['\001'].  The marked subset is a sound implication witness:
    replaying only the marked rules reproduces the same chase, so when the
    check returns [true], the marked rules alone already imply [phi].  A
    witness-collecting chase runs to its fixpoint (no goal stop), so the
    witness does not depend on when the goal was reached; the answer is
    the same either way. *)
val implies : ?mask:mask -> ?fired:Bytes.t -> compiled -> Cfds.Cfd.t -> bool

(** [implies_ir ?mask ?fired space compiled iphi] — the same decision over
    interned CFDs; [space] must be the space [compiled] was built with.
    The steady state of this call allocates nothing on the minor heap
    (pass a preallocated [?mask:opt]: [~mask:m] boxes a fresh option per
    call). *)
val implies_ir :
  ?mask:mask -> ?fired:Bytes.t -> Ir.space -> compiled -> Ir.t -> bool
