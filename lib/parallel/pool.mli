(** A small fixed-size pool of OCaml 5 domains with a shared work queue.

    Built for the propagation engine's embarrassingly parallel stages —
    partitioned MinCover pruning (chunks are independent) and bench-harness
    seed repetitions.  [map] preserves input order, so results are
    deterministic whenever the mapped function is, whatever the scheduling;
    a pool of size 1 (or passing no pool at all) degrades to a plain
    sequential [List.map], which keeps tests reproducible without domains.

    Nested submission is safe: a [map] issued from a pool-worker domain
    (any pool's) runs sequentially in that worker instead of parking it —
    workers blocked on a nested [map] would otherwise deadlock the queue.

    While {!Obs} records, the pool counts maps and tasks (counter
    channel), observes each task's duration in its worker's
    [pool.worker<i>.busy] histogram (duration channel), and flushes each
    worker's domain-local shard at the end of every task, before the task
    is reported complete — so a snapshot taken right after [map] returns
    includes every task's metrics. *)

type t

(** [create ?size ()] spawns [size] worker domains (default:
    [Domain.recommended_domain_count () - 1], at least 1).  A size-1 pool
    spawns no domains and runs everything in the caller. *)
val create : ?size:int -> unit -> t

(** Number of workers (1 means sequential). *)
val size : t -> int

(** [map ?pool f xs] applies [f] to every element of [xs], in parallel when
    [pool] has workers, and returns the results in input order.  The first
    exception raised by [f] (in input order) is re-raised in the caller
    after all tasks finish.  Called from a pool worker, it degrades to a
    sequential map in that worker (no deadlock). *)
val map : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list

(** Whether the calling domain is a pool worker (nested [map]s from such
    domains run sequentially).  Exposed for tests. *)
val in_worker : unit -> bool

(** Signal the workers to exit and join them.  Idempotent.  Pending [map]
    calls must have returned. *)
val shutdown : t -> unit

(** [with_pool ?size f] runs [f] with a fresh pool and shuts it down
    afterwards, exceptions included. *)
val with_pool : ?size:int -> (t -> 'a) -> 'a
