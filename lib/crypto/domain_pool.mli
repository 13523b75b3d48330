(** A dependency-free work pool over [Domain.spawn]: persistent worker
    domains parked on a mutex/condvar queue, fed index-parallel loops.

    [size] always counts the domains that claim items. The caller's role
    is set when the pool is created:
    - unwatched (no [hang_timeout_s]): the caller and [size - 1] workers
      claim items and meet at a condvar barrier. Size 1 spawns no
      domains and runs loops as a plain sequential [for] on the caller.
    - watched: [size] workers claim items with per-claim heartbeats and
      the caller only watches for hangs, cancellation and shutdown — one
      more domain than claimants, so hangs are detected at every size,
      including 1.

    Every batch is fail-fast, and an aborted batch is quiescent before
    its one typed outcome is raised: {!Pool_failure}, [Cancelled] or
    {!Pool_shutdown} (DESIGN.md §15). *)

type t

(** [create ?hang_timeout_s size] makes a pool of [size] claimants,
    clamped to [\[1, 128\]]. Without [hang_timeout_s] it spawns
    [size - 1] workers (the caller of {!run} is the remaining claimant).
    With it, it spawns [size] workers and the caller watches: a claimed
    item silent past [hang_timeout_s] is declared hung (heartbeats are
    per-claim — one item must finish within the timeout). Pools that
    spawn workers register an [at_exit] {!shutdown} so a forgotten pool
    cannot hang program termination. *)
val create : ?hang_timeout_s:float -> int -> t

(** The number of domains that claim items (the watching caller of a
    watched pool is not counted). *)
val size : t -> int

(** A worker hung and was abandoned: the pool runs every later batch
    sequentially on the caller (graceful degradation — slower, never
    wedged). *)
val poisoned : t -> bool

(** What went wrong inside a batch. *)
type worker_fault =
  | Item_raised of { item : int; exn : exn }
      (** [f item] raised; the batch was abort-failed (fail-fast) *)
  | Worker_hung of { slot : int; item : int; silent_s : float }
      (** the worker on [slot] went silent for [silent_s] while running
          [item]; the pool is poisoned and the domain abandoned *)

(** {!shutdown} raced an in-flight batch: [unclaimed] items never ran.
    Raised to the batch caller instead of returning partial results. *)
exception Pool_shutdown of { unclaimed : int }

(** A batch failed; carries the first {!worker_fault}. *)
exception Pool_failure of worker_fault

(** [run t ~n ~f] executes [f i] once for every [i] in [0, n) and
    returns once every item has finished (a full barrier: the items'
    writes are published to the caller); an aborted batch runs each item
    at most once. Items must be mutually
    independent, and their results must not depend on which domain runs
    them. On a poisoned or shut-down pool the batch runs sequentially on
    the caller under the same contract.

    The first item exception stops further claims (fail-fast). [cancel]
    is polled before every item claim: once it fires the batch aborts
    (claimants stop claiming, running items finish). An unconstrained,
    unfired token costs two atomic reads per item. Outcomes are raised
    after quiescence; for [Worker_hung], quiescence nets out the hung
    worker, which may still be running — the caller must drop, not
    reuse, any state that worker could touch.

    @raise Pool_failure with the first fault.
    @raise Secyan_deadline.Cancelled when [cancel] fired mid-batch.
    @raise Pool_shutdown if {!shutdown} lands mid-batch. *)
val run : ?cancel:Secyan_deadline.t -> t -> n:int -> f:(int -> unit) -> unit

(** Join the worker domains. Idempotent — a second call, a call racing
    the [at_exit] hook, or a call after a worker-side exception all
    return promptly without double-joining (the domain list is claimed
    atomically under the pool lock). Workers mid-batch abandon the batch
    at their next claim and its caller gets {!Pool_shutdown}; slots
    declared hung are never joined (the domain leaks until process exit
    — the only sound option). A shut-down pool still accepts {!run},
    which then executes sequentially on the caller. *)
val shutdown : t -> unit

(** {1 Contention profiling}

    Always recorded: every participant reads the clock around each item
    it runs, each wait and each contended lock. *)

(** One participant's accumulated timeline. [domain] 0 is the calling
    domain; workers are 1 .. size-1 (unwatched) or 1 .. size (watched,
    where the caller claims no items). For workers [wall_ns] is the time
    since the domain was spawned (or since {!reset_timelines}); for the
    caller it is the total time spent inside {!run}, sequential batches
    included. Busy + queue-wait + lock-wait accounts
    for a participant's wall clock (workers spend the rest of their
    lives parked, and a watching caller its batches watching, which
    both count as queue-wait; a worker parked at the snapshot counts its
    park so far). *)
type timeline_snapshot = {
  domain : int;
  busy_ns : float;        (** running items *)
  queue_wait_ns : float;  (** parked between batches / waiting on the barrier *)
  lock_wait_ns : float;   (** acquiring the pool mutex *)
  wall_ns : float;
  batches : int;          (** batches this participant claimed >= 1 item of *)
  items : int;
  wakeups : int;          (** condition-variable wakeups *)
}

(** Snapshot every participant's timeline (index = [domain]), under the
    pool lock. Safe to call between batches; racing a running batch
    reads slightly stale values, never corrupt ones. Not from inside an
    item. *)
val timelines : t -> timeline_snapshot list

(** Zero the timelines (and restart the workers' wall-clock origin).
    Call it between batches, not while one runs. *)
val reset_timelines : t -> unit
