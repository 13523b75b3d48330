(** Shared state of one protocol execution: annotation ring, security
    parameters, the accounting ledger, and each party's randomness (plus
    the trusted-dealer stream realizing the correlated-randomness
    substitutions of DESIGN.md §2). *)

type gc_backend =
  | Real  (** actually garble and evaluate circuits (tests, small benches) *)
  | Sim   (** clear evaluation inside the runtime; identical accounted cost *)

type t = {
  ring : Zn.t;
  kappa : int;        (** computational security parameter (bits) *)
  sigma : int;        (** statistical security parameter (bits) *)
  gc_backend : gc_backend;
  gc_kdf : Garbling.kdf;
      (** key-derivation function for garbled rows (default fixed-key AES) *)
  domains : int;      (** parallelism of the batch-garbling engine *)
  pool : Domain_pool.t Lazy.t;
      (** the work pool, spawned on first parallel batch; size [domains] *)
  prg_alice : Prg.t;
  prg_bob : Prg.t;
  dealer : Prg.t;
  mutable sink : Trace_sink.t;
      (** observability sink; {!Trace_sink.noop} unless a tracer attached *)
  counters : int array;
      (** the ledger: running totals of every {!Trace_sink.counter}
          (indexed by [Trace_sink.counter_index]) — primitive work and
          traffic alike — maintained by {!bump}, {!send} and
          {!bump_rounds} whether or not a tracer is attached. The only
          accounting state; snapshotted into checkpoints. Record-copy
          views ([{ ctx with ring }]) share it, so they account into the
          context they were copied from *)
  batch_item : bool;
      (** a per-item context of a parallel batch, whose ledger {!absorb}
          folds into the owning context; its writes skip the metrics
          registry *)
  transport : Secyan_net.Resilient.t option;
      (** the physical channel behind {!send}, if any; [None] keeps the
          classic pure-accounting simulation *)
  checkpoint : Checkpoint.sink option;
      (** durable snapshot stream for the run, if checkpointing is on *)
  mutable batch_ctxs : t array;
      (** the batch engine's per-item context cache ([[||]] until the
          first batch); owned and recycled by [Gc_protocol.map_batch] *)
  mutable cancel : Secyan_deadline.t;
      (** the query's cancel token; checked at phase boundaries,
          batch-item claims, and transport waits. Prefer {!set_cancel}
          over assigning — it also re-points the transport. *)
  mutable supervisor : Domain_pool.supervisor option;
      (** when set, batch entry points run pool-supervised (heartbeats,
          fail-fast, hang detection) and fail as
          [Gc_protocol.Supervision_error] *)
  mutable current_label : string;
      (** innermost span name, maintained by {!with_span} even untraced;
          names the phase in cancellation/supervision errors *)
  schema : Protocol_schema.t option;
      (** the protocol state machine guarding the attached transport
          ([None] without one): {!with_span} drives its phase tracking,
          {!send} consults it pre-send, and the wire validates every
          received payload against it, raising the typed
          [Protocol_schema.Protocol_violation] on out-of-schema peer
          traffic *)
}

(** Defaults match the paper's evaluation: bits = 32 annotation ring,
    kappa = 128, sigma = 40, simulated GC backend, fixed-key AES KDF,
    [domains = 1] (fully sequential). [domains > 1] parallelizes the GC
    batch entry points with bit-identical results, communication, and
    rounds (see DESIGN.md §9). [transport] attaches a real framed channel
    behind {!send} (see DESIGN.md §10): every declared transfer then
    physically crosses it with timeout/retry protection, resilience
    events surface as the [Retries]/[Timeouts]/[Frames_corrupted] trace
    counters, and unrecoverable faults raise
    [Secyan_net.Resilient.Transport_error] out of the protocol phase.
    Tallies are bit-identical with and without a transport. [checkpoint]
    attaches a durable snapshot stream (see DESIGN.md §11): the query
    runtime emits a protocol-state checkpoint at every phase/operator
    boundary through it. [cancel] (default [Secyan_deadline.never ()]) is
    the query's cancel token — a deadline or memory budget cancels, never
    kills, and surfaces as [Secyan_deadline.Cancelled] at the next check;
    attached transports cap their waits by its remaining budget.
    [supervisor] turns on pool supervision for the batch entry points
    (DESIGN.md §15). Neither affects results, communication, or rounds:
    an unfired token and a supervised pool are observationally identical
    to the defaults. *)
val create :
  ?bits:int -> ?kappa:int -> ?sigma:int -> ?gc_backend:gc_backend ->
  ?gc_kdf:Garbling.kdf -> ?domains:int -> ?transport:Secyan_net.Resilient.t ->
  ?checkpoint:Checkpoint.sink -> ?cancel:Secyan_deadline.t ->
  ?supervisor:Domain_pool.supervisor -> seed:int64 -> unit -> t

(** The context's work pool (spawned on first use). *)
val pool : t -> Domain_pool.t

(** The pool if it was ever spawned, without spawning it. *)
val pool_opt : t -> Domain_pool.t option

(** Join the pool's worker domains if any were spawned. Never needed for
    correctness (pools also shut down [at_exit]); promptly releases the
    domains of short-lived parallel contexts. *)
val shutdown_pool : t -> unit

(** Close the attached transport, if any (idempotent; no-op when
    simulating). *)
val close_transport : t -> unit

val prg_of : t -> Party.t -> Prg.t

val ring_bits : t -> int

(** Replace the observability sink (tracers attach/detach through this). *)
val set_sink : t -> Trace_sink.t -> unit

(** Whether a non-noop sink is attached. *)
val traced : t -> bool

(** Replace the cancel token (e.g. per query on a long-lived context)
    and re-point the attached transport at it. *)
val set_cancel : t -> Secyan_deadline.t -> unit

(** Poll the cancel token; raise [Secyan_deadline.Cancelled] naming the
    current protocol phase if it has fired. The phase-boundary check —
    cheap enough to call per operator. *)
val check_cancel : t -> unit

(** Run [f] inside a span named [name] of the attached tracer; just
    [f ()] when untraced. The span closes even if [f] raises. *)
val with_span : t -> string -> (unit -> 'a) -> 'a

(** The ledger's one write path: add [n] to a counter's running total,
    forward it to the attached sink, and mirror it into the metrics
    registry (except in batch items). *)
val bump : t -> Trace_sink.counter -> int -> unit

(** Account [bits] sent by [from] to the other party: the direction's
    bit counter and [Sends] are bumped ({!bump}), then — with a transport
    attached — the state machine is consulted and a payload of the
    declared size crosses the wire. [bits = 0] is legal (the sink still
    sees the event). Accounting depends on the declared count alone, so
    it is bit-identical with and without a transport.
    @raise Invalid_argument on negative counts. *)
val send : t -> from:Party.t -> bits:int -> unit

(** Declare [n] additional communication rounds (the [Rounds] counter). *)
val bump_rounds : t -> int -> unit

(** The ledger's current traffic totals. *)
val tally : t -> Comm.tally

(** The traffic totals of a ledger-shaped counter array (a
    {!counter_totals} copy, a checkpoint's counters, a span's). *)
val tally_of_counters : int array -> Comm.tally

(** A copy of the context's counter totals (index with
    [Trace_sink.counter_index]). *)
val counter_totals : t -> int array

(** Overwrite the counter totals with previously captured values
    (checkpoint resume). The sink does not fire — restored work already
    happened, in the run being resumed.
    @raise Invalid_argument on a wrong-length array. *)
val restore_counters : t -> int array -> unit

(** Fold the ledgers of a finished parallel batch's item contexts into
    this context: each work counter and the rounds are bumped once with
    the batch total, and the items' traffic crosses this context's
    channel as one {!send} per direction. Call from the domain that owns
    the context. *)
val absorb : t -> t array -> unit

(** Run [f] and return its result together with the communication it
    generated. *)
val measured : t -> (unit -> 'a) -> 'a * Comm.tally
