(** Shared state of one protocol execution: annotation ring, the
    accounting ledger, the current span label and protocol phase, and
    each party's randomness (plus the trusted-dealer stream realizing the
    correlated-randomness substitutions of DESIGN.md §2). The security
    parameters are the constants {!Cost_model.kappa} and
    {!Cost_model.sigma}. *)

type gc_backend =
  | Real  (** actually garble and evaluate circuits (tests, small benches) *)
  | Sim   (** clear evaluation inside the runtime; identical accounted cost *)

type t = {
  ring : Zn.t;
  gc_backend : gc_backend;
  pool : Domain_pool.t Lazy.t;
      (** the work pool, made on first batch: [create]'s [domains]
          claimants ({!Domain_pool.size}), watched when the context was
          created with a hang timeout *)
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
          accounting state; snapshotted into checkpoints *)
  transport : Secyan_net.Resilient.t option;
      (** the physical channel behind {!send}, if any; [None] keeps the
          classic pure-accounting simulation *)
  checkpoint : Checkpoint.sink option;
      (** durable snapshot stream for the run, if checkpointing is on *)
  mutable cancel : Secyan_deadline.t;
      (** the query's cancel token; checked at phase boundaries,
          batch-item claims, and transport waits. Prefer {!set_cancel}
          over assigning — it also re-points the transport. *)
  mutable current_label : string;
      (** innermost span name, maintained by {!with_span} even untraced;
          names the phase in cancellation/supervision errors and
          classifies outgoing traffic *)
  mutable phase : Protocol_schema.phase;
      (** protocol phase opened by the innermost phase-marker span
          ([Unrestricted] outside any), maintained by {!with_span}
          beside [current_label]. With a transport attached, {!send}
          checks outgoing traffic against it and the wire validates
          every received payload against it, raising the typed
          [Protocol_schema.Protocol_violation] on out-of-schema peer
          traffic *)
}

(** Defaults match the paper's evaluation: bits = 32 annotation ring,
    simulated GC backend,
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
    [hang_timeout_s] makes the pool watched (DESIGN.md §15): [domains]
    workers claim batch items with per-claim heartbeats while the caller
    watches, and a worker silent past the timeout fails its batch as a
    hang. Neither affects results, communication, or rounds: an unfired
    token and a watched pool are observationally identical to the
    defaults. *)
val create :
  ?bits:int -> ?gc_backend:gc_backend ->
  ?domains:int -> ?transport:Secyan_net.Resilient.t ->
  ?checkpoint:Checkpoint.sink -> ?cancel:Secyan_deadline.t ->
  ?hang_timeout_s:float -> seed:int64 -> unit -> t

(** The context's work pool (made on first use). *)
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

(** Run [f] inside a span named [name] of the attached tracer (the
    no-op sink when untraced), with [current_label] set to [name] and
    [phase] to {!Protocol_schema.phase_of_label} of it. The span closes,
    and label and phase are restored, even if [f] raises. *)
val with_span : t -> string -> (unit -> 'a) -> 'a

(** The ledger's one write path: add [n] to a counter's running total
    and forward it to the attached sink. *)
val bump : t -> Trace_sink.counter -> int -> unit

(** Account [bits] sent by [from] to the other party: the direction's
    bit counter and [Sends] are bumped ({!bump}), then — with a transport
    attached — {!Protocol_schema.check_send} vets it against [phase]
    and a payload of the declared size crosses the wire. [bits = 0] is legal (the sink still
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
