(** Shared state for one protocol execution: the annotation ring, the
    accounting ledger, the current span label and protocol phase, and
    each party's randomness. The security parameters are the constants
    [Cost_model.kappa] and [Cost_model.sigma].

    The [dealer] stream realizes the trusted-dealer substitution described
    in DESIGN.md: correlated randomness (OT correlations, OPRF keys, fresh
    resharing masks) is drawn from it. Both parties' views of values derived
    from the dealer are uniformly random, matching what real OT extension /
    OPRF protocols would deliver. *)

type gc_backend =
  | Real  (** actually garble and evaluate circuits (tests, small benches) *)
  | Sim   (** evaluate in the clear inside the runtime; identical cost accounting *)

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
          traffic alike — maintained by {!bump}/{!send}/{!bump_rounds}
          whether or not a tracer is attached. The context's only
          accounting state, snapshotted into checkpoints *)
  transport : Secyan_net.Resilient.t option;
      (** the physical channel behind {!send}, if any; [None] keeps the
          classic pure-accounting simulation *)
  checkpoint : Checkpoint.sink option;
      (** durable snapshot stream for the run, if checkpointing is on *)
  mutable cancel : Secyan_deadline.t;
      (** the query's cancel token (deadline / memory budget / explicit),
          checked at phase boundaries, batch-item claims, and transport
          waits; defaults to an unconstrained {!Secyan_deadline.never} *)
  mutable current_label : string;
      (** the innermost span name ([with_span] maintains it even when no
          tracer is attached) — names the protocol phase in [Cancelled]
          and [Supervision_error], and classifies outgoing traffic *)
  mutable phase : Protocol_schema.phase;
      (** the protocol phase the innermost phase-marker span opened
          ([Unrestricted] outside any), restored by [with_span] beside
          [current_label]: {!send} checks outgoing traffic against it
          and the wire validates every received payload against it *)
}

(** Add [n] to one ledger counter: the running totals, then the active
    span of an attached tracer. *)
let bump t counter n =
  let i = Trace_sink.counter_index counter in
  t.counters.(i) <- t.counters.(i) + n;
  t.sink.Trace_sink.bump counter n

(* With a transport attached, every [send] moves a payload of the
   declared size over the real channel. The payload content is a fixed
   filler — the protocol itself is simulated in-process, so only the
   transfer's size, framing, and fate (delivered / retried / failed) are
   meaningful — and the ledger never depends on it, so accounted
   communication stays bit-identical to the simulated path.

   Each payload travels inside a typed [Envelope] tagged with the message
   kind the innermost span label implies — checked against the current
   phase before anything crosses the wire, so traffic the receive path
   would reject as out-of-phase is caught at the source — and chunked at
   [Envelope.max_body] so no single frame exceeds the receive-side
   acceptance cap. The delivered payload is validated against the phase
   — version, kind, declared and actual lengths, phase legality — so a
   Byzantine peer mutating bitwise-intact frames surfaces as a typed
   [Protocol_schema.Protocol_violation], not as silent acceptance. *)
let push_wire t transport ~from ~bits =
  let dir =
    match (from : Party.t) with
    | Alice -> Secyan_net.Transport.Alice_to_bob
    | Bob -> Secyan_net.Transport.Bob_to_alice
  in
  let phase = t.phase in
  let kind = Protocol_schema.check_send ~phase ~label:t.current_label ~bits in
  let total = (bits + 7) / 8 in
  let max_body = Secyan_net.Envelope.max_body in
  let chunks = max 1 ((total + max_body - 1) / max_body) in
  for c = 0 to chunks - 1 do
    let body_len = min max_body (total - (c * max_body)) in
    let body = Bytes.make (max body_len 0) '\xa5' in
    let msg = Secyan_net.Envelope.encode ~kind body in
    let echoed = Secyan_net.Resilient.transfer transport ~dir msg in
    Protocol_schema.validate ~phase ~kind ~expect_body:(Bytes.length body) echoed
  done

let send t ~from ~bits =
  if bits < 0 then
    invalid_arg (Printf.sprintf "Context.send: bit count %d is negative (expected >= 0)" bits);
  bump t
    (match (from : Party.t) with
    | Alice -> Trace_sink.Alice_to_bob_bits
    | Bob -> Trace_sink.Bob_to_alice_bits)
    bits;
  bump t Trace_sink.Sends 1;
  match t.transport with Some tr -> push_wire t tr ~from ~bits | None -> ()

let bump_rounds t n = bump t Trace_sink.Rounds n

let tally_of_counters (counters : int array) : Comm.tally =
  let get c = counters.(Trace_sink.counter_index c) in
  {
    Comm.alice_to_bob_bits = get Trace_sink.Alice_to_bob_bits;
    bob_to_alice_bits = get Trace_sink.Bob_to_alice_bits;
    rounds = get Trace_sink.Rounds;
  }

let tally t = tally_of_counters t.counters

let create ?(bits = 32) ?(gc_backend = Sim)
    ?(domains = 1) ?transport ?checkpoint
    ?cancel ?hang_timeout_s ~seed () =
  let domains = max 1 domains in
  let master = Prg.create seed in
  let cancel = match cancel with Some c -> c | None -> Secyan_deadline.never () in
  let t =
    {
      ring = Zn.create bits;
      gc_backend;
      pool = lazy (Domain_pool.create ?hang_timeout_s domains);
      prg_alice = Prg.split master;
      prg_bob = Prg.split master;
      dealer = Prg.split master;
      sink = Trace_sink.noop;
      counters = Array.make Trace_sink.n_counters 0;
      transport;
      checkpoint;
      cancel;
      current_label = "init";
      phase = Protocol_schema.Unrestricted;
    }
  in
  (match transport with
  | None -> ()
  | Some tr ->
      Secyan_net.Resilient.set_cancel tr (Some cancel);
      (* Resilience events surface as typed counters of whatever sink is
         attached when they fire (the closure reads [t.sink] per event,
         so tracers attached later still see them). *)
      Secyan_net.Resilient.set_listener tr
        (Some
           (fun ev ->
             match (ev : Secyan_net.Resilient.event) with
             | Retry -> bump t Trace_sink.Retries 1
             | Timeout_hit -> bump t Trace_sink.Timeouts 1
             | Corrupt_frame -> bump t Trace_sink.Frames_corrupted 1
             | Duplicate_dropped -> ())));
  t

(** Close the attached transport, if any (idempotent; no-op when
    simulating). *)
let close_transport t =
  match t.transport with None -> () | Some tr -> Secyan_net.Resilient.close tr

(** The context's work pool (made on first use). *)
let pool t = Lazy.force t.pool

(** The pool if it was ever spawned, without spawning it. *)
let pool_opt t = if Lazy.is_val t.pool then Some (Lazy.force t.pool) else None

(** Join the pool's worker domains, if any were ever spawned. Contexts
    never need this for correctness (pools also shut down [at_exit]), but
    tests and long-lived processes that churn through many parallel
    contexts should release the domains promptly. *)
let shutdown_pool t = if Lazy.is_val t.pool then Domain_pool.shutdown (Lazy.force t.pool)

let set_sink t sink = t.sink <- sink

let traced t = t.sink != Trace_sink.noop

(** Replace the context's cancel token (e.g. per query on a long-lived
    context) and re-point the attached transport at it. *)
let set_cancel t cancel =
  t.cancel <- cancel;
  match t.transport with
  | None -> ()
  | Some tr -> Secyan_net.Resilient.set_cancel tr (Some cancel)

(** Poll the cancel token and raise [Secyan_deadline.Cancelled] naming the
    current protocol phase if it has fired. The phase-boundary check. *)
let check_cancel t = Secyan_deadline.check ~where:t.current_label t.cancel

(** Run [f] inside a span named [name] of the attached sink (the no-op
    sink when untraced). The innermost label and the protocol phase are
    maintained either way — a phase marker enters its phase, any other
    label inherits the enclosing one — so cancellation errors can always
    name their phase and the wire can always check it. The span is
    closed, and label and phase restored, even when [f] raises. The sink
    never draws randomness, so tracing cannot perturb the protocol
    transcript. *)
let with_span t name f =
  let prev_label = t.current_label and prev_phase = t.phase in
  t.current_label <- name;
  t.phase <- Protocol_schema.phase_of_label prev_phase name;
  let sink = t.sink in
  sink.Trace_sink.enter name;
  let leave () =
    sink.Trace_sink.exit ();
    t.current_label <- prev_label;
    t.phase <- prev_phase
  in
  match f () with
  | r ->
      leave ();
      r
  | exception e ->
      leave ();
      raise e

(** A copy of the context's counter totals (index by
    [Trace_sink.counter_index]). *)
let counter_totals t = Array.copy t.counters

(** Overwrite the counter totals with previously captured values
    (checkpoint resume). The sink does not fire: restored work already
    happened, in the run being resumed. *)
let restore_counters t totals =
  if Array.length totals <> Trace_sink.n_counters then
    invalid_arg
      (Printf.sprintf "Context.restore_counters: %d totals, expected %d"
         (Array.length totals) Trace_sink.n_counters);
  Array.blit totals 0 t.counters 0 Trace_sink.n_counters

let prg_of t = function
  | Party.Alice -> t.prg_alice
  | Party.Bob -> t.prg_bob

let ring_bits t = Zn.bits t.ring

