(** Shared state for one protocol execution: the annotation ring, security
    parameters, the accounting ledger, and each party's randomness.

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
          traffic alike — maintained by {!bump}/{!send}/{!bump_rounds}
          whether or not a tracer is attached. The context's only
          accounting state, snapshotted into checkpoints *)
  batch_item : bool;
      (** a per-item context of a parallel batch: its ledger is a private
          delta that {!absorb} folds into the owning context, so its
          writes are not mirrored into the metrics registry *)
  transport : Secyan_net.Resilient.t option;
      (** the physical channel behind {!send}, if any; [None] keeps the
          classic pure-accounting simulation *)
  checkpoint : Checkpoint.sink option;
      (** durable snapshot stream for the run, if checkpointing is on *)
  mutable batch_ctxs : t array;
      (** the batch engine's cache of per-item contexts ([[||]] until the
          first batch): private ledger/PRGs reused across batches so
          steady-state [map_batch] allocates no per-item context state.
          Owned by {!Gc_protocol.map_batch}; reseeded and reset per batch,
          so nothing here carries state between batches. *)
  mutable cancel : Secyan_deadline.t;
      (** the query's cancel token (deadline / memory budget / explicit),
          checked at phase boundaries, batch-item claims, and transport
          waits; defaults to an unconstrained {!Secyan_deadline.never} *)
  mutable supervisor : Domain_pool.supervisor option;
      (** when set, batch entry points run under pool supervision
          (heartbeats, fail-fast, hang detection) instead of plain
          barriers *)
  mutable current_label : string;
      (** the innermost span name ([with_span] maintains it even when no
          tracer is attached) — names the protocol phase in [Cancelled]
          and [Supervision_error] *)
  schema : Protocol_schema.t option;
      (** the protocol state machine guarding the attached transport
          ([None] without one): [with_span] drives its phase tracking,
          {!send} consults it pre-send, and the wire validates every
          received payload against it *)
}

(** Add [n] to one ledger counter: the running totals, then the active
    span of an attached tracer, then the metrics registry (skipped by
    batch items — {!absorb} mirrors their work once merged). *)
let bump t counter n =
  let i = Trace_sink.counter_index counter in
  t.counters.(i) <- t.counters.(i) + n;
  t.sink.Trace_sink.bump counter n;
  if not t.batch_item then Trace_sink.registry_bump counter n

(* With a transport attached, every [send] moves a payload of the
   declared size over the real channel. The payload content is a fixed
   filler — the protocol itself is simulated in-process, so only the
   transfer's size, framing, and fate (delivered / retried / failed) are
   meaningful — and the ledger never depends on it, so accounted
   communication stays bit-identical to the simulated path.

   Each payload travels inside a typed [Envelope] tagged with the message
   kind the current protocol span implies — checked against the state
   machine before anything crosses the wire, so traffic the receive path
   would reject as out-of-phase is caught at the source — and chunked at
   [Envelope.max_body] so no single frame exceeds the receive-side
   acceptance cap. The delivered payload is validated against the schema
   — version, kind, declared and actual lengths, phase legality — so a
   Byzantine peer mutating bitwise-intact frames surfaces as a typed
   [Protocol_schema.Protocol_violation], not as silent acceptance. *)
let push_wire t transport ~from ~bits =
  let dir =
    match (from : Party.t) with
    | Alice -> Secyan_net.Transport.Alice_to_bob
    | Bob -> Secyan_net.Transport.Bob_to_alice
  in
  match t.schema with
  | None ->
      let payload = Bytes.make ((bits + 7) / 8) '\xa5' in
      ignore (Secyan_net.Resilient.transfer transport ~dir payload : Bytes.t)
  | Some s ->
      let kind = Protocol_schema.check_send s ~bits in
      let total = (bits + 7) / 8 in
      let max_body = Secyan_net.Envelope.max_body in
      let chunks = max 1 ((total + max_body - 1) / max_body) in
      for c = 0 to chunks - 1 do
        let body_len = min max_body (total - (c * max_body)) in
        let body = Bytes.make (max body_len 0) '\xa5' in
        let msg = Secyan_net.Envelope.encode ~kind body in
        let echoed = Secyan_net.Resilient.transfer transport ~dir msg in
        Protocol_schema.validate s ~kind ~expect_body:(Bytes.length body) echoed
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
  match t.transport with None -> () | Some tr -> push_wire t tr ~from ~bits

let bump_rounds t n = bump t Trace_sink.Rounds n

let tally_of_counters (counters : int array) : Comm.tally =
  let get c = counters.(Trace_sink.counter_index c) in
  {
    Comm.alice_to_bob_bits = get Trace_sink.Alice_to_bob_bits;
    bob_to_alice_bits = get Trace_sink.Bob_to_alice_bits;
    rounds = get Trace_sink.Rounds;
  }

let tally t = tally_of_counters t.counters

(** Fold the ledgers of a finished parallel batch's item contexts into
    [t], from the domain that owns [t]. Work counters and rounds are
    bumped once each with the batch total; the items' traffic crosses
    [t]'s channel as one send per direction carrying the batch total
    (their individual sends were private to the item contexts). Sums are
    order-independent, so the result is bit-identical for every pool
    size, and each unit of work reaches the sink and the registry
    exactly once. *)
let absorb t (items : t array) =
  let sum c =
    let i = Trace_sink.counter_index c in
    Array.fold_left (fun acc item -> acc + item.counters.(i)) 0 items
  in
  List.iter
    (fun c ->
      let n = sum c in
      if n <> 0 then bump t c n)
    Trace_sink.work_counters;
  let a_bits = sum Trace_sink.Alice_to_bob_bits in
  let b_bits = sum Trace_sink.Bob_to_alice_bits in
  let rounds = sum Trace_sink.Rounds in
  if a_bits > 0 then send t ~from:Party.Alice ~bits:a_bits;
  if b_bits > 0 then send t ~from:Party.Bob ~bits:b_bits;
  if rounds > 0 then bump_rounds t rounds

let create ?(bits = 32) ?(kappa = 128) ?(sigma = 40) ?(gc_backend = Sim)
    ?(gc_kdf = Garbling.Aes128_kdf) ?(domains = 1) ?transport ?checkpoint
    ?cancel ?supervisor ~seed () =
  let domains = max 1 domains in
  let master = Prg.create seed in
  let cancel = match cancel with Some c -> c | None -> Secyan_deadline.never () in
  let schema =
    match transport with None -> None | Some _ -> Some (Protocol_schema.create ())
  in
  let t =
    {
      ring = Zn.create bits;
      kappa;
      sigma;
      gc_backend;
      gc_kdf;
      domains;
      pool = lazy (Domain_pool.create domains);
      prg_alice = Prg.split master;
      prg_bob = Prg.split master;
      dealer = Prg.split master;
      sink = Trace_sink.noop;
      counters = Array.make Trace_sink.n_counters 0;
      batch_item = false;
      transport;
      checkpoint;
      batch_ctxs = [||];
      cancel;
      supervisor;
      current_label = "init";
      schema;
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

(** The context's work pool (spawned on first use). *)
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

(** Run [f] inside a span named [name] of the attached tracer; when no
    tracer is attached this is just [f ()] plus phase-label maintenance
    (so cancellation errors can always name their phase). The span is
    closed, and the label restored, even when [f] raises. The sink never
    draws randomness, so tracing cannot perturb the protocol
    transcript. *)
let with_span t name f =
  let prev = t.current_label in
  t.current_label <- name;
  (* The protocol state machine tracks phases by the same span discipline
     the label does — entered here, restored on every exit path below. *)
  (match t.schema with None -> () | Some s -> Protocol_schema.enter s name);
  let leave_schema () =
    match t.schema with None -> () | Some s -> Protocol_schema.leave s
  in
  let sink = t.sink in
  if sink == Trace_sink.noop then (
    match f () with
    | r ->
        leave_schema ();
        t.current_label <- prev;
        r
    | exception e ->
        leave_schema ();
        t.current_label <- prev;
        raise e)
  else begin
    sink.Trace_sink.enter name;
    match f () with
    | r ->
        sink.Trace_sink.exit ();
        leave_schema ();
        t.current_label <- prev;
        r
    | exception e ->
        sink.Trace_sink.exit ();
        leave_schema ();
        t.current_label <- prev;
        raise e
  end

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

(** Snapshot-and-measure helper: runs [f] and returns its result with the
    communication it generated. *)
let measured t f =
  let before = tally t in
  let result = f () in
  (result, Comm.diff (tally t) before)
