(** The hook interface between the protocol substrate and an observability
    layer living above it.

    The crypto library cannot depend on the tracing library (the tracer
    needs [Context]), so the coupling is inverted: every [Context.t]
    carries a sink — a record of callbacks — that defaults to {!noop}.
    Primitives announce span boundaries and every write to the context's
    ledger (work counters and traffic alike) reaches the sink as a typed
    counter bump; an attached tracer replaces it with recording closures.
    Untraced runs pay one physical-equality check per span and a call to a
    shared no-op closure per counter bump — no allocation. *)

(** Typed event counters bumped by the primitives. Semantics:

    - [And_gates]: AND gates garbled (or cost-equivalently simulated) by
      the GC protocol, summed over every execution of every batch.
    - [Ots]: 1-out-of-2 oblivious transfers executed or accounted —
      evaluator-input OTs of the GC protocol, the OTs underlying B2A
      conversion, and real {!Ot_extension} transfers. OEP switches are
      also realized by one OT each but are counted separately as
      [Oep_switches], never double-counted here.
    - [Oep_switches]: switches of programmed permutation networks
      (Benes + duplication layer) evaluated obliviously.
    - [Cuckoo_bins]: cuckoo bins processed by circuit-PSI (the batched
      OPPRF and the per-bin match circuits are sized by this).
    - [B2a_words]: Boolean-to-arithmetic share conversions of one output
      word each.
    - [Gc_circuits]: individual circuit executions (batch size times
      batches) passed through the GC protocol.
    - [Retries]: transport-level retransmissions of a logical message
      (attempts beyond the first; only bumped when a real transport is
      attached to the context).
    - [Timeouts]: transport receive attempts that expired without an
      intact frame.
    - [Frames_corrupted]: frames rejected by the transport's CRC check.
    - [Checkpoints_written]: durable protocol-state snapshots emitted.
    - [Checkpoint_bytes]: total on-disk bytes of those snapshots. Both
      checkpoint counters count {e persistence} work, not protocol work:
      they are excluded from checkpoint payloads so that resumed and
      uninterrupted runs agree on every protocol counter.
    - [Alice_to_bob_bits], [Bob_to_alice_bits]: declared communication
      each way ([Context.send]).
    - [Rounds]: declared communication rounds ([Context.bump_rounds]).
    - [Sends]: [Context.send] events (a parallel batch counts its one
      aggregated transfer per direction, not its items' sends). *)
type counter =
  | And_gates
  | Ots
  | Oep_switches
  | Cuckoo_bins
  | B2a_words
  | Gc_circuits
  | Retries
  | Timeouts
  | Frames_corrupted
  | Checkpoints_written
  | Checkpoint_bytes
  | Alice_to_bob_bits
  | Bob_to_alice_bits
  | Rounds
  | Sends

let n_counters = 15

let counter_index = function
  | And_gates -> 0
  | Ots -> 1
  | Oep_switches -> 2
  | Cuckoo_bins -> 3
  | B2a_words -> 4
  | Gc_circuits -> 5
  | Retries -> 6
  | Timeouts -> 7
  | Frames_corrupted -> 8
  | Checkpoints_written -> 9
  | Checkpoint_bytes -> 10
  | Alice_to_bob_bits -> 11
  | Bob_to_alice_bits -> 12
  | Rounds -> 13
  | Sends -> 14

let counter_name = function
  | And_gates -> "and_gates"
  | Ots -> "ots"
  | Oep_switches -> "oep_switches"
  | Cuckoo_bins -> "cuckoo_bins"
  | B2a_words -> "b2a_words"
  | Gc_circuits -> "gc_circuits"
  | Retries -> "retries"
  | Timeouts -> "timeouts"
  | Frames_corrupted -> "frames_corrupted"
  | Checkpoints_written -> "checkpoints_written"
  | Checkpoint_bytes -> "checkpoint_bytes"
  | Alice_to_bob_bits -> "alice_to_bob_bits"
  | Bob_to_alice_bits -> "bob_to_alice_bits"
  | Rounds -> "rounds"
  | Sends -> "sends"

let work_counters =
  [ And_gates; Ots; Oep_switches; Cuckoo_bins; B2a_words; Gc_circuits; Retries; Timeouts;
    Frames_corrupted; Checkpoints_written; Checkpoint_bytes ]

let all_counters = work_counters @ [ Alice_to_bob_bits; Bob_to_alice_bits; Rounds; Sends ]

let counter_help = function
  | And_gates -> "AND gates garbled or cost-equivalently simulated"
  | Ots -> "1-out-of-2 oblivious transfers executed or accounted"
  | Oep_switches -> "oblivious permutation-network switches evaluated"
  | Cuckoo_bins -> "cuckoo bins processed by circuit-PSI"
  | B2a_words -> "Boolean-to-arithmetic share conversions"
  | Gc_circuits -> "individual circuit executions through the GC protocol"
  | Retries -> "transport-level retransmissions"
  | Timeouts -> "transport receive attempts that expired"
  | Frames_corrupted -> "frames rejected by the transport CRC check"
  | Checkpoints_written -> "durable protocol-state snapshots emitted"
  | Checkpoint_bytes -> "total on-disk bytes of checkpoints"
  | Alice_to_bob_bits -> "declared communication from Alice to Bob, in bits"
  | Bob_to_alice_bits -> "declared communication from Bob to Alice, in bits"
  | Rounds -> "declared communication rounds"
  | Sends -> "declared transfers"

(* Mirror every typed counter into the process-wide metrics registry
   (Prometheus convention: monotonic counters end in _total). Interned
   lazily so processes that never enable metrics allocate nothing. *)
let registry_counters =
  (* [all_counters] is in [counter_index] order *)
  lazy
    (Array.of_list
       (List.map
          (fun c ->
            Secyan_metrics.counter ~help:(counter_help c)
              ("secyan_" ^ counter_name c ^ "_total"))
          all_counters))

(** Forward one counter bump to the metrics registry (no-op when metrics
    are disabled). The context ledger calls this exactly once per unit of
    work: batch-item ledgers never forward, the merge into the owning
    context does. *)
let registry_bump c n =
  if Secyan_metrics.enabled () then
    Secyan_metrics.add (Lazy.force registry_counters).(counter_index c) n

type t = {
  enter : string -> unit;  (** open a child span under the active span *)
  exit : unit -> unit;     (** close the active span *)
  bump : counter -> int -> unit;  (** add to a counter of the active span *)
}

(** The default sink: does nothing. Compared with [==] by fast paths, so
    keep this the unique physical no-op value. *)
let noop = { enter = (fun _ -> ()); exit = (fun () -> ()); bump = (fun _ _ -> ()) }
