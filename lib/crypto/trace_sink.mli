(** Hook interface between the protocol substrate and an observability
    layer above it: each {!Context.t} carries a sink (default {!noop})
    through which primitives announce span boundaries and every write to
    the context's counter ledger arrives as a typed counter bump. A tracer
    attaches by replacing the sink with recording closures; untraced runs
    cost one physical-equality check (no allocation). *)

(** Typed counters of the context ledger. Work counters: AND gates
    garbled, OTs executed (GC evaluator inputs, B2A, OT extension — OEP
    switches are counted separately), permutation-network switches,
    circuit-PSI cuckoo bins, B2A word conversions, GC circuit executions,
    and — when a real transport is attached — transport retransmissions,
    receive timeouts, and CRC-rejected frames; when a checkpoint sink is
    attached, snapshots written and their on-disk bytes (persistence
    work, excluded from checkpoint payloads so resumed and uninterrupted
    runs agree on every protocol counter). Traffic counters: declared
    bits each way, rounds, and send events. *)
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

val n_counters : int

(** Dense index in [0, n_counters), stable across a run. *)
val counter_index : counter -> int

(** Stable snake_case name used by exporters and metrics files. *)
val counter_name : counter -> string

(** The primitive-work counters ([And_gates] .. [Checkpoint_bytes]);
    exporters list these under a span's counters, and present the four
    traffic counters as its tally and send count. *)
val work_counters : counter list

(** Every counter, in [counter_index] order: [work_counters], then
    [Alice_to_bob_bits], [Bob_to_alice_bits], [Rounds], [Sends]. *)
val all_counters : counter list

(** One-line description of a counter, used as metric help text. *)
val counter_help : counter -> string

(** Mirror one counter bump into the [Secyan_metrics] registry as
    [secyan_<name>_total] (no-op while metrics are disabled). Called by
    the context ledger exactly once per unit of work. *)
val registry_bump : counter -> int -> unit

type t = {
  enter : string -> unit;  (** open a child span under the active span *)
  exit : unit -> unit;     (** close the active span *)
  bump : counter -> int -> unit;  (** add to a counter of the active span *)
}

(** The unique no-op sink; fast paths compare against it physically. *)
val noop : t
