(** Canonical versioned serialization of the protocol's working state and
    the save/restore machinery behind durable checkpoints (DESIGN.md §11):
    what a resumed process cannot re-derive — shared working relations or
    the completed join, the context's ledger (tally and protocol
    counters), the three PRG
    stream positions, the dummy-id stream, and (with a real channel) the
    transport sequence counters. Everything else is deliberately not
    persisted and re-derived deterministically on replay. *)

open Secyan_crypto
open Secyan_relational

(** Where in the three-phase plan the snapshot was taken. *)
type stage =
  | Ops of {
      done_ops : int;  (** plan operators already executed *)
      remaining : string list;  (** node labels not yet folded away *)
      rels : (string * Shared_relation.t) list;  (** the shared working state *)
    }
  | Joined of { joined : Relation.t; annots : Secret_share.t array }

type snapshot = {
  stage : stage;
  prg_alice : int64 array;
  prg_bob : int64 array;
  dealer : int64 array;
  counters : int array;  (** the ledger, traffic included; checkpoint counters zeroed *)
  dummy_count : int;
  transport_seqs : int64 array option;
}

(** Binary payload codec (strict: a payload that does not decode exactly
    raises the typed [Checkpoint.Checkpoint_error]). *)
val encode_snapshot : snapshot -> Bytes.t

val decode_snapshot : path:string -> Bytes.t -> snapshot

(** Hex digest canonically identifying "the same run": query structure,
    input content (hashed), and every context parameter shaping the
    transcript. Domains count and transport/checkpoint attachments are
    absent by design — results and tallies are bit-identical across them,
    so a run may legitimately resume under a different pool size or
    backend. *)
val fingerprint : Context.t -> Query.t -> string

(** Capture the context's current execution point around [stage]. *)
val capture : Context.t -> stage:stage -> snapshot

(** Reinstate a snapshot on [ctx]: the ledger (absolute tally and
    protocol counters; the process's own checkpoint counters are kept),
    PRG stream positions, dummy-id stream, and — when both sides carry one — the
    transport sequence counters, after a session-resume handshake on
    [(session, epoch)]. *)
val restore : Context.t -> session:string -> epoch:int -> snapshot -> unit

(** Serialize and emit one snapshot through the context's checkpoint sink
    (no-op without one), under a ["checkpoint"] trace span, bumping the
    [Checkpoints_written]/[Checkpoint_bytes] counters. [fingerprint] is
    the run's {!fingerprint}, forced only when a sink is attached, so a
    run computes it once for all its checkpoints. *)
val save : Context.t -> fingerprint:string Lazy.t -> label:string -> stage:stage -> unit

type resumed = {
  snapshot : snapshot;
  epoch : int;  (** epoch of the loaded checkpoint *)
  label : string;
}

(** Load the latest checkpoint of the context's sink directory, verify it
    carries [fingerprint] (forced only when a sink is attached), reinstate
    it on [ctx], and point the sink at the next epoch of the same session.
    [None] when no sink is attached or the directory holds no checkpoints
    (fresh start).
    @raise Checkpoint.Checkpoint_error on damaged or mismatched files.
    @raise Secyan_net.Resilient.Resume_mismatch on handshake disagreement. *)
val load_and_restore : Context.t -> fingerprint:string Lazy.t -> resumed option
