(** Deterministic, seeded fault injection over a raw transport: the one
    wrapper for line faults ([--chaos]) and Byzantine mutations
    ([--malicious]). Faults are keyed by message index (a global counter
    of send attempts, retransmissions included) and every fault rides an
    honest send, so [(spec, seed)] names one reproducible schedule.

    Recoverability of line faults is legible from the spec: a burst
    shorter than the retry budget is survivable (the retransmission
    escapes the burst); a [corrupt] or [drop] burst at least as long as
    the budget — or any [disconnect] — is not. Byzantine mutations are
    re-encoded with a valid CRC and the original sequence number, so
    only the typed envelope and the protocol state machine reject them. *)

type fault =
  | Drop  (** the frame is never transmitted *)
  | Duplicate  (** the frame is transmitted twice *)
  | Corrupt  (** one bit after the frame header is flipped (CRC-detectable) *)
  | Delay  (** held back until the next send in its direction *)
  | Disconnect  (** the channel closes for good *)
  | Truncate  (** shorten the body (consistently re-declared) *)
  | Extend  (** append junk to the body (consistently re-declared) *)
  | Retag  (** rewrite the envelope kind tag *)
  | Replay  (** substitute a previously recorded payload, same direction *)
  | Splice  (** substitute a recorded payload of a different kind *)
  | Length_lie
      (** lie in a length field: the envelope's declared length (small
          lie or above-cap allocation bait) or the frame header's own
          length with the CRC refreshed *)

(** How a spec's integers place faults on message indices. *)
type layout =
  | Bursts
      (** [--chaos]: [kind:n] is a burst of [n] consecutive indices; bursts
          are laid out in spec order with seeded gaps, and [disconnect:i]
          closes the channel at index [i]. Kinds: [drop], [duplicate]
          (alias [dup]), [corrupt], [delay], [disconnect]. *)
  | Indexed
      (** [--malicious]: [kind:i] faults index [i] alone. Kinds:
          [truncate], [extend], [retag], [replay], [reorder] (= [Delay]),
          [splice], [length-lie] (alias [lie]). *)

(** The [Indexed] kinds, in the order the peer fuzzer draws them. *)
val byzantine : fault list

(** The kind's name under [layout] (default [Bursts]); [Delay] is
    ["reorder"] under [Indexed]. *)
val fault_name : ?layout:layout -> fault -> string

type spec = (fault * int) list

(** The grammar shared by [--chaos], [--malicious] and [--fault]:
    comma-separated entries, each trimmed, split on [':'] and handed to
    [entry]. A blank string is the empty list; an empty entry is an
    error. *)
val parse_entries :
  (string list -> ('a, string) result) -> string -> ('a list, string) result

(** Parse ["kind:n[,kind:n...]"] with the kinds of [layout] (default
    [Bursts]), e.g. ["drop:3,delay:5,disconnect:40"] or, [Indexed],
    ["retag:3,replay:12"]. *)
val parse_spec : ?layout:layout -> string -> (spec, string) result

val spec_to_string : ?layout:layout -> spec -> string

(** [wrap ~seed ~layout ~spec raw] returns the fault-injecting transport
    and a thunk for the faults that actually fired, as [(fault, index)]
    in firing order. Honest payloads are recorded for [replay]/[splice]
    only up to the last such index in the schedule. *)
val wrap :
  ?seed:int64 ->
  ?layout:layout ->
  spec:spec ->
  Transport.raw ->
  Transport.raw * (unit -> (fault * int) list)
