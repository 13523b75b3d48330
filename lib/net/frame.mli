(** Wire framing: [magic(2) | seq(8 LE) | len(4 LE) | payload | crc32(4 LE)].
    The CRC covers sequence, length, and payload; the sequence number is
    per logical message and reused by retransmissions so receivers can
    deduplicate. *)

val header_len : int
val overhead : int

(** Acceptance cap on received frames (default [Envelope.max_body] plus
    slack, i.e. ~4 MiB): {!required} and {!decode} reject a declared
    payload length above it as [Oversized] {e before} any reassembly
    buffer grows to hold the body. Honest senders chunk protocol messages
    below the cap, so only a peer lying about sizes trips it. *)
val default_accept_limit : int

(** Adjust the acceptance cap (tests lower it; deployments may raise it
    up to the 1 GiB sanity cap on one payload, above which a length
    field is treated as corruption).
    @raise Invalid_argument outside [[1, 2^30]]. *)
val set_accept_limit : int -> unit

(** @raise Invalid_argument if the payload exceeds 1 GiB. *)
val encode : seq:int64 -> Bytes.t -> Bytes.t

type error = Bad_magic | Bad_length | Bad_crc | Oversized

val error_to_string : error -> string

(** Total frame size at the head of the slice ([Ok None] when fewer than
    {!header_len} bytes are in view; [Error] on an implausible header,
    i.e. a desynchronized stream). *)
val required : Bytes.t -> pos:int -> len:int -> (int option, error) result

(** Decode one complete frame to [(seq, payload)]. *)
val decode : Bytes.t -> (int64 * Bytes.t, error) result
