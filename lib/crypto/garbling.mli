(** Garbled circuits: half-gates garbling (Zahur–Rosulek–Evans) with
    free-XOR and point-and-permute over 128-bit wire labels. Two AND-gate
    ciphertexts per gate; XOR and NOT are free. This is the [Real] backend
    of {!Gc_protocol}.

    The correlation-robust hash is fixed-key AES-128 ({!Aes128}), one
    call per AND gate. The garble/eval inner loops are
    {e allocation-free}: wire labels, half-gate tables, and decode bits
    live in [Bytes] planes accessed through unaligned native [int64]
    primitives — never in [int64 array], whose element stores box
    (DESIGN.md §14). Every plane comes from an {!Arena}, the per-domain
    one reused across batch items. {!Label.t} remains the boxed
    representation at the protocol boundary.

    {!Garbling_reference} preserves the previous boxed implementation as
    a differential baseline (bit-identity is asserted in the tests). *)

module Label : sig
  type t = { hi : int64; lo : int64 }

  val zero : t
  val xor : t -> t -> t

  (** The point-and-permute color bit. *)
  val color : t -> bool

  val equal : t -> t -> bool
  val random : Prg.t -> t

  (** Free-XOR global offset, color bit forced to 1. *)
  val random_delta : Prg.t -> t

  (** The fixed-key AES-128 hash H(label, tweak) ({!Aes128.label_hash}). *)
  val hash_aes : t -> tweak:int64 -> t
end

(** The garbling hash has one instantiation, fixed-key AES. This
    one-constructor type and the [?kdf] arguments of {!garble} and
    {!eval_colors}, which are ignored, are kept only because the
    benchmark harness ([e2ebench/main.ml]) names them; nothing else
    should. *)
type kdf = Aes128_kdf

(** Per-domain scratch arena for the garble/eval planes: grown
    geometrically, never shrunk, reused across items, so steady-state
    garbling of same-shaped circuits allocates nothing. Each domain owns
    its own arena via [Domain.DLS] ({!Arena.current}); arenas must not be
    shared across domains. Buffers handed out against an arena (a
    [garbled] from [garble ~arena], a color plane from {!eval_colors})
    stay valid only until the next garble/eval call on the same arena. *)
module Arena : sig
  type t

  (** A fresh arena with empty planes (they grow on first use). *)
  val create : unit -> t

  (** The calling domain's arena, created on first use. *)
  val current : unit -> t

  (** Drop all planes back to empty (they regrow on next use) and zero
      the scratch. Called on the claiming domain after a batch item
      raises: the planes may hold a half-written circuit and any value
      aliasing them is poison — dirty label material is never reused
      (DESIGN.md §15). *)
  val reset : t -> unit
end

type garbled = {
  circuit : Boolean_circuit.t;
  wires : Bytes.t;
      (** false-label planes of {e every} wire: [hi] at byte [16 * w],
          [lo] at [16 * w + 8], native byte order. Input wires are the
          prefix — no separate copy is taken. Aliases an arena. *)
  delta_hi : int64;
  delta_lo : int64;
  tables : Bytes.t;
      (** per AND gate [k] in gate order: T_G.hi, T_G.lo, T_E.hi, T_E.lo
          at byte [32 * k]. Aliases an arena. *)
  decode : Bytes.t;
      (** 1 byte per output: ['\001'] iff the false label has color 1.
          Aliases an arena. *)
}

(** Garble a circuit with the generator's randomness. The result's planes
    alias [arena] and stay valid only until the next garble on the same
    arena. They may be longer than the circuit needs: only the first
    [32 * and_count] table bytes and [n_outputs] decode bytes are this
    circuit's. *)
val garble : ?kdf:kdf -> arena:Arena.t -> Prg.t -> Boolean_circuit.t -> garbled

(** The label encoding bit [b] on input wire [i]. *)
val encode_input : garbled -> int -> bool -> Label.t

(** The color (Boolean share) of output [out_index]'s false label — the
    generator's half of the Yao sharing of that output. *)
val decode_bit : garbled -> int -> bool

(** Evaluate on active labels. The evaluator wire plane comes from
    [arena]; the returned labels are fresh boxed values. *)
val eval_labels : arena:Arena.t -> garbled -> Label.t array -> Label.t array

(** Select each input's active label by its cleartext bit ([bit i] is
    input wire [i]'s value), evaluate, and return the active color of
    every output — one byte per output, ['\001'] = color set — in the
    arena's color plane, valid until the next eval on the same arena.
    The batch hot path: with [garble ~arena] this runs a whole item with
    no per-gate or per-wire allocation. *)
val eval_colors : ?kdf:kdf -> arena:Arena.t -> garbled -> (int -> bool) -> Bytes.t

(** Decode an output's active label to its cleartext bit. *)
val decode_output : garbled -> out_index:int -> Label.t -> bool
