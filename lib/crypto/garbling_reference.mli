(** The pre-arena boxed garbling implementation, preserved as a
    differential baseline for {!Garbling}'s unboxed kernels.

    Bit-identical to {!Garbling} by construction (same half-gates math,
    same PRG draw order, same KDF tweak schedule) — the test suite
    asserts this on randomized circuits, and bounds the minor-heap
    allocation rate the unboxed rewrite removed against this module.
    Not called by any production path; see DESIGN.md §14. *)

module Label = Garbling.Label

type garbled = {
  circuit : Boolean_circuit.t;
  input_hi : int64 array;  (** false-label [hi] plane of each input wire *)
  input_lo : int64 array;  (** false-label [lo] plane of each input wire *)
  delta_hi : int64;
  delta_lo : int64;
  table_g_hi : int64 array;  (** generator half-gate ciphertext T_G, per AND gate *)
  table_g_lo : int64 array;
  table_e_hi : int64 array;  (** evaluator half-gate ciphertext T_E, per AND gate *)
  table_e_lo : int64 array;
  output_decode : bool array;  (** color of the false label of each output *)
}

val garble : ?kdf:Garbling.kdf -> Prg.t -> Boolean_circuit.t -> garbled
val encode_input : garbled -> int -> bool -> Label.t
val eval_labels : ?kdf:Garbling.kdf -> garbled -> Label.t array -> Label.t array
val decode_output : garbled -> out_index:int -> Label.t -> bool
