(** Word-level circuit constructions over {!Boolean_circuit.Builder}: a
    word is a little-endian array of builder values, and all arithmetic is
    modulo 2^(word length). AND-gate costs: add/sub ~n, mul ~n^2,
    comparisons ~n, restoring division ~3n^2; XOR/NOT are free. *)

type word = Boolean_circuit.Builder.value array

val width : word -> int
val input_word : Boolean_circuit.Builder.b -> int -> word
val const_word : bits:int -> int64 -> word

(** Little-endian bit decomposition helpers for circuit I/O. *)
val bool_array_of_int64 : bits:int -> int64 -> bool array

val int64_of_bool_array : bool array -> int64
val xor_word : Boolean_circuit.Builder.b -> word -> word -> word

(** AND every bit of the word with one gating bit. *)
val gate_word :
  Boolean_circuit.Builder.b -> Boolean_circuit.Builder.value -> word -> word

val not_word : Boolean_circuit.Builder.b -> word -> word
val add_word : Boolean_circuit.Builder.b -> word -> word -> word
val neg_word : Boolean_circuit.Builder.b -> word -> word
val sub_word : Boolean_circuit.Builder.b -> word -> word -> word
val mul_word : Boolean_circuit.Builder.b -> word -> word -> word

(** Equality of two words, as one output bit. *)
val eq_word :
  Boolean_circuit.Builder.b -> word -> word -> Boolean_circuit.Builder.value

val nonzero_word : Boolean_circuit.Builder.b -> word -> Boolean_circuit.Builder.value

(** Unsigned comparison via the borrow chain. *)
val lt_word :
  Boolean_circuit.Builder.b -> word -> word -> Boolean_circuit.Builder.value

val gt_word :
  Boolean_circuit.Builder.b -> word -> word -> Boolean_circuit.Builder.value

(** [mux_word b ~sel x y] = if sel then x else y. *)
val mux_word :
  Boolean_circuit.Builder.b -> sel:Boolean_circuit.Builder.value -> word -> word -> word

(** Restoring division: (quotient, remainder); division by zero yields
    the all-ones quotient, as in hardware dividers. *)
val divmod_word : Boolean_circuit.Builder.b -> word -> word -> word * word

val div_word : Boolean_circuit.Builder.b -> word -> word -> word

(** sel ? x : 0 — the gating used everywhere annotations may be absent. *)
val zero_unless :
  Boolean_circuit.Builder.b -> Boolean_circuit.Builder.value -> word -> word

(** Materialize every possibly-constant bit onto real wires (before
    [finalize]); [anchor] is any existing input wire id. *)
val materialize_word : Boolean_circuit.Builder.b -> int -> word -> word
