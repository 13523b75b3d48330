(** Communication-cost constants for the simulated primitives, auditable
    in one place (DESIGN.md §2): half-gates garbling, IKNP OT extension,
    ABY-style B2A conversion, OT-based (Gilboa) ring products, PSTY19
    OPPRF hints, and permutation-network switches. All values are in
    bits. *)

(** Computational security parameter: 128, the width of a wire label
    ([Garbling.Label]) and of an IKNP column ([Ot_extension]). A
    constant, because no other width is ever carried on the wire. *)
val kappa : int

(** Statistical security parameter: 40. *)
val sigma : int

(** Garbled table for one AND gate (half-gates: two kappa-bit rows). *)
val and_gate_bits : int

(** One wire label for a garbler input. *)
val garbler_input_bits : int

(** One evaluator input = one OT of wire labels: (receiver, sender) bits. *)
val evaluator_input_ot : int * int

(** Boolean-to-arithmetic conversion of one [bits]-wide word. *)
val b2a_word_bits : bits:int -> int

(** One OT-based product of two [bits]-wide shared values, per direction:
    (receiver's choice traffic, sender's correction traffic), summing to
    bits·kappa + bits(bits+1)/2. *)
val ot_product_bits : bits:int -> int * int

(** Per-cuckoo-bin OPPRF traffic (PSTY19 hint + OPRF evaluation). *)
val opprf_bin_bits : int

(** One oblivious switch of an OEP (an AS-Waksman network switch or a
    duplication-chain switch) on [bits]-wide payloads. *)
val oep_switch_bits : bits:int -> int

(** Rough AND-gate count of one per-tuple merge or product circuit of a
    non-ring semiring over [bits]-wide words. Progress estimation only;
    never used for cost accounting. *)
val merge_circuit_and_gates : bits:int -> int
