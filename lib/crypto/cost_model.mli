(** Communication-cost constants for the simulated primitives, auditable
    in one place (DESIGN.md §2): half-gates garbling, IKNP OT extension,
    ABY-style B2A conversion, OT-based (Gilboa) ring products, PSTY19
    OPPRF hints, and permutation-network switches. All values are in
    bits. *)

(** Garbled table for one AND gate (half-gates: two kappa-bit rows). *)
val and_gate_bits : kappa:int -> int

(** One wire label for a garbler input. *)
val garbler_input_bits : kappa:int -> int

(** Receiver-side traffic of one IKNP-extended OT. *)
val ot_receiver_bits : kappa:int -> int

(** Sender-side traffic of one OT of two [msg_bits]-wide messages. *)
val ot_sender_bits : msg_bits:int -> int

(** One evaluator input = one OT of wire labels: (receiver, sender) bits. *)
val evaluator_input_ot : kappa:int -> int * int

(** Boolean-to-arithmetic conversion of one [bits]-wide word. *)
val b2a_word_bits : kappa:int -> bits:int -> int

(** One OT-based product of two [bits]-wide shared values, per direction:
    (receiver's choice traffic, sender's correction traffic), summing to
    bits·kappa + bits(bits+1)/2. *)
val ot_product_bits : kappa:int -> bits:int -> int * int

(** Per-cuckoo-bin OPPRF traffic (PSTY19 hint + OPRF evaluation). *)
val opprf_bin_bits : kappa:int -> sigma:int -> int

(** One oblivious switch of a permutation network on [bits]-wide
    payloads. *)
val oep_switch_bits : kappa:int -> bits:int -> int

(** Rough AND-gate count of one per-tuple merge/aggregate circuit over a
    [bits]-wide ring. Progress estimation only; never used for cost
    accounting. *)
val merge_circuit_and_gates : bits:int -> int
