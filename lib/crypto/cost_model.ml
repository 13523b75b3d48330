(** Explicit communication-cost constants for the simulated primitives.

    Wherever a primitive is simulated (see DESIGN.md §2), its accounted
    communication comes from these functions, so the model is auditable in
    one place. Values follow the standard semi-honest constructions the
    paper builds on: half-gates garbling (2 kappa bits per AND gate), IKNP
    OT extension (kappa-bit column from the receiver plus the two padded
    messages from the sender), ABY-style B2A share conversion, and the
    OT-based (Gilboa) product of two shared ring elements (DESIGN.md §2
    item 9): bits·kappa + bits(bits+1)/2 bits each way per product. *)

(** Computational security parameter: the 128-bit wire labels of
    [Garbling] and the 128 IKNP columns of [Ot_extension]. A constant,
    so every accounted bit matches a width the protocol really carries. *)
let kappa = 128

(** Statistical security parameter. *)
let sigma = 40

(** Garbled table for one AND gate (half-gates: two kappa-bit rows). *)
let and_gate_bits = 2 * kappa

(** One wire label for a garbler input. *)
let garbler_input_bits = kappa

(** One 1-out-of-2 OT of two [msg_bits]-wide messages under IKNP extension:
    the receiver contributes a kappa-bit matrix column, the sender the two
    masked messages. *)
let ot_receiver_bits = kappa
let ot_sender_bits ~msg_bits = 2 * msg_bits

(** Evaluator input = one OT of wire labels. *)
let evaluator_input_ot = (ot_receiver_bits, ot_sender_bits ~msg_bits:kappa)

(** Boolean-to-arithmetic conversion of one [bits]-wide word (ABY B2A via
    correlated OT: one OT of a [bits]-wide correction per bit). *)
let b2a_word_bits ~bits = bits * (ot_receiver_bits + ot_sender_bits ~msg_bits:bits)

(** One OT-based (Gilboa) product of two [bits]-wide shared values, per
    direction: each party receives one cross term's [bits] correlated
    OTs (a kappa-bit IKNP column each) and sends the other's, whose
    [i]-th OT carries one (bits - i)-bit correction. Returned as
    (receiver's choice traffic, sender's correction traffic); their sum,
    bits·kappa + bits(bits+1)/2, is 8,034 bits at 52 bits and kappa = 128. *)
let ot_product_bits ~bits = (bits * ot_receiver_bits, bits * (bits + 1) / 2)

(** PSTY19 circuit-PSI OPPRF hint: per cuckoo bin, the sender transmits a
    programmed hint of width sigma + log overhead; we charge
    (kappa + hint) bits per bin for the OPRF evaluations plus hints. *)
let opprf_bin_bits = kappa + sigma + 24

(** One oblivious switch of an OEP on [bits]-wide payloads — a switch of
    an AS-Waksman network or of the duplication chain: one OT carrying
    the two swapped outputs. An OEP costs this times its switch count
    ([Oep.n_switches]), which depends on the public sizes alone. *)
let oep_switch_bits ~bits = ot_receiver_bits + ot_sender_bits ~msg_bits:(2 * bits)

(** Rough AND-gate count of one per-tuple merge or product circuit of
    a non-ring semiring (boolean, tropical) over [bits]-wide words:
    comparison/selection logic and adders, linear in [bits]. Ring
    aggregation and ring products garble nothing (a segmented sum
    through one OEP; {!ot_product_bits}). Progress-estimation only —
    protocol cost accounting always charges the exact per-circuit gate
    counts, never this figure. *)
let merge_circuit_and_gates ~bits = 4 * bits
