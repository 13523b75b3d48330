(** Circuit-based private set intersection with payloads (paper §5.3,
    following Pinkas et al. PSTY19): cuckoo hashing on the receiver's
    side, simple hashing + two batched OPPRFs on the sender's, and one
    garbled circuit per bin.

    Elements must be distinct encodings below 2^60 (the top bits are
    reserved for per-bin dummies). Cost O~(M + N), constant rounds. *)

val element_bits : int

(** The query point standing in for an empty cuckoo bin. *)
val dummy_for_bin : int -> int64

type result = {
  table : Cuckoo_hash.table;       (** the receiver's cuckoo table over X *)
  payload : Secret_share.t array;  (** per bin: shared payload, or 0 *)
}

(** Comparison width of the OPPRF targets (sigma plus slack). *)
val cmp_bits : Context.t -> int

(** [with_payloads ctx ~receiver ~alice_set ~bob_set ~bob_payloads]: the
    receiver holds [alice_set], the other party holds [bob_set] with one
    cleartext payload per element (paper §6.5).

    @raise Invalid_argument on oversized elements or mismatched payload
    counts. *)
val with_payloads :
  Context.t ->
  receiver:Party.t ->
  alice_set:int64 array ->
  bob_set:int64 array ->
  bob_payloads:int64 array ->
  result

(** PSI whose payloads are secret-shared (paper §5.5), for multi-join
    queries where the sender's payloads are intermediate annotations: an
    OEP, PSI over permuted indices whose per-bin circuit reveals one index
    k_i to the receiver, and a second OEP programmed with the k_i.

    @raise Invalid_argument on oversized elements or mismatched payload
    counts. *)
val with_shared_payloads :
  Context.t ->
  receiver:Party.t ->
  alice_set:int64 array ->
  bob_set:int64 array ->
  bob_payload_shares:Secret_share.t array ->
  result

(** The per-bin circuits, exposed to pin their gate counts. Both read the
    receiver's OPPRF outputs (a_i, w_i) and the sender's target and mask
    (r_i, m_i). [clear_bin] ({!with_payloads}) outputs
    (a_i = r_i) ? (w_i XOR m_i) : 0; [index_bin] ({!with_shared_payloads})
    also reads the sender's dummy index d_i and outputs
    k_i = (a_i = r_i) ? (w_i XOR m_i) : d_i. *)
val clear_bin : Boolean_circuit.Builder.b -> Circuits.word array -> Circuits.word list
val index_bin : Boolean_circuit.Builder.b -> Circuits.word array -> Circuits.word list
