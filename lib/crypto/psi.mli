(** Circuit-based private set intersection with secret-shared payloads
    (paper §5.5, over the §5.3 PSI of Pinkas et al. PSTY19): cuckoo
    hashing on the receiver's side, simple hashing + two batched OPPRFs
    on the sender's, one garbled circuit per bin revealing an index to
    the receiver, and two OEPs that move the payload shares.

    The only PSI of the protocol: the paper's plain PSI-with-payloads for
    annotations still clear to their owner (§6.5) is deliberately absent
    (DESIGN.md §2 item 12).

    Elements must be distinct encodings below 2^60 (the top bits are
    reserved for per-bin dummies). Cost O~(M + N), constant rounds. *)

type result = {
  table : Cuckoo_hash.table;       (** the receiver's cuckoo table over X *)
  payload : Secret_share.t array;  (** per bin: shared payload, or 0 *)
}

(** Comparison width of the OPPRF targets (sigma plus slack). *)
val cmp_bits : int

(** The width of the index words over [total] = N + B positions (sender
    elements plus cuckoo bins): ceil(log2 total), at least 1. *)
val index_bits : int -> int

(** [with_shared_payloads ctx ~receiver ~alice_set ~bob_set
    ~bob_payload_shares]: the receiver holds [alice_set], the other party
    holds [bob_set] with one secret-shared payload per element. Returns
    the receiver's cuckoo table and, per bin, a fresh sharing of the
    payload of the sender element in that bin, or of 0: an OEP, PSI over
    permuted indices whose per-bin circuit reveals one index k_i to the
    receiver, and a second OEP programmed with the k_i.

    @raise Invalid_argument on oversized elements or mismatched payload
    counts. *)
val with_shared_payloads :
  Context.t ->
  receiver:Party.t ->
  alice_set:int64 array ->
  bob_set:int64 array ->
  bob_payload_shares:Secret_share.t array ->
  result

(** The per-bin circuit, exposed to pin its gate count. It reads the
    receiver's OPPRF outputs (a_i, w_i) and the sender's target, mask and
    dummy index (r_i, m_i, d_i), and outputs
    k_i = (a_i = r_i) ? (w_i XOR m_i) : d_i. *)
val index_bin : Boolean_circuit.Builder.b -> Circuits.word array -> Circuits.word list
