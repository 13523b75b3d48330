(** Circuit-based private set intersection with secret-shared payloads
    (paper §5.5, over the §5.3 PSI of Pinkas et al. [PSTY19]).

    Alice holds X (|X| = M), Bob holds Y (|Y| = N) with one shared
    payload per element. Alice cuckoo-hashes X into B = 1.27 M bins; Bob
    maps each element of Y into its three candidate bins; two batched
    OPPRFs deliver, per bin, a value that matches Bob's per-bin target
    exactly when Alice's bin element is in Y, and a masked index; one
    garbled circuit per bin then reveals the bin's index to Alice, and a
    second OEP moves the payloads to their bins.

    This is the only PSI the protocol runs: the paper's plain
    PSI-with-payloads for annotations still clear to their owner (§6.5)
    is not implemented, because the shared-payload path costs fewer bits
    and AND gates here (DESIGN.md §2 item 12).

    Elements must be distinct 60-bit encodings (see {!dummy_for_bin}): the
    two top bits are reserved so per-bin dummies for empty bins can never
    collide with real elements. Total cost O~(M + N), constant rounds. *)

let element_bits = 60

(** Query point for an empty cuckoo bin: top bit set, disjoint from every
    legal element encoding. *)
let dummy_for_bin i = Int64.logor (Int64.shift_left 1L 62) (Int64.of_int i)

let check_element x =
  if Int64.unsigned_compare x (Int64.shift_left 1L element_bits) >= 0 then
    invalid_arg
      (Printf.sprintf "Psi.check_element: encoding %Lu does not fit in %d bits (the top \
                       bits are reserved for bin dummies)" x element_bits)

type result = {
  table : Cuckoo_hash.table;       (** the receiver's cuckoo table over X *)
  payload : Secret_share.t array;  (** per bin: shared payload or 0 *)
}

(** Comparison width for the OPPRF targets: sigma bits of statistical
    security plus slack for the number of comparisons. *)
let cmp_bits = min 58 (Cost_model.sigma + 16)

(** Width of the index words over [total] = N + B positions. *)
let index_bits total =
  let rec needed b = if 1 lsl b >= total then b else needed (b + 1) in
  needed 1

let index_bin builder (words : Circuits.word array) =
  let hit = Circuits.eq_word builder words.(0) words.(2) in
  [ Circuits.mux_word builder ~sel:hit (Circuits.xor_word builder words.(1) words.(3)) words.(4) ]

(** The protocol, with Bob as the sender of Y:

    1. Alice builds the cuckoo table over X and sends the hash keys.
    2. Bob draws a random permutation xi1 of [N+B], and an OEP maps the
       shares, extended with B zeros, to z'_j = z_{xi1(j)}.
    3. Bob simple-hashes Y and draws per-bin targets r_i and masks m_i;
       two batched OPPRFs give Alice a_i (= r_i iff Alice's bin element is in
       Y) and w_i (= xi1^{-1}(j) XOR m_i on a hit with y_j).
    4. Per bin, one garbled circuit ({!index_bin}) reveals to Alice only
       k_i = (a_i = r_i) ? (w_i XOR m_i) : xi1^{-1}(N+i): the matching
       element's permuted position, or a fresh dummy position — uniformly
       random distinct indices that leak nothing.
    5. A second OEP with xi2(i) = k_i (held by Alice) maps z' to
       z''_i = the payload of the matching y_j, or 0.

    Both maps are injective, so each OEP is one permutation network
    ([Oep.permute_shared]): xi1 is a permutation, and the k_i are
    distinct because the receiver's padded set has distinct keys (a
    matching bin reveals its element's own position) and any other bin
    reveals its own dummy N+i.

    Indices travel in [index_bits]-wide words, never in the annotation
    ring, so a ring narrower than log2(N+B) (a boolean query's 1 bit)
    loses nothing. *)
let with_shared_payloads ctx ~receiver ~alice_set ~bob_set ~bob_payload_shares : result =
  let sender = Party.other receiver in
  let n = Array.length bob_set in
  Array.iter check_element alice_set;
  Array.iter check_element bob_set;
  if Array.length bob_payload_shares <> n then
    invalid_arg
      (Printf.sprintf "Psi.with_shared_payloads: %d payloads for %d set elements (expected \
                       one payload per element)" (Array.length bob_payload_shares) n);
  Context.with_span ctx "psi:shared-payloads" @@ fun () ->
  let table =
    let context =
      Printf.sprintf "%s receiver=%s |X|=%d |Y|=%d" ctx.Context.current_label
        (Party.to_string receiver) (Array.length alice_set) n
    in
    Cuckoo_hash.build ~context (Context.prg_of ctx receiver) alice_set
  in
  Context.send ctx ~from:receiver ~bits:(3 * 64);
  Context.bump_rounds ctx 1;
  let b = Array.length table.Cuckoo_hash.slots in
  Context.bump ctx Trace_sink.Cuckoo_bins b;
  let total = n + b in
  let index_bits = index_bits total in
  let sender_prg = Context.prg_of ctx sender in
  let xi1 = Prg.permutation sender_prg total in
  let xi1_inv = Array.make total 0 in
  Array.iteri (fun j src -> xi1_inv.(src) <- j) xi1;
  let extended =
    Array.init total (fun j -> if j < n then bob_payload_shares.(j) else Secret_share.zero)
  in
  let z' = Oep.permute_shared ctx ~holder:sender ~xi:xi1 ~m:total extended in
  let cmp = cmp_bits in
  let bob_bins = Cuckoo_hash.simple_hash table.Cuckoo_hash.keys bob_set in
  let targets = Array.init b (fun _ -> Prg.bits sender_prg cmp) in
  let masks = Array.init b (fun _ -> Prg.bits sender_prg index_bits) in
  let programming value =
    Array.init b (fun i -> List.map (fun j -> (bob_set.(j), value i j)) bob_bins.(i))
  in
  let queries =
    Array.init b (fun i ->
        match table.Cuckoo_hash.slots.(i) with Some x -> x | None -> dummy_for_bin i)
  in
  let got_target =
    Oprf.batch ctx ~sender ~out_bits:cmp ~programming:(programming (fun i _ -> targets.(i)))
      ~queries
  in
  let got_index =
    Oprf.batch ctx ~sender ~out_bits:index_bits
      ~programming:
        (programming (fun i j -> Int64.logxor (Int64.of_int xi1_inv.(j)) masks.(i)))
      ~queries
  in
  let items =
    Array.init b (fun i ->
        let priv owner value bits = Gc_protocol.Priv { owner; value; bits } in
        [
          priv receiver got_target.(i) cmp;
          priv receiver got_index.(i) index_bits;
          priv sender targets.(i) cmp;
          priv sender masks.(i) index_bits;
          priv sender (Int64.of_int xi1_inv.(n + i)) index_bits;
        ])
  in
  let ks = Gc_protocol.eval_reveal_batch ctx ~to_:receiver ~items ~build:index_bin in
  let xi2 = Array.map (fun k -> Int64.to_int k.(0)) ks in
  { table; payload = Oep.permute_shared ctx ~holder:receiver ~xi:xi2 ~m:total z' }
