(** Circuit-based private set intersection with payloads (paper §5.3),
    following Pinkas et al. [PSTY19].

    Alice holds X (|X| = M), Bob holds Y (|Y| = N) with one payload per
    element. Alice cuckoo-hashes X into B = 1.27 M bins; Bob maps each
    element of Y into its three candidate bins; two batched OPPRFs deliver,
    per bin, a value that matches Bob's per-bin target exactly when Alice's
    bin element is in Y, and the masked payload; one garbled circuit per
    bin then computes the bin's output from these.

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
let cmp_bits ctx = min 58 (ctx.Context.sigma + 16)

let check_inputs ~fn ~alice_set ~bob_set n_payloads =
  Array.iter check_element alice_set;
  Array.iter check_element bob_set;
  if n_payloads <> Array.length bob_set then
    invalid_arg
      (Printf.sprintf "Psi.%s: %d payloads for %d set elements (expected one payload per \
                       element)" fn n_payloads (Array.length bob_set))

(* The prefix of both entry points, inside the caller's span. The
   receiver builds the cuckoo table and sends the hash keys. *)
let cuckoo_table ctx ~receiver ~alice_set ~bob_set =
  let table =
    let context =
      Printf.sprintf "%s receiver=%s |X|=%d |Y|=%d" ctx.Context.current_label
        (Party.to_string receiver) (Array.length alice_set) (Array.length bob_set)
    in
    Cuckoo_hash.build ~context (Context.prg_of ctx receiver) alice_set
  in
  Context.send ctx ~from:receiver ~bits:(3 * 64);
  Context.bump_rounds ctx 1;
  Context.bump ctx Trace_sink.Cuckoo_bins (Array.length table.Cuckoo_hash.slots);
  table

(* The sender simple-hashes Y and draws per-bin targets r_i and
   [payload_bits]-wide masks m_i; two batched OPPRFs give the receiver
   a_i (= r_i iff its bin element is in Y) and w_i (= payload XOR m_i on a
   hit). Returns each bin's circuit inputs [a_i; w_i; r_i; m_i]. *)
let opprf_bins ctx ~receiver ~(table : Cuckoo_hash.table) ~(bob_set : int64 array)
    ~payload_bits ~(payloads : int64 array) =
  let sender = Party.other receiver in
  let cmp = cmp_bits ctx in
  let b = Array.length table.Cuckoo_hash.slots in
  let bob_bins = Cuckoo_hash.simple_hash table.Cuckoo_hash.keys bob_set in
  let sender_prg = Context.prg_of ctx sender in
  let targets = Array.init b (fun _ -> Prg.bits sender_prg cmp) in
  let masks = Array.init b (fun _ -> Prg.bits sender_prg payload_bits) in
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
  let got_payload =
    Oprf.batch ctx ~sender ~out_bits:payload_bits
      ~programming:(programming (fun i j -> Int64.logxor payloads.(j) masks.(i)))
      ~queries
  in
  Array.init b (fun i ->
      [
        Gc_protocol.Priv { owner = receiver; value = got_target.(i); bits = cmp };
        Gc_protocol.Priv { owner = receiver; value = got_payload.(i); bits = payload_bits };
        Gc_protocol.Priv { owner = sender; value = targets.(i); bits = cmp };
        Gc_protocol.Priv { owner = sender; value = masks.(i); bits = payload_bits };
      ])

let clear_bin builder (words : Circuits.word array) =
  let hit = Circuits.eq_word builder words.(0) words.(2) in
  [ Circuits.zero_unless builder hit (Circuits.xor_word builder words.(1) words.(3)) ]

let index_bin builder (words : Circuits.word array) =
  let hit = Circuits.eq_word builder words.(0) words.(2) in
  [ Circuits.mux_word builder ~sel:hit (Circuits.xor_word builder words.(1) words.(3)) words.(4) ]

(** Clear payloads (paper §6.5): per bin, the circuit outputs
    (a_i = r_i) ? (w_i XOR m_i) : 0 as a fresh arithmetic share. *)
let with_payloads ctx ~receiver ~alice_set ~bob_set ~bob_payloads : result =
  check_inputs ~fn:"with_payloads" ~alice_set ~bob_set (Array.length bob_payloads);
  Context.with_span ctx "psi:payloads" @@ fun () ->
  let table = cuckoo_table ctx ~receiver ~alice_set ~bob_set in
  let items =
    opprf_bins ctx ~receiver ~table ~bob_set ~payload_bits:(Context.ring_bits ctx)
      ~payloads:bob_payloads
  in
  let shares = Gc_protocol.eval_to_shares_batch ctx ~items ~build:clear_bin in
  { table; payload = Array.map (fun s -> s.(0)) shares }

(** Secret-shared payloads (paper §5.5): the multi-join case, where the
    sender's payloads z_1..z_N are intermediate annotations in shared form
    and cannot enter the OPPRF.

    1. The sender draws a random permutation xi1 of [N+B], and an OEP maps
       the shares, extended with B zeros, to z'_j = z_{xi1(j)}.
    2. PSI runs with the *index* xi1^{-1}(j) as the payload of y_j.
    3. Per bin, one garbled circuit reveals to the receiver only
       k_i = (a_i = r_i) ? (w_i XOR m_i) : xi1^{-1}(N+i): the matching
       element's permuted position, or a fresh dummy position — uniformly
       random distinct indices that leak nothing.
    4. A second OEP with xi2(i) = k_i (held by the receiver) maps z' to
       z''_i = the payload of the matching y_j, or 0.

    Indices travel in [index_bits]-wide words, never in the annotation
    ring, so a ring narrower than log2(N+B) (a boolean query's 1 bit)
    loses nothing. *)
let with_shared_payloads ctx ~receiver ~alice_set ~bob_set ~bob_payload_shares : result =
  let sender = Party.other receiver in
  let n = Array.length bob_set in
  check_inputs ~fn:"with_shared_payloads" ~alice_set ~bob_set
    (Array.length bob_payload_shares);
  Context.with_span ctx "psi:shared-payloads" @@ fun () ->
  let table = cuckoo_table ctx ~receiver ~alice_set ~bob_set in
  let total = n + Array.length table.Cuckoo_hash.slots in
  let index_bits =
    let rec needed b = if 1 lsl b >= total then b else needed (b + 1) in
    needed 1
  in
  let xi1 = Prg.permutation (Context.prg_of ctx sender) total in
  let xi1_inv = Array.make total 0 in
  Array.iteri (fun j src -> xi1_inv.(src) <- j) xi1;
  let extended =
    Array.init total (fun j -> if j < n then bob_payload_shares.(j) else Secret_share.zero)
  in
  let z' = Oep.apply_shared ctx ~holder:sender ~xi:xi1 ~m:total extended in
  let items =
    opprf_bins ctx ~receiver ~table ~bob_set ~payload_bits:index_bits
      ~payloads:(Array.init n (fun j -> Int64.of_int xi1_inv.(j)))
    |> Array.mapi (fun i inputs ->
           inputs
           @ [
               Gc_protocol.Priv
                 { owner = sender; value = Int64.of_int xi1_inv.(n + i); bits = index_bits };
             ])
  in
  let ks = Gc_protocol.eval_reveal_batch ctx ~to_:receiver ~items ~build:index_bin in
  let xi2 = Array.map (fun k -> Int64.to_int k.(0)) ks in
  { table; payload = Oep.apply_shared ctx ~holder:receiver ~xi:xi2 ~m:total z' }
