(** Circuit-based private set intersection with payloads (paper §5.3),
    following Pinkas et al. [PSTY19].

    Alice holds X (|X| = M), Bob holds Y (|Y| = N) with an optional payload
    per element. Alice cuckoo-hashes X into B = 1.27 M bins; Bob maps each
    element of Y into its three candidate bins; a batched OPPRF delivers,
    per bin, a value that matches Bob's per-bin target exactly when Alice's
    bin element is in Y (plus the masked payload); a single garbled circuit
    then turns these into secret-shared indicator bits and payloads:

      ind_i     = [ Ind(x_i in Y) ]
      payload_i = [ z_j ]  if x_i = y_j, else [ 0 ]

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
  table : Cuckoo_hash.table;       (** Alice's cuckoo table over X *)
  ind : Secret_share.t array;      (** per bin: shared Ind(x_i in Y) *)
  payload : Secret_share.t array;  (** per bin: shared payload or 0 *)
}

let n_bins r = Array.length r.ind

(** Comparison width for the OPPRF targets: sigma bits of statistical
    security plus slack for the number of comparisons. *)
let cmp_bits ctx = min 58 (ctx.Context.sigma + 16)

let with_payloads ctx ~receiver ~(alice_set : int64 array)
    ~(bob_set : int64 array) ~(bob_payloads : int64 array) : result =
  let sender = Party.other receiver in
  Array.iter check_element alice_set;
  Array.iter check_element bob_set;
  if Array.length bob_set <> Array.length bob_payloads then
    invalid_arg
      (Printf.sprintf
         "Psi.with_payloads: %d payloads for %d set elements (expected one payload per \
          element)"
         (Array.length bob_payloads) (Array.length bob_set));
  Context.with_span ctx "psi:payloads" @@ fun () ->
  let ring_bits = Context.ring_bits ctx in
  let cmp = cmp_bits ctx in
  (* 1. The receiver builds the cuckoo table and sends the hash keys. *)
  let table =
    let context =
      Printf.sprintf "psi:payloads receiver=%s |X|=%d |Y|=%d"
        (Party.to_string receiver) (Array.length alice_set) (Array.length bob_set)
    in
    Cuckoo_hash.build ~context (Context.prg_of ctx receiver) alice_set
  in
  Context.send ctx ~from:receiver ~bits:(3 * 64);
  Context.bump_rounds ctx 1;
  let b = table.Cuckoo_hash.keys.Cuckoo_hash.n_bins in
  Context.bump ctx Trace_sink.Cuckoo_bins b;
  (* 2. The sender simple-hashes Y and draws per-bin targets and masks. *)
  let bob_bins = Cuckoo_hash.simple_hash table.Cuckoo_hash.keys bob_set in
  let sender_prg = Context.prg_of ctx sender in
  let targets = Array.init b (fun _ -> Prg.bits sender_prg cmp) in
  let masks = Array.init b (fun _ -> Prg.bits sender_prg ring_bits) in
  (* 3. Two batched OPPRFs: membership targets and masked payloads. *)
  let programming_target =
    Array.init b (fun i -> List.map (fun j -> (bob_set.(j), targets.(i))) bob_bins.(i))
  in
  let programming_payload =
    Array.init b (fun i ->
        List.map
          (fun j -> (bob_set.(j), Int64.logxor bob_payloads.(j) masks.(i)))
          bob_bins.(i))
  in
  let queries =
    Array.init b (fun i ->
        match table.Cuckoo_hash.slots.(i) with Some x -> x | None -> dummy_for_bin i)
  in
  let got_target = Oprf.batch ctx ~sender ~out_bits:cmp ~programming:programming_target ~queries in
  let got_payload =
    Oprf.batch ctx ~sender ~out_bits:ring_bits ~programming:programming_payload ~queries
  in
  (* 4. One garbled circuit per bin: ind = (a_i == r_i);
        payload = ind ? (w_i XOR m_i) : 0. *)
  let items =
    Array.init b (fun i ->
        [
          Gc_protocol.Priv { owner = receiver; value = got_target.(i); bits = cmp };
          Gc_protocol.Priv { owner = receiver; value = got_payload.(i); bits = ring_bits };
          Gc_protocol.Priv { owner = sender; value = targets.(i); bits = cmp };
          Gc_protocol.Priv { owner = sender; value = masks.(i); bits = ring_bits };
        ])
  in
  let build builder (words : Circuits.word array) =
    let ind = Circuits.eq_word builder words.(0) words.(2) in
    let unmasked = Circuits.xor_word builder words.(1) words.(3) in
    let payload = Circuits.zero_unless builder ind unmasked in
    [ [| ind |]; payload ]
  in
  let shares = Gc_protocol.eval_to_shares_batch ctx ~items ~build in
  let ind = Array.map (fun s -> s.(0)) shares in
  let payload = Array.map (fun s -> s.(1)) shares in
  { table; ind; payload }

(** Membership-only variant (payloads all zero): used when annotations are
    public 1s and the semijoin degenerates to plain PSI (paper §6.5). *)
let membership ctx ?(receiver = Party.Alice) ~alice_set ~bob_set () : result =
  with_payloads ctx ~receiver ~alice_set ~bob_set
    ~bob_payloads:(Array.make (Array.length bob_set) 0L)
