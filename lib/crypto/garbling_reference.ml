(** The pre-arena boxed garbling implementation, kept as a differential
    baseline: labels in [int64 array] planes (every element store boxes),
    tables as four arrays, decode bits as [bool array], hash results as
    allocated pairs. Its gate loops read the flat circuit format as
    {!Garbling}'s do; the boxing it measures is all in the labels.

    {!Garbling} is the production path — unboxed [Bytes] planes with
    per-domain arenas (DESIGN.md §14). This module exists so that

    - the test suite can assert, on randomized circuits, that the unboxed
      kernels are {e bit-identical} to this reference (labels, tables,
      decode bits, outputs), and
    - the test suite can bound the allocation rate the rewrite removed
      (boxed vs. unboxed minor-heap words per AND gate).

    No production code calls into this module; it carries no metrics so
    its allocation profile is purely the garbling math. *)

module Label = Garbling.Label

(* The flat (plane-level) hash: tweak, hi, lo -> (hi, lo). The AES branch
   captures the pre-expanded fixed schedule so the per-gate call does no
   lazy checks or schedule lookups. *)
let flat_hash (kdf : Garbling.kdf) : int64 -> int64 -> int64 -> int64 * int64 =
  match kdf with
  | Aes128_kdf ->
      let sched = Aes128.fixed_key in
      fun tweak hi lo -> Aes128.label_hash_with sched ~tweak (hi, lo)
  | Sha256_kdf ->
      fun tweak hi lo ->
        let d = Sha256.digest_int64s [ hi; lo; tweak ] in
        (Bytes.get_int64_be d 0, Bytes.get_int64_be d 8)

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

let garble ?(kdf = Garbling.Aes128_kdf) prg circuit =
  let open Boolean_circuit in
  let hash = flat_hash kdf in
  (* Draw order matches Label.random_delta / Label.random: hi then lo. *)
  let delta_hi = Prg.next_int64 prg in
  let delta_lo = Int64.logor (Prg.next_int64 prg) 1L in
  let n_wires = n_wires circuit in
  let hi = Array.make n_wires 0L in
  let lo = Array.make n_wires 0L in
  for i = 0 to circuit.n_inputs - 1 do
    hi.(i) <- Prg.next_int64 prg;
    lo.(i) <- Prg.next_int64 prg
  done;
  let table_g_hi = Array.make circuit.and_count 0L in
  let table_g_lo = Array.make circuit.and_count 0L in
  let table_e_hi = Array.make circuit.and_count 0L in
  let table_e_lo = Array.make circuit.and_count 0L in
  let ops = circuit.ops and lhs = circuit.lhs and rhs = circuit.rhs in
  let and_idx = ref 0 in
  for i = 0 to n_gates circuit - 1 do
    let out = circuit.n_inputs + i in
    let x = lhs.(i) and y = rhs.(i) in
    let op = Bytes.get ops i in
    if op = op_xor then begin
      hi.(out) <- Int64.logxor hi.(x) hi.(y);
      lo.(out) <- Int64.logxor lo.(x) lo.(y)
    end
    else if op = op_not then begin
      hi.(out) <- Int64.logxor hi.(x) delta_hi;
      lo.(out) <- Int64.logxor lo.(x) delta_lo
    end
    else begin
      let k = !and_idx in
      let j = Int64.of_int (2 * k) in
      let j' = Int64.of_int ((2 * k) + 1) in
      let wa0_hi = hi.(x) and wa0_lo = lo.(x) in
      let wb0_hi = hi.(y) and wb0_lo = lo.(y) in
      let pa = Int64.logand wa0_lo 1L = 1L in
      let pb = Int64.logand wb0_lo 1L = 1L in
      (* generator half-gate *)
      let ha0_hi, ha0_lo = hash j wa0_hi wa0_lo in
      let ha1_hi, ha1_lo =
        hash j (Int64.logxor wa0_hi delta_hi) (Int64.logxor wa0_lo delta_lo)
      in
      let tg_hi = Int64.logxor ha0_hi ha1_hi and tg_lo = Int64.logxor ha0_lo ha1_lo in
      let tg_hi = if pb then Int64.logxor tg_hi delta_hi else tg_hi in
      let tg_lo = if pb then Int64.logxor tg_lo delta_lo else tg_lo in
      let wg0_hi = if pa then Int64.logxor ha0_hi tg_hi else ha0_hi in
      let wg0_lo = if pa then Int64.logxor ha0_lo tg_lo else ha0_lo in
      (* evaluator half-gate *)
      let hb0_hi, hb0_lo = hash j' wb0_hi wb0_lo in
      let hb1_hi, hb1_lo =
        hash j' (Int64.logxor wb0_hi delta_hi) (Int64.logxor wb0_lo delta_lo)
      in
      let te_hi = Int64.logxor (Int64.logxor hb0_hi hb1_hi) wa0_hi in
      let te_lo = Int64.logxor (Int64.logxor hb0_lo hb1_lo) wa0_lo in
      let we0_hi = if pb then Int64.logxor hb0_hi (Int64.logxor te_hi wa0_hi) else hb0_hi in
      let we0_lo = if pb then Int64.logxor hb0_lo (Int64.logxor te_lo wa0_lo) else hb0_lo in
      hi.(out) <- Int64.logxor wg0_hi we0_hi;
      lo.(out) <- Int64.logxor wg0_lo we0_lo;
      table_g_hi.(k) <- tg_hi;
      table_g_lo.(k) <- tg_lo;
      table_e_hi.(k) <- te_hi;
      table_e_lo.(k) <- te_lo;
      incr and_idx
    end
  done;
  let output_decode =
    Array.map (fun w -> Int64.logand lo.(w) 1L = 1L) circuit.outputs
  in
  {
    circuit;
    input_hi = Array.sub hi 0 circuit.n_inputs;
    input_lo = Array.sub lo 0 circuit.n_inputs;
    delta_hi;
    delta_lo;
    table_g_hi;
    table_g_lo;
    table_e_hi;
    table_e_lo;
    output_decode;
  }

(** The label encoding bit [b] on input wire [i]. *)
let encode_input g i b =
  if b then
    { Label.hi = Int64.logxor g.input_hi.(i) g.delta_hi;
      lo = Int64.logxor g.input_lo.(i) g.delta_lo }
  else { Label.hi = g.input_hi.(i); lo = g.input_lo.(i) }

(** Evaluate on active labels; returns the active label of each output. *)
let eval_labels ?(kdf = Garbling.Aes128_kdf) g (input_labels : Label.t array) =
  let open Boolean_circuit in
  let hash = flat_hash kdf in
  let circuit = g.circuit in
  if Array.length input_labels <> circuit.n_inputs then
    invalid_arg
      (Printf.sprintf
         "Garbling_reference.eval_labels: %d input labels for a circuit with %d inputs"
         (Array.length input_labels) circuit.n_inputs);
  let n_wires = n_wires circuit in
  let hi = Array.make n_wires 0L in
  let lo = Array.make n_wires 0L in
  Array.iteri
    (fun i (l : Label.t) ->
      hi.(i) <- l.Label.hi;
      lo.(i) <- l.Label.lo)
    input_labels;
  let ops = circuit.ops and lhs = circuit.lhs and rhs = circuit.rhs in
  let and_idx = ref 0 in
  for i = 0 to n_gates circuit - 1 do
    let out = circuit.n_inputs + i in
    let x = lhs.(i) and y = rhs.(i) in
    let op = Bytes.get ops i in
    if op = op_xor then begin
      hi.(out) <- Int64.logxor hi.(x) hi.(y);
      lo.(out) <- Int64.logxor lo.(x) lo.(y)
    end
    else if op = op_not then begin
      hi.(out) <- hi.(x);
      lo.(out) <- lo.(x)
    end
    else begin
      let k = !and_idx in
      let j = Int64.of_int (2 * k) in
      let j' = Int64.of_int ((2 * k) + 1) in
      let wa_hi = hi.(x) and wa_lo = lo.(x) in
      let wb_hi = hi.(y) and wb_lo = lo.(y) in
      let sa = Int64.logand wa_lo 1L = 1L in
      let sb = Int64.logand wb_lo 1L = 1L in
      let ha_hi, ha_lo = hash j wa_hi wa_lo in
      let wg_hi = if sa then Int64.logxor ha_hi g.table_g_hi.(k) else ha_hi in
      let wg_lo = if sa then Int64.logxor ha_lo g.table_g_lo.(k) else ha_lo in
      let hb_hi, hb_lo = hash j' wb_hi wb_lo in
      let we_hi =
        if sb then Int64.logxor hb_hi (Int64.logxor g.table_e_hi.(k) wa_hi) else hb_hi
      in
      let we_lo =
        if sb then Int64.logxor hb_lo (Int64.logxor g.table_e_lo.(k) wa_lo) else hb_lo
      in
      hi.(out) <- Int64.logxor wg_hi we_hi;
      lo.(out) <- Int64.logxor wg_lo we_lo;
      incr and_idx
    end
  done;
  Array.map (fun w -> { Label.hi = hi.(w); lo = lo.(w) }) circuit.outputs

(** Decode an output's active label to its cleartext bit. *)
let decode_output g ~out_index label = Label.color label <> g.output_decode.(out_index)
