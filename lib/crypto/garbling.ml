(** Garbled circuits: half-gates garbling with free-XOR and
    point-and-permute (Zahur–Rosulek–Evans), over 128-bit wire labels.

    This is the [Real] backend of the GC protocol: circuits are actually
    garbled by the generator and evaluated on labels by the evaluator. Each
    AND gate costs two 128-bit ciphertexts; XOR and NOT are free.

    The correlation-robust hash is fixed-key AES-128 ({!Aes128}): the
    gate loops call [Aes128.garble_and_hashes] or [Aes128.eval_and_hashes]
    on [Aes128.fixed_key] directly, once per AND gate.

    The garble/eval inner loops are {e allocation-free}: wire labels,
    half-gate tables, and output decode bits live in [Bytes] planes
    accessed through unaligned native [int64] loads and stores, so no
    per-gate value is ever boxed — unlike [int64 array], whose every
    element store allocates a 3-word box on the minor heap (see
    DESIGN.md §14). Every plane comes from an {!Arena}; the per-domain
    one is reused across batch items. The boxed {!Label} module remains
    the representation at the protocol boundary (input encoding, output
    labels).

    {!Garbling_reference} preserves the pre-arena boxed implementation;
    the test suite asserts both paths are bit-identical and uses it as
    the allocation baseline. *)

module Label = struct
  type t = { hi : int64; lo : int64 }

  let zero = { hi = 0L; lo = 0L }
  let xor a b = { hi = Int64.logxor a.hi b.hi; lo = Int64.logxor a.lo b.lo }
  let color t = Int64.logand t.lo 1L = 1L
  let equal a b = Int64.equal a.hi b.hi && Int64.equal a.lo b.lo

  let random prg = { hi = Prg.next_int64 prg; lo = Prg.next_int64 prg }

  (** Free-XOR global offset; color bit forced to 1 so that the two labels
      of every wire have opposite colors. *)
  let random_delta prg =
    let l = random prg in
    { l with lo = Int64.logor l.lo 1L }

  (** The fixed-key AES hash H(label, tweak). *)
  let hash_aes t ~tweak =
    let hi, lo = Aes128.label_hash ~tweak (t.hi, t.lo) in
    { hi; lo }
end

(* The only KDF; see the interface for why the type survives. *)
type kdf = Aes128_kdf

(* Unaligned native-endian int64 access into the label planes. The layout
   convention everywhere below: wire [w]'s false (resp. active) label
   lives at byte offset [16 * w], [hi] first, [lo] at [+ 8]; AND gate
   [k]'s ciphertexts live at [32 * k] as T_G.hi, T_G.lo, T_E.hi, T_E.lo.
   Endianness never escapes: labels are written and read through the
   same primitives, so the int64 values round-trip bit-identically on
   any platform. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(** Per-domain scratch arena: every plane the garble/eval hot paths touch,
    grown geometrically and reused across batch items, so steady-state
    garbling performs no plane allocation at all. Each domain owns its
    arena through [Domain.DLS] — pool workers never share one, which is
    what makes reuse safe without locks (DESIGN.md §14). *)
module Arena = struct
  type t = {
    mutable wires_g : Bytes.t;  (** generator false-label planes, 16 B per wire *)
    mutable wires_e : Bytes.t;  (** evaluator active-label planes, 16 B per wire *)
    mutable tables : Bytes.t;   (** half-gate ciphertexts, 32 B per AND gate *)
    mutable decode : Bytes.t;   (** 1 B per output: color of the false label *)
    mutable colors : Bytes.t;   (** 1 B per output: color of the active label *)
    scratch : Bytes.t;
        (** 80 B: the free-XOR offset Δ at 0 (garbling), the gate's hash
            outputs at 16, 32, 48 and 64 *)
  }

  let create () =
    {
      wires_g = Bytes.create 0;
      wires_e = Bytes.create 0;
      tables = Bytes.create 0;
      decode = Bytes.create 0;
      colors = Bytes.create 0;
      scratch = Bytes.create 80;
    }

  let key = Domain.DLS.new_key create

  (** The calling domain's arena (one per domain, created on first use).
      Buffers handed out against it stay valid until the same domain
      garbles/evaluates again — exactly the per-item lifetime of the
      batch engine. *)
  let current () = Domain.DLS.get key

  (* Geometric growth, never shrinking: a steady stream of same-shaped
     circuits settles after the first item and allocates nothing. *)
  let grown cur need =
    if Bytes.length cur >= need then cur
    else Bytes.create (max need (max 64 (2 * Bytes.length cur)))

  let prepare_garble a ~n_wires ~n_ands ~n_outputs =
    a.wires_g <- grown a.wires_g (16 * n_wires);
    a.tables <- grown a.tables (32 * n_ands);
    a.decode <- grown a.decode (max 1 n_outputs)

  let prepare_eval a ~n_wires ~n_outputs =
    a.wires_e <- grown a.wires_e (16 * n_wires);
    a.colors <- grown a.colors (max 1 n_outputs)

  (* Drop every plane back to empty. After an item raises mid-garble the
     planes hold a half-written circuit; any [garbled] value aliasing
     them is poison. Resetting forces the next item on this domain to
     regrow fresh planes — dirty label material is never reused
     (DESIGN.md §15 arena-reset rule). Costs one regrowth cycle, only
     ever paid after a fault. *)
  let reset a =
    a.wires_g <- Bytes.create 0;
    a.wires_e <- Bytes.create 0;
    a.tables <- Bytes.create 0;
    a.decode <- Bytes.create 0;
    a.colors <- Bytes.create 0;
    Bytes.fill a.scratch 0 (Bytes.length a.scratch) '\000'
end

type garbled = {
  circuit : Boolean_circuit.t;
  wires : Bytes.t;
      (** false-label [hi]/[lo] planes of {e every} wire (16 B each); the
          input labels are the prefix — no copy is ever taken *)
  delta_hi : int64;
  delta_lo : int64;
  tables : Bytes.t;  (** T_G/T_E ciphertexts, 32 B per AND gate in gate order *)
  decode : Bytes.t;  (** 1 B per output: 1 iff the false label has color 1 *)
}

(** Garble [circuit] with randomness from [prg] (the generator's stream).
    The result's planes alias [arena] and stay valid only until the next
    garble on the same arena (the batch engine's per-item lifetime); the
    planes may be longer than the circuit needs. The inner loop
    allocates nothing. *)
let garble ?kdf:(_ : kdf option) ~arena prg circuit =
  let open Boolean_circuit in
  (* Draw order matches Label.random_delta / Label.random: hi then lo. *)
  let delta_hi = Prg.next_int64 prg in
  let delta_lo = Int64.logor (Prg.next_int64 prg) 1L in
  let n_wires = n_wires circuit in
  let n_outputs = Array.length circuit.outputs in
  Arena.prepare_garble arena ~n_wires ~n_ands:circuit.and_count ~n_outputs;
  let wires = arena.Arena.wires_g and tables = arena.Arena.tables in
  let decode = arena.Arena.decode and scratch = arena.Arena.scratch in
  set64u scratch 0 delta_hi;
  set64u scratch 8 delta_lo;
  for i = 0 to circuit.n_inputs - 1 do
    Prg.next_into prg wires (16 * i);
    Prg.next_into prg wires ((16 * i) + 8)
  done;
  let ops = circuit.ops and lhs = circuit.lhs and rhs = circuit.rhs in
  let and_idx = ref 0 in
  for i = 0 to n_gates circuit - 1 do
    let out = 16 * (circuit.n_inputs + i) in
    let x = lhs.(i) and y = rhs.(i) in
    let op = Bytes.get ops i in
    if op = op_xor then begin
      set64u wires out (Int64.logxor (get64u wires (16 * x)) (get64u wires (16 * y)));
      set64u wires (out + 8)
        (Int64.logxor (get64u wires ((16 * x) + 8)) (get64u wires ((16 * y) + 8)))
    end
    else if op = op_not then begin
      set64u wires out (Int64.logxor (get64u wires (16 * x)) delta_hi);
      set64u wires (out + 8) (Int64.logxor (get64u wires ((16 * x) + 8)) delta_lo)
    end
    else begin
      let k = !and_idx in
      let ax = 16 * x and by = 16 * y in
      let wa0_hi = get64u wires ax and wa0_lo = get64u wires (ax + 8) in
      let pa = Int64.to_int wa0_lo land 1 = 1 in
      let pb = Int64.to_int (get64u wires (by + 8)) land 1 = 1 in
      (* ha0 = H(wa0, 2k), ha1 = H(wa0 ^ delta, 2k), hb0 = H(wb0, 2k+1),
         hb1 = H(wb0 ^ delta, 2k+1) *)
      Aes128.garble_and_hashes Aes128.fixed_key ~tweak:(2 * k) wires ax by scratch 0;
      let ha0_hi = get64u scratch 16 and ha0_lo = get64u scratch 24 in
      let ha1_hi = get64u scratch 32 and ha1_lo = get64u scratch 40 in
      let hb0_hi = get64u scratch 48 and hb0_lo = get64u scratch 56 in
      let hb1_hi = get64u scratch 64 and hb1_lo = get64u scratch 72 in
      (* generator half-gate *)
      let tg_hi = Int64.logxor ha0_hi ha1_hi and tg_lo = Int64.logxor ha0_lo ha1_lo in
      let tg_hi = if pb then Int64.logxor tg_hi delta_hi else tg_hi in
      let tg_lo = if pb then Int64.logxor tg_lo delta_lo else tg_lo in
      let wg0_hi = if pa then Int64.logxor ha0_hi tg_hi else ha0_hi in
      let wg0_lo = if pa then Int64.logxor ha0_lo tg_lo else ha0_lo in
      (* evaluator half-gate *)
      let te_hi = Int64.logxor (Int64.logxor hb0_hi hb1_hi) wa0_hi in
      let te_lo = Int64.logxor (Int64.logxor hb0_lo hb1_lo) wa0_lo in
      let we0_hi = if pb then Int64.logxor hb0_hi (Int64.logxor te_hi wa0_hi) else hb0_hi in
      let we0_lo = if pb then Int64.logxor hb0_lo (Int64.logxor te_lo wa0_lo) else hb0_lo in
      set64u wires out (Int64.logxor wg0_hi we0_hi);
      set64u wires (out + 8) (Int64.logxor wg0_lo we0_lo);
      let tk = 32 * k in
      set64u tables tk tg_hi;
      set64u tables (tk + 8) tg_lo;
      set64u tables (tk + 16) te_hi;
      set64u tables (tk + 24) te_lo;
      incr and_idx
    end
  done;
  Array.iteri
    (fun oi w ->
      Bytes.unsafe_set decode oi
        (if Int64.to_int (get64u wires ((16 * w) + 8)) land 1 = 1 then '\001' else '\000'))
    circuit.outputs;
  { circuit; wires; delta_hi; delta_lo; tables; decode }

(** The color (Boolean share) of output [out_index]'s false label — the
    generator's side of the Yao sharing. *)
let decode_bit g out_index = Bytes.get g.decode out_index = '\001'

(** The label encoding bit [b] on input wire [i]. *)
let encode_input g i b =
  let hi = get64u g.wires (16 * i) and lo = get64u g.wires ((16 * i) + 8) in
  if b then { Label.hi = Int64.logxor hi g.delta_hi; lo = Int64.logxor lo g.delta_lo }
  else { Label.hi; lo }

(* Half-gates evaluation over a preloaded active-label plane: wires 0 ..
   n_inputs-1 must already hold the active input labels. Shares the plane
   layout (and the zero-allocation property) with [garble]. *)
let eval_plane g (wires : Bytes.t) (scratch : Bytes.t) =
  let open Boolean_circuit in
  let circuit = g.circuit in
  let tables = g.tables in
  let ops = circuit.ops and lhs = circuit.lhs and rhs = circuit.rhs in
  let and_idx = ref 0 in
  for i = 0 to n_gates circuit - 1 do
    let out = 16 * (circuit.n_inputs + i) in
    let x = lhs.(i) and y = rhs.(i) in
    let op = Bytes.get ops i in
    if op = op_xor then begin
      set64u wires out (Int64.logxor (get64u wires (16 * x)) (get64u wires (16 * y)));
      set64u wires (out + 8)
        (Int64.logxor (get64u wires ((16 * x) + 8)) (get64u wires ((16 * y) + 8)))
    end
    else if op = op_not then begin
      (* NOT is free: same label, decoded with flipped semantics via
         the garbler's false-label offset (handled in [garble]). *)
      set64u wires out (get64u wires (16 * x));
      set64u wires (out + 8) (get64u wires ((16 * x) + 8))
    end
    else begin
      let k = !and_idx in
      let ax = 16 * x and by = 16 * y in
      let wa_hi = get64u wires ax and wa_lo = get64u wires (ax + 8) in
      let sa = Int64.to_int wa_lo land 1 = 1 in
      let sb = Int64.to_int (get64u wires (by + 8)) land 1 = 1 in
      let tk = 32 * k in
      (* ha = H(wa, 2k), hb = H(wb, 2k+1) *)
      Aes128.eval_and_hashes Aes128.fixed_key ~tweak:(2 * k) wires ax by scratch 16;
      let ha_hi = get64u scratch 16 and ha_lo = get64u scratch 24 in
      let wg_hi = if sa then Int64.logxor ha_hi (get64u tables tk) else ha_hi in
      let wg_lo = if sa then Int64.logxor ha_lo (get64u tables (tk + 8)) else ha_lo in
      let hb_hi = get64u scratch 32 and hb_lo = get64u scratch 40 in
      let we_hi =
        if sb then Int64.logxor hb_hi (Int64.logxor (get64u tables (tk + 16)) wa_hi)
        else hb_hi
      in
      let we_lo =
        if sb then Int64.logxor hb_lo (Int64.logxor (get64u tables (tk + 24)) wa_lo)
        else hb_lo
      in
      set64u wires out (Int64.logxor wg_hi we_hi);
      set64u wires (out + 8) (Int64.logxor wg_lo we_lo);
      incr and_idx
    end
  done

(** Evaluate on active labels; returns the active label of each output.
    The evaluator wire plane comes from (and the call leaves state in)
    [arena]; the returned labels are fresh boxed values. *)
let eval_labels ~arena g (input_labels : Label.t array) =
  let circuit = g.circuit in
  if Array.length input_labels <> circuit.Boolean_circuit.n_inputs then
    invalid_arg
      (Printf.sprintf "Garbling.eval_labels: %d input labels for a circuit with %d inputs"
         (Array.length input_labels) circuit.Boolean_circuit.n_inputs);
  let n_wires = Boolean_circuit.n_wires circuit in
  let n_outputs = Array.length circuit.Boolean_circuit.outputs in
  Arena.prepare_eval arena ~n_wires ~n_outputs;
  let wires = arena.Arena.wires_e in
  Array.iteri
    (fun i (l : Label.t) ->
      set64u wires (16 * i) l.Label.hi;
      set64u wires ((16 * i) + 8) l.Label.lo)
    input_labels;
  eval_plane g wires arena.Arena.scratch;
  Array.map
    (fun w -> { Label.hi = get64u wires (16 * w); lo = get64u wires ((16 * w) + 8) })
    circuit.Boolean_circuit.outputs

(** The batch hot path: select each input's active label from the garbled
    planes by its cleartext bit (what the evaluator would hold after OT),
    evaluate, and return the active color of every output as one byte
    each ([1] = color set) in the arena's color plane — valid until the
    next eval on the same arena. No boxed label is created anywhere:
    together with [garble ~arena] this runs a whole item without a
    single per-gate or per-wire heap allocation. *)
let eval_colors ?kdf:(_ : kdf option) ~arena g (bit : int -> bool) : Bytes.t =
  let circuit = g.circuit in
  let n_wires = Boolean_circuit.n_wires circuit in
  let n_outputs = Array.length circuit.Boolean_circuit.outputs in
  Arena.prepare_eval arena ~n_wires ~n_outputs;
  let wires = arena.Arena.wires_e in
  for i = 0 to circuit.Boolean_circuit.n_inputs - 1 do
    let hi = get64u g.wires (16 * i) and lo = get64u g.wires ((16 * i) + 8) in
    if bit i then begin
      set64u wires (16 * i) (Int64.logxor hi g.delta_hi);
      set64u wires ((16 * i) + 8) (Int64.logxor lo g.delta_lo)
    end
    else begin
      set64u wires (16 * i) hi;
      set64u wires ((16 * i) + 8) lo
    end
  done;
  eval_plane g wires arena.Arena.scratch;
  let colors = arena.Arena.colors in
  Array.iteri
    (fun oi w ->
      Bytes.unsafe_set colors oi
        (if Int64.to_int (get64u wires ((16 * w) + 8)) land 1 = 1 then '\001' else '\000'))
    circuit.Boolean_circuit.outputs;
  colors

(** Decode an output's active label to its cleartext bit using the decode
    (color-of-false-label) information. *)
let decode_output g ~out_index label = Label.color label <> decode_bit g out_index
