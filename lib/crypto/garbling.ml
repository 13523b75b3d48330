(** Garbled circuits: half-gates garbling with free-XOR and
    point-and-permute (Zahur–Rosulek–Evans), over 128-bit wire labels.

    This is the [Real] backend of the GC protocol: circuits are actually
    garbled by the generator and evaluated on labels by the evaluator. Each
    AND gate costs two 128-bit ciphertexts; XOR and NOT are free.

    Two key-derivation functions are supported: fixed-key AES-128 (the
    default — the standard choice in MPC practice) and SHA-256.

    The garble/eval inner loops are {e allocation-free} (under the AES
    KDF): wire labels, half-gate tables, and output decode bits live in
    [Bytes] planes accessed through unaligned native [int64] loads and
    stores, so no per-gate value is ever boxed — unlike [int64 array],
    whose every element store allocates a 3-word box on the minor heap
    (see DESIGN.md §14). Planes come either from fresh per-call buffers
    (the safe default) or from a per-domain {!Arena} reused across batch
    items. The boxed {!Label} module remains the representation at the
    protocol boundary (input encoding, output labels).

    {!Garbling_reference} preserves the pre-arena boxed implementation;
    the test suite asserts both paths are bit-identical and the bench
    harness uses it as the allocation baseline. *)

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

  (** H(label, tweak): first 128 bits of SHA-256(hi || lo || tweak). *)
  let hash t ~tweak =
    let d = Sha256.digest_int64s [ t.hi; t.lo; tweak ] in
    { hi = Bytes.get_int64_be d 0; lo = Bytes.get_int64_be d 8 }

  (** Fixed-key AES hash (faster; the standard choice in MPC practice). *)
  let hash_aes t ~tweak =
    let hi, lo = Aes128.label_hash ~tweak (t.hi, t.lo) in
    { hi; lo }

  let cond_xor cond a b = if cond then xor a b else a
end

(** Key-derivation function used for garbled rows. *)
type kdf = Sha256_kdf | Aes128_kdf

(* Unaligned native-endian int64 access into the label planes. The layout
   convention everywhere below: wire [w]'s false (resp. active) label
   lives at byte offset [16 * w], [hi] first, [lo] at [+ 8]; AND gate
   [k]'s ciphertexts live at [32 * k] as T_G.hi, T_G.lo, T_E.hi, T_E.lo.
   Endianness never escapes: labels are written and read through the
   same primitives, so the int64 values round-trip bit-identically on
   any platform. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* The plane-level hash: dst.(doff, doff+16) <- H(src.(soff, soff+16),
   tweak). The AES branch is Aes128.label_hash_bytes under the
   pre-expanded fixed schedule — fully unboxed, zero allocation per
   call. The SHA branch allocates its digest (SHA-256 is the legacy KDF,
   kept for differential coverage, not throughput). *)
let bytes_hash kdf : tweak:int -> Bytes.t -> int -> Bytes.t -> int -> unit =
  match kdf with
  | Aes128_kdf ->
      let sched = Aes128.fixed_key in
      fun ~tweak src soff dst doff -> Aes128.label_hash_bytes sched ~tweak src soff dst doff
  | Sha256_kdf ->
      fun ~tweak src soff dst doff ->
        let d =
          Sha256.digest_int64s
            [ get64u src soff; get64u src (soff + 8); Int64.of_int tweak ]
        in
        set64u dst doff (Bytes.get_int64_be d 0);
        set64u dst (doff + 8) (Bytes.get_int64_be d 8)

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
        (** 48 B: one shifted label at 0, two hash outputs at 16 and 32 *)
  }

  let m_grows =
    Secyan_metrics.lazily (fun () ->
        Secyan_metrics.counter ~help:"arena plane growth events (steady state: none)"
          "secyan_arena_grows_total")

  let m_bytes =
    Secyan_metrics.lazily (fun () ->
        Secyan_metrics.counter ~help:"bytes added to arena planes by growth"
          "secyan_arena_grow_bytes_total")

  let create () =
    {
      wires_g = Bytes.create 0;
      wires_e = Bytes.create 0;
      tables = Bytes.create 0;
      decode = Bytes.create 0;
      colors = Bytes.create 0;
      scratch = Bytes.create 48;
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
    else begin
      let cap = max need (max 64 (2 * Bytes.length cur)) in
      if Secyan_metrics.enabled () then begin
        Secyan_metrics.add (m_grows ()) 1;
        Secyan_metrics.add (m_bytes ()) (cap - Bytes.length cur)
      end;
      Bytes.create cap
    end

  let prepare_garble a ~n_wires ~n_ands ~n_outputs =
    a.wires_g <- grown a.wires_g (16 * n_wires);
    a.tables <- grown a.tables (32 * n_ands);
    a.decode <- grown a.decode (max 1 n_outputs)

  let prepare_eval a ~n_wires ~n_outputs =
    a.wires_e <- grown a.wires_e (16 * n_wires);
    a.colors <- grown a.colors (max 1 n_outputs)

  let m_resets =
    Secyan_metrics.lazily (fun () ->
        Secyan_metrics.counter ~help:"arena planes dropped after a faulted batch item"
          "secyan_arena_resets_total")

  (* Drop every plane back to empty. After an item raises mid-garble the
     planes hold a half-written circuit; any [garbled] value aliasing
     them is poison. Resetting forces the next item on this domain to
     regrow fresh planes — dirty label material is never reused
     (DESIGN.md §15 arena-reset rule). Costs one regrowth cycle, only
     ever paid after a fault. *)
  let reset a =
    Secyan_metrics.add (m_resets ()) 1;
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

(* Garbling throughput histograms. Half-gates hashes 4 labels per AND
   gate (two per half gate), so labels/s ~ 4 x gates / elapsed; the
   per-circuit gate count doubles as a circuit-size profile. *)
let m_garble_gates =
  Secyan_metrics.lazily (fun () ->
      Secyan_metrics.histogram ~help:"AND gates per garbled circuit" "secyan_garble_and_gates")

let m_garble_labels_per_s =
  Secyan_metrics.lazily (fun () ->
      Secyan_metrics.histogram ~help:"label hashes per second while garbling (4 per AND gate)"
        "secyan_garble_labels_per_s")

(** Garble [circuit] with randomness from [prg] (the generator's stream).
    With [?arena] the result's planes alias the arena and stay valid only
    until the next garble on the same arena (the batch engine's per-item
    lifetime); without it the result owns freshly allocated, exactly
    sized planes. The inner loop allocates nothing either way (AES
    KDF). *)
let garble ?(kdf = Aes128_kdf) ?arena prg circuit =
  let open Boolean_circuit in
  let t_start = if Secyan_metrics.enabled () then Unix.gettimeofday () else 0. in
  let hash = bytes_hash kdf in
  (* Draw order matches Label.random_delta / Label.random: hi then lo. *)
  let delta_hi = Prg.next_int64 prg in
  let delta_lo = Int64.logor (Prg.next_int64 prg) 1L in
  let n_wires = n_wires circuit in
  let n_outputs = Array.length circuit.outputs in
  let wires, tables, decode, scratch =
    match arena with
    | Some a ->
        Arena.prepare_garble a ~n_wires ~n_ands:circuit.and_count ~n_outputs;
        (a.Arena.wires_g, a.Arena.tables, a.Arena.decode, a.Arena.scratch)
    | None ->
        ( Bytes.create (16 * n_wires),
          Bytes.create (32 * circuit.and_count),
          Bytes.create (max 1 n_outputs),
          Bytes.create 48 )
  in
  for i = 0 to circuit.n_inputs - 1 do
    set64u wires (16 * i) (Prg.next_int64 prg);
    set64u wires ((16 * i) + 8) (Prg.next_int64 prg)
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
      let j = 2 * k in
      let j' = (2 * k) + 1 in
      let ax = 16 * x and by = 16 * y in
      let wa0_hi = get64u wires ax and wa0_lo = get64u wires (ax + 8) in
      let wb0_hi = get64u wires by and wb0_lo = get64u wires (by + 8) in
      let pa = Int64.to_int wa0_lo land 1 = 1 in
      let pb = Int64.to_int wb0_lo land 1 = 1 in
      (* generator half-gate: ha0 = H(j, wa0), ha1 = H(j, wa0 ^ delta) *)
      hash ~tweak:j wires ax scratch 16;
      set64u scratch 0 (Int64.logxor wa0_hi delta_hi);
      set64u scratch 8 (Int64.logxor wa0_lo delta_lo);
      hash ~tweak:j scratch 0 scratch 32;
      let ha0_hi = get64u scratch 16 and ha0_lo = get64u scratch 24 in
      let ha1_hi = get64u scratch 32 and ha1_lo = get64u scratch 40 in
      let tg_hi = Int64.logxor ha0_hi ha1_hi and tg_lo = Int64.logxor ha0_lo ha1_lo in
      let tg_hi = if pb then Int64.logxor tg_hi delta_hi else tg_hi in
      let tg_lo = if pb then Int64.logxor tg_lo delta_lo else tg_lo in
      let wg0_hi = if pa then Int64.logxor ha0_hi tg_hi else ha0_hi in
      let wg0_lo = if pa then Int64.logxor ha0_lo tg_lo else ha0_lo in
      (* evaluator half-gate: hb0 = H(j', wb0), hb1 = H(j', wb0 ^ delta) *)
      hash ~tweak:j' wires by scratch 16;
      set64u scratch 0 (Int64.logxor wb0_hi delta_hi);
      set64u scratch 8 (Int64.logxor wb0_lo delta_lo);
      hash ~tweak:j' scratch 0 scratch 32;
      let hb0_hi = get64u scratch 16 and hb0_lo = get64u scratch 24 in
      let hb1_hi = get64u scratch 32 and hb1_lo = get64u scratch 40 in
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
  if Secyan_metrics.enabled () then begin
    let dt = Unix.gettimeofday () -. t_start in
    Secyan_metrics.observe (m_garble_gates ()) (float_of_int circuit.and_count);
    if dt > 0. then
      Secyan_metrics.observe (m_garble_labels_per_s ())
        (4. *. float_of_int circuit.and_count /. dt)
  end;
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
let eval_plane hash g (wires : Bytes.t) (scratch : Bytes.t) =
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
      let j = 2 * k in
      let j' = (2 * k) + 1 in
      let ax = 16 * x and by = 16 * y in
      let wa_hi = get64u wires ax and wa_lo = get64u wires (ax + 8) in
      let sa = Int64.to_int wa_lo land 1 = 1 in
      let sb = Int64.to_int (get64u wires (by + 8)) land 1 = 1 in
      let tk = 32 * k in
      hash ~tweak:j wires ax scratch 16;
      let ha_hi = get64u scratch 16 and ha_lo = get64u scratch 24 in
      let wg_hi = if sa then Int64.logxor ha_hi (get64u tables tk) else ha_hi in
      let wg_lo = if sa then Int64.logxor ha_lo (get64u tables (tk + 8)) else ha_lo in
      hash ~tweak:j' wires by scratch 16;
      let hb_hi = get64u scratch 16 and hb_lo = get64u scratch 24 in
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
    [kdf] must match the one used at garbling time. With [?arena] the
    evaluator wire plane comes from (and the call leaves state in) the
    arena; the returned labels are fresh boxed values either way. *)
let eval_labels ?(kdf = Aes128_kdf) ?arena g (input_labels : Label.t array) =
  let circuit = g.circuit in
  if Array.length input_labels <> circuit.Boolean_circuit.n_inputs then
    invalid_arg
      (Printf.sprintf "Garbling.eval_labels: %d input labels for a circuit with %d inputs"
         (Array.length input_labels) circuit.Boolean_circuit.n_inputs);
  let n_wires = Boolean_circuit.n_wires circuit in
  let n_outputs = Array.length circuit.Boolean_circuit.outputs in
  let wires, scratch =
    match arena with
    | Some a ->
        Arena.prepare_eval a ~n_wires ~n_outputs;
        (a.Arena.wires_e, a.Arena.scratch)
    | None -> (Bytes.create (16 * n_wires), Bytes.create 48)
  in
  Array.iteri
    (fun i (l : Label.t) ->
      set64u wires (16 * i) l.Label.hi;
      set64u wires ((16 * i) + 8) l.Label.lo)
    input_labels;
  eval_plane (bytes_hash kdf) g wires scratch;
  Array.map
    (fun w -> { Label.hi = get64u wires (16 * w); lo = get64u wires ((16 * w) + 8) })
    circuit.Boolean_circuit.outputs

(** The batch hot path: select each input's active label from the garbled
    planes by its cleartext bit (what the evaluator would hold after OT),
    evaluate, and return the active color of every output as one byte
    each ([1] = color set) in the arena's color plane — valid until the
    next eval on the same arena. No boxed label is created anywhere:
    together with [garble ~arena] this runs a whole item without a
    single per-gate or per-wire heap allocation (AES KDF). *)
let eval_colors ?(kdf = Aes128_kdf) ~arena g (bit : int -> bool) : Bytes.t =
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
  eval_plane (bytes_hash kdf) g wires arena.Arena.scratch;
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
