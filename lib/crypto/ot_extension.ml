(** IKNP OT extension (Ishai–Kilian–Nissim–Petrank), realized over
    dealer-provided base OTs.

    Turns kappa base OTs (expensive, public-key in the real world; drawn
    from the trusted dealer here, DESIGN.md §2.3) into m >> kappa fast
    OTs using only symmetric crypto. This module implements the actual
    matrix mechanics — the receiver's random bit-matrix T, the reversed
    base OTs on its columns, the transpose, and the correlation-robust
    hashing of the rows — so the extension itself is real protocol code,
    validated by the test suite.

    Messages are int64 pairs (128-bit), matching wire-label width. *)

type block = int64 * int64

let block_xor (a1, a2) (b1, b2) = (Int64.logxor a1 b1, Int64.logxor a2 b2)

(* H(j, x): hash a 128-bit row with its index (breaks row correlations). *)
let row_hash j (hi, lo) =
  let d = Sha256.digest_int64s [ Int64.of_int j; hi; lo ] in
  (Bytes.get_int64_be d 0, Bytes.get_int64_be d 8)

(* A column of the m x 128 bit matrix, stored as a bit array. *)
type column = Bytes.t

let column_create m = Bytes.make ((m + 7) / 8) '\000'

let column_get (c : column) j = Char.code (Bytes.get c (j / 8)) land (1 lsl (j mod 8)) <> 0

let column_set (c : column) j v =
  let byte = Char.code (Bytes.get c (j / 8)) in
  let bit = 1 lsl (j mod 8) in
  Bytes.set c (j / 8) (Char.chr (if v then byte lor bit else byte land lnot bit))

let column_random prg m =
  let c = column_create m in
  for j = 0 to m - 1 do
    column_set c j (Prg.bool prg)
  done;
  c

let column_xor_choice (c : column) (choices : bool array) =
  let out = column_create (Array.length choices) in
  Array.iteri (fun j r -> column_set out j (column_get c j <> r)) choices;
  out

(* Gather row j of 128 columns into a block. *)
let row_of_columns (cols : column array) j : block =
  let hi = ref 0L and lo = ref 0L in
  for i = 0 to 63 do
    if column_get cols.(i) j then hi := Int64.logor !hi (Int64.shift_left 1L (63 - i))
  done;
  for i = 64 to 127 do
    if column_get cols.(i) j then lo := Int64.logor !lo (Int64.shift_left 1L (127 - i))
  done;
  (!hi, !lo)

(** Run the extension: the receiver holds [choices] (length m), the sender
    holds message pairs [messages]. Returns what the receiver learns:
    message [m0] or [m1] per index according to its choice bit. All
    communication is accounted on [ctx]'s channel. *)
let extend ctx ~sender ~(messages : (block * block) array) ~(choices : bool array) :
    block array =
  let m = Array.length messages in
  if Array.length choices <> m then
    invalid_arg
      (Printf.sprintf
         "Ot_extension.extend: %d choice bits for %d message pairs (expected one choice \
          per pair)"
         (Array.length choices) m);
  Context.with_span ctx "ot:extend" @@ fun () ->
  Context.bump ctx Trace_sink.Ots m;
  let receiver = Party.other sender in
  let kappa = 128 in
  let recv_prg = Context.prg_of ctx receiver in
  (* receiver's random matrix T, one column per base OT *)
  let t_cols = Array.init kappa (fun _ -> column_random recv_prg m) in
  (* sender's base-OT secret s (kappa bits, from the dealer model) *)
  let s_bits = Array.init kappa (fun _ -> Prg.bool ctx.Context.dealer) in
  (* base OTs, roles reversed: for column i the sender receives
     t_i (s_i = 0) or t_i XOR r (s_i = 1); the receiver transfers both
     candidate columns, accounted as the extension matrix *)
  let q_cols =
    Array.init kappa (fun i ->
        if s_bits.(i) then column_xor_choice t_cols.(i) choices else Bytes.copy t_cols.(i))
  in
  Context.send ctx ~from:receiver ~bits:(kappa * m);
  (* transpose: receiver's rows t_j; sender's rows q_j = t_j XOR (r_j . s) *)
  let s_block = row_of_columns (Array.map (fun b ->
      let c = column_create 1 in column_set c 0 b; c) s_bits) 0 in
  (* sender masks both messages per index and sends them *)
  let masked =
    Array.init m (fun j ->
        let qj = row_of_columns q_cols j in
        let pad0 = row_hash j qj in
        let pad1 = row_hash j (block_xor qj s_block) in
        let m0, m1 = messages.(j) in
        (block_xor m0 pad0, block_xor m1 pad1))
  in
  Context.send ctx ~from:sender ~bits:(m * 2 * 2 * 64);
  Context.bump_rounds ctx 2;
  (* receiver unmasks its chosen message with H(j, t_j) *)
  Array.init m (fun j ->
      let tj = row_of_columns t_cols j in
      let pad = row_hash j tj in
      let c0, c1 = masked.(j) in
      block_xor (if choices.(j) then c1 else c0) pad)
