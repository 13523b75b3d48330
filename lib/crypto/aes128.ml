(** AES-128 encryption (FIPS 197), used as a fixed-key permutation for
    fast garbled-circuit key derivation (the standard practice in MPC
    implementations such as the one the paper builds on: one key
    schedule, then one AES call per hashed label). Only encryption is
    implemented — the KDF never decrypts.

    Two cores run the same function. On an x86-64 CPU with AES-NI every
    entry point calls the hardware core, a C stub ([aes128_stubs.c])
    over the schedule's 176 round-key bytes; a CPUID check picks it once,
    at module initialisation ({!hardware}). Elsewhere the pure-OCaml
    T-table core ({!Table}) runs: the state is four 32-bit column words
    held in local [int]s, a round is sixteen lookups into four 256-entry
    tables (SubBytes, ShiftRows and MixColumns fused) XORed with a
    round-key word, and the schedule is 44 precomputed words. The T-table
    core is also the differential oracle the tests hold the stub to, as
    both are to the FIPS-197 vectors. The S-box is derived from the
    field arithmetic rather than embedded as a table.

    The per-gate hashes load labels from a [Bytes] plane and store the
    digests back into one: no state array, no domain-local scratch, no
    allocation, on either core. *)

(* --- GF(2^8) arithmetic -------------------------------------------- *)

let xtime b =
  let b2 = b lsl 1 in
  if b land 0x80 <> 0 then (b2 lxor 0x1b) land 0xff else b2 land 0xff

let gf_mul a b =
  let rec go a b acc =
    if b = 0 then acc
    else go (xtime a) (b lsr 1) (if b land 1 = 1 then acc lxor a else acc)
  in
  go a b 0

(* multiplicative inverse via x^254 (x^(2^8 - 2)) *)
let gf_inv a =
  if a = 0 then 0
  else begin
    let sq x = gf_mul x x in
    (* addition chain for 254 = 0b11111110 *)
    let x2 = sq a in
    let x3 = gf_mul x2 a in
    let x6 = sq x3 in
    let x7 = gf_mul x6 a in
    let x14 = sq x7 in
    let x15 = gf_mul x14 a in
    let x30 = sq x15 in
    let x31 = gf_mul x30 a in
    let x62 = sq x31 in
    let x63 = gf_mul x62 a in
    let x126 = sq x63 in
    let x127 = gf_mul x126 a in
    sq x127
  end

(* --- S-box: inverse followed by the affine transform ---------------- *)

(* Private: the core reads it unchecked, so no caller may write to it. *)
let sbox_table =
  Array.init 256 (fun i ->
      let b = gf_inv i in
      let bit x n = (x lsr n) land 1 in
      let out = ref 0 in
      for n = 0 to 7 do
        let v =
          bit b n lxor bit b ((n + 4) mod 8) lxor bit b ((n + 5) mod 8)
          lxor bit b ((n + 6) mod 8) lxor bit b ((n + 7) mod 8) lxor bit 0x63 n
        in
        out := !out lor (v lsl n)
      done;
      !out)

(* MixColumns multiplier tables: x2[b] = 2*b, x3[b] = 3*b in GF(2^8). *)
let x2 = Array.init 256 xtime
let x3 = Array.init 256 (fun b -> xtime b lxor b)

let sbox () = Array.copy sbox_table

(* --- T-tables ---------------------------------------------------------- *)

(* Columns are big-endian 32-bit words (row 0 in the top byte). t0[b] is
   the MixColumns image of S(b) entering at row 0, the column
   (2s, s, s, 3s); t1..t3 are its byte rotations for rows 1..3. One
   round's output column c is then
     t0[row 0 of c] ^ t1[row 1 of c+1] ^ t2[row 2 of c+2] ^ t3[row 3 of c+3]
   which is SubBytes, ShiftRows and MixColumns at once. *)
let t0 =
  Array.map (fun s -> (x2.(s) lsl 24) lor (s lsl 16) lor (s lsl 8) lor x3.(s)) sbox_table
let rotr8 w = (w lsr 8) lor ((w land 0xff) lsl 24)
let t1 = Array.map rotr8 t0
let t2 = Array.map rotr8 t1
let t3 = Array.map rotr8 t2

(* --- key schedule ---------------------------------------------------- *)

(* The 44 round-key words, 4 per round, for the T-table core, and the
   same words as 176 bytes (each word big-endian) for the hardware
   core. *)
type schedule = { words : int array; keys : Bytes.t }

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

(* Unchecked reads ([Array.unsafe_get], specialised to [int array] so no
   float-array check remains): every index below is a byte of a 32-bit
   word (see {!encrypt_words}), and the tables hold 256 entries. *)
external ( .!() ) : int array -> int -> int = "%array_unsafe_get"

(* [w] must be < 2^32, so that [w lsr 24] is a byte. *)
let sub_word w =
  (sbox_table.!(w lsr 24) lsl 24)
  lor (sbox_table.!((w lsr 16) land 0xff) lsl 16)
  lor (sbox_table.!((w lsr 8) land 0xff) lsl 8)
  lor sbox_table.!(w land 0xff)

let expand_key (key : Bytes.t) : schedule =
  if Bytes.length key <> 16 then
    invalid_arg
      (Printf.sprintf "Aes128.expand_key: key of %d bytes, expected exactly 16"
         (Bytes.length key));
  let w = Array.make 44 0 in
  for i = 0 to 3 do
    w.(i) <- Int32.to_int (Bytes.get_int32_be key (4 * i)) land 0xFFFF_FFFF
  done;
  for i = 4 to 43 do
    let temp = w.(i - 1) in
    let temp =
      if i mod 4 = 0 then
        (* rotword + subword + rcon *)
        sub_word (((temp lsl 8) lor (temp lsr 24)) land 0xFFFF_FFFF)
        lxor (rcon.((i / 4) - 1) lsl 24)
      else temp
    in
    w.(i) <- w.(i - 4) lxor temp
  done;
  let keys = Bytes.create 176 in
  Array.iteri (fun i word -> Bytes.set_int32_be keys (4 * i) (Int32.of_int word)) w;
  { words = w; keys }

(* --- the T-table core ---------------------------------------------------- *)

(* Unaligned native-endian int64 access into [Bytes]. These compile to
   plain loads/stores in native code, so the operands stay unboxed. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* The int64 helpers must inline: a call would box their operands. *)
let hi32 v = Int64.to_int (Int64.shift_right_logical v 32) [@@inline always]
let lo32 v = Int64.to_int v land 0xFFFF_FFFF [@@inline always]

let pack hi lo = Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)
[@@inline always]

(* Final-round column: SubBytes and ShiftRows only, then round-key word
   [k]. *)
let last (rk : int array) k w x y z =
  sub_word
    ((w land 0xff00_0000) lor (x land 0xff_0000) lor (y land 0xff00) lor (z land 0xff))
  lxor rk.!(k)

(* Encrypt the block whose column words are [c0..c3] (each < 2^32) and
   store it at [dst.(off, off+16)] as two native-order int64s, columns
   0-1 then 2-3. Taking the words as [int]s and storing the result keeps
   every intermediate unboxed across the call.

   Every table and schedule read is unchecked. The invariant that makes
   this safe: every word here is < 2^32. The inputs are (callers pass
   [hi32]/[lo32] of int64s); the schedule's words are ([expand_key]
   masks the key words and rotword to 32 bits, and S-box bytes, [rcon]
   bytes shifted by 24 and their XORs stay below 2^32); T-table entries
   are 4 bytes. XORs of such words are < 2^32 too, so [x lsr 24] and
   [(x lsr k) land 0xff] index the 256-entry tables in bounds. The
   schedule is abstract and [expand_key] always builds 44 words, so [rk]
   indices 0..43 are in bounds; the tables are private, so no caller can
   write a wider entry into them. *)
let encrypt_words (rk : int array) c0 c1 c2 c3 (dst : Bytes.t) off =
  let s0 = ref (c0 lxor rk.!(0)) and s1 = ref (c1 lxor rk.!(1)) in
  let s2 = ref (c2 lxor rk.!(2)) and s3 = ref (c3 lxor rk.!(3)) in
  for round = 1 to 9 do
    let k = 4 * round in
    let a = !s0 and b = !s1 and c = !s2 and d = !s3 in
    s0 := t0.!(a lsr 24) lxor t1.!((b lsr 16) land 0xff) lxor t2.!((c lsr 8) land 0xff)
          lxor t3.!(d land 0xff) lxor rk.!(k);
    s1 := t0.!(b lsr 24) lxor t1.!((c lsr 16) land 0xff) lxor t2.!((d lsr 8) land 0xff)
          lxor t3.!(a land 0xff) lxor rk.!(k + 1);
    s2 := t0.!(c lsr 24) lxor t1.!((d lsr 16) land 0xff) lxor t2.!((a lsr 8) land 0xff)
          lxor t3.!(b land 0xff) lxor rk.!(k + 2);
    s3 := t0.!(d lsr 24) lxor t1.!((a lsr 16) land 0xff) lxor t2.!((b lsr 8) land 0xff)
          lxor t3.!(c land 0xff) lxor rk.!(k + 3)
  done;
  let a = !s0 and b = !s1 and c = !s2 and d = !s3 in
  set64u dst off (pack (last rk 40 a b c d) (last rk 41 b c d a));
  set64u dst (off + 8) (pack (last rk 42 c d a b) (last rk 43 d a b c))

(* H(x, tweak) = pi(x') XOR x' with x' = (2 hi XOR tweak, 2 lo XOR
   NOT tweak), written to [dst.(off, off+16)] in the plane layout. *)
let hash_into (rk : int array) ~tweak hi lo dst off =
  let hi' = Int64.logxor (Int64.shift_left hi 1) tweak in
  let lo' = Int64.logxor (Int64.shift_left lo 1) (Int64.lognot tweak) in
  encrypt_words rk (hi32 hi') (lo32 hi') (hi32 lo') (lo32 lo') dst off;
  set64u dst off (Int64.logxor (get64u dst off) hi');
  set64u dst (off + 8) (Int64.logxor (get64u dst (off + 8)) lo')
[@@inline always]

let check_block fn (input : Bytes.t) =
  if Bytes.length input <> 16 then
    invalid_arg
      (Printf.sprintf "Aes128.%s: block of %d bytes, expected exactly 16" fn
         (Bytes.length input))

module Table = struct
  let encrypt_block (sched : schedule) (input : Bytes.t) : Bytes.t =
    check_block "Table.encrypt_block" input;
    let hi = Bytes.get_int64_be input 0 and lo = Bytes.get_int64_be input 8 in
    let out = Bytes.create 16 in
    encrypt_words sched.words (hi32 hi) (lo32 hi) (hi32 lo) (lo32 lo) out 0;
    Bytes.set_int64_be out 0 (get64u out 0);
    Bytes.set_int64_be out 8 (get64u out 8);
    out

  let label_hash_with (sched : schedule) ~tweak (hi, lo) =
    let out = Bytes.create 16 in
    hash_into sched.words ~tweak hi lo out 0;
    (get64u out 0, get64u out 8)

  let label_hash_hi (sched : schedule) ~tweak hi lo =
    let out = Bytes.create 16 in
    hash_into sched.words ~tweak hi lo out 0;
    get64u out 0

  (* The gate-shaped entries as single hashes; every read precedes the
     first write. *)
  let garble_and_hashes (sched : schedule) ~tweak (src : Bytes.t) a b (dst : Bytes.t) doff =
    let rk = sched.words and j = Int64.of_int tweak in
    let j1 = Int64.succ j in
    let d_hi = get64u dst doff and d_lo = get64u dst (doff + 8) in
    let a_hi = get64u src a and a_lo = get64u src (a + 8) in
    let b_hi = get64u src b and b_lo = get64u src (b + 8) in
    hash_into rk ~tweak:j a_hi a_lo dst (doff + 16);
    hash_into rk ~tweak:j (Int64.logxor a_hi d_hi) (Int64.logxor a_lo d_lo) dst (doff + 32);
    hash_into rk ~tweak:j1 b_hi b_lo dst (doff + 48);
    hash_into rk ~tweak:j1 (Int64.logxor b_hi d_hi) (Int64.logxor b_lo d_lo) dst (doff + 64)

  let eval_and_hashes (sched : schedule) ~tweak (src : Bytes.t) a b (dst : Bytes.t) doff =
    let rk = sched.words and j = Int64.of_int tweak in
    let a_hi = get64u src a and a_lo = get64u src (a + 8) in
    let b_hi = get64u src b and b_lo = get64u src (b + 8) in
    hash_into rk ~tweak:j a_hi a_lo dst doff;
    hash_into rk ~tweak:(Int64.succ j) b_hi b_lo dst (doff + 16)
end

(* --- the hardware core ------------------------------------------------ *)

(* [aes128_stubs.c]. Each takes the schedule's [keys] and writes into a
   plane at offsets the caller has sized; none allocates or raises. *)
external ni_available : unit -> bool = "secyan_aes_ni_available"

external ni_encrypt : Bytes.t -> Bytes.t -> Bytes.t -> unit = "secyan_aes_encrypt"
[@@noalloc]

external ni_hash_half :
  Bytes.t -> (int64[@unboxed]) -> (int64[@unboxed]) -> (int64[@unboxed]) ->
  (int[@untagged]) -> (int64[@unboxed]) = "secyan_aes_hash_half_byte" "secyan_aes_hash_half"
[@@noalloc]

external ni_garble_and :
  Bytes.t -> (int[@untagged]) -> Bytes.t -> (int[@untagged]) -> (int[@untagged]) ->
  Bytes.t -> (int[@untagged]) -> unit = "secyan_aes_garble_and_byte" "secyan_aes_garble_and"
[@@noalloc]

external ni_eval_and :
  Bytes.t -> (int[@untagged]) -> Bytes.t -> (int[@untagged]) -> (int[@untagged]) ->
  Bytes.t -> (int[@untagged]) -> unit = "secyan_aes_eval_and_byte" "secyan_aes_eval_and"
[@@noalloc]

let hardware = ni_available ()

(* --- entry points: the hardware core when present, else the T-table core *)

let encrypt_block (sched : schedule) (input : Bytes.t) : Bytes.t =
  if hardware then begin
    check_block "encrypt_block" input;
    let out = Bytes.create 16 in
    ni_encrypt sched.keys input out;
    out
  end
  else Table.encrypt_block sched input

(** The fixed key of every correlation-robust hash (a
    nothing-up-my-sleeve value), expanded once at module
    initialization. *)
let fixed_key : schedule =
  expand_key (Bytes.of_string "\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f")

(** Fixed-key hash for wire labels under an explicit (pre-expanded)
    schedule: H(x, tweak) = pi(x') XOR x' where x' = 2x XOR tweak (the
    standard correlation-robust construction). *)
let label_hash_with (sched : schedule) ~tweak (hi, lo) =
  if hardware then (ni_hash_half sched.keys tweak hi lo 0, ni_hash_half sched.keys tweak hi lo 1)
  else Table.label_hash_with sched ~tweak (hi, lo)

let label_hash ~tweak pair = label_hash_with fixed_key ~tweak pair

let label_hash_hi (sched : schedule) ~tweak hi lo =
  if hardware then ni_hash_half sched.keys tweak hi lo 0
  else Table.label_hash_hi sched ~tweak hi lo

let garble_and_hashes (sched : schedule) ~tweak (src : Bytes.t) a b (dst : Bytes.t) doff =
  if hardware then ni_garble_and sched.keys tweak src a b dst doff
  else Table.garble_and_hashes sched ~tweak src a b dst doff

let eval_and_hashes (sched : schedule) ~tweak (src : Bytes.t) a b (dst : Bytes.t) doff =
  if hardware then ni_eval_and sched.keys tweak src a b dst doff
  else Table.eval_and_hashes sched ~tweak src a b dst doff
