(** SHA-256 (FIPS 180-4), pure OCaml.

    The collision-resistant digest behind tuple encodings (variable-length
    join keys become the PSI's 60-bit elements) and checkpoint
    fingerprints. Every correlation-robust hash — garbled-circuit labels,
    OT extension rows, cuckoo bins, OPPRF outputs — runs on fixed-key AES
    instead (DESIGN.md §6, §9). The implementation follows the
    specification directly; it is validated against the FIPS test vectors
    in the test suite. *)

let k = [|
  0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl; 0x59f111f1l;
  0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l; 0x243185bel; 0x550c7dc3l;
  0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l; 0xc19bf174l; 0xe49b69c1l; 0xefbe4786l;
  0x0fc19dc6l; 0x240ca1ccl; 0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal;
  0x983e5152l; 0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
  0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl; 0x53380d13l;
  0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l; 0xa2bfe8a1l; 0xa81a664bl;
  0xc24b8b70l; 0xc76c51a3l; 0xd192e819l; 0xd6990624l; 0xf40e3585l; 0x106aa070l;
  0x19a4c116l; 0x1e376c08l; 0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al;
  0x5b9cca4fl; 0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
  0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l
|]

type ctx = {
  mutable h0 : int32; mutable h1 : int32; mutable h2 : int32; mutable h3 : int32;
  mutable h4 : int32; mutable h5 : int32; mutable h6 : int32; mutable h7 : int32;
  buf : Bytes.t;            (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int64;    (* total bytes hashed *)
  w : int32 array;          (* message schedule scratch *)
}

let init () = {
  h0 = 0x6a09e667l; h1 = 0xbb67ae85l; h2 = 0x3c6ef372l; h3 = 0xa54ff53al;
  h4 = 0x510e527fl; h5 = 0x9b05688cl; h6 = 0x1f83d9abl; h7 = 0x5be0cd19l;
  buf = Bytes.create 64; buf_len = 0; total = 0L; w = Array.make 64 0l;
}

let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))

let compress t block off =
  let w = t.w in
  for i = 0 to 15 do
    w.(i) <- Bytes.get_int32_be block (off + (i * 4))
  done;
  for i = 16 to 63 do
    let s0 =
      Int32.logxor (Int32.logxor (rotr w.(i - 15) 7) (rotr w.(i - 15) 18))
        (Int32.shift_right_logical w.(i - 15) 3)
    in
    let s1 =
      Int32.logxor (Int32.logxor (rotr w.(i - 2) 17) (rotr w.(i - 2) 19))
        (Int32.shift_right_logical w.(i - 2) 10)
    in
    w.(i) <- Int32.add (Int32.add w.(i - 16) s0) (Int32.add w.(i - 7) s1)
  done;
  let a = ref t.h0 and b = ref t.h1 and c = ref t.h2 and d = ref t.h3 in
  let e = ref t.h4 and f = ref t.h5 and g = ref t.h6 and h = ref t.h7 in
  for i = 0 to 63 do
    let s1 = Int32.logxor (Int32.logxor (rotr !e 6) (rotr !e 11)) (rotr !e 25) in
    let ch = Int32.logxor (Int32.logand !e !f) (Int32.logand (Int32.lognot !e) !g) in
    let temp1 = Int32.add (Int32.add (Int32.add !h s1) (Int32.add ch k.(i))) w.(i) in
    let s0 = Int32.logxor (Int32.logxor (rotr !a 2) (rotr !a 13)) (rotr !a 22) in
    let maj =
      Int32.logxor (Int32.logxor (Int32.logand !a !b) (Int32.logand !a !c))
        (Int32.logand !b !c)
    in
    let temp2 = Int32.add s0 maj in
    h := !g; g := !f; f := !e;
    e := Int32.add !d temp1;
    d := !c; c := !b; b := !a;
    a := Int32.add temp1 temp2
  done;
  t.h0 <- Int32.add t.h0 !a; t.h1 <- Int32.add t.h1 !b;
  t.h2 <- Int32.add t.h2 !c; t.h3 <- Int32.add t.h3 !d;
  t.h4 <- Int32.add t.h4 !e; t.h5 <- Int32.add t.h5 !f;
  t.h6 <- Int32.add t.h6 !g; t.h7 <- Int32.add t.h7 !h

let feed t src pos len =
  t.total <- Int64.add t.total (Int64.of_int len);
  let pos = ref pos and len = ref len in
  if t.buf_len > 0 then begin
    let need = 64 - t.buf_len in
    let take = min need !len in
    Bytes.blit src !pos t.buf t.buf_len take;
    t.buf_len <- t.buf_len + take;
    pos := !pos + take;
    len := !len - take;
    if t.buf_len = 64 then begin
      compress t t.buf 0;
      t.buf_len <- 0
    end
  end;
  while !len >= 64 do
    compress t src !pos;
    pos := !pos + 64;
    len := !len - 64
  done;
  if !len > 0 then begin
    Bytes.blit src !pos t.buf 0 !len;
    t.buf_len <- !len
  end

let finish t =
  let total_bits = Int64.mul t.total 8L in
  let pad_len =
    let rem = Int64.to_int (Int64.rem t.total 64L) in
    if rem < 56 then 56 - rem else 120 - rem
  in
  let pad = Bytes.make (pad_len + 8) '\000' in
  Bytes.set pad 0 '\x80';
  Bytes.set_int64_be pad pad_len total_bits;
  (* feed without double-counting length *)
  let saved = t.total in
  feed t pad 0 (Bytes.length pad);
  t.total <- saved;
  let out = Bytes.create 32 in
  Bytes.set_int32_be out 0 t.h0; Bytes.set_int32_be out 4 t.h1;
  Bytes.set_int32_be out 8 t.h2; Bytes.set_int32_be out 12 t.h3;
  Bytes.set_int32_be out 16 t.h4; Bytes.set_int32_be out 20 t.h5;
  Bytes.set_int32_be out 24 t.h6; Bytes.set_int32_be out 28 t.h7;
  out

let digest_bytes b =
  let t = init () in
  feed t b 0 (Bytes.length b);
  finish t

let digest_string s = digest_bytes (Bytes.of_string s)

let to_hex digest =
  let buf = Buffer.create 64 in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) digest;
  Buffer.contents buf
