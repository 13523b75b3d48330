(** Deterministic pseudo-random generator.

    A splitmix64 stream ([Secyan_net.Rng]) seeds an xoshiro256** state;
    the combination is the standard recipe recommended by the xoshiro
    authors. Every source of randomness in the library flows through a
    [Prg.t] so that protocol runs are reproducible from a single seed. *)

(* The four xoshiro state words s0..s3, native-endian at byte offsets 0,
   8, 16 and 24 of one 32-byte buffer. Loads and stores through the
   unaligned int64 primitives stay unboxed, so a draw allocates nothing
   (mutable [int64] record fields would box on every store). *)
type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create seed =
  let sm = Secyan_net.Rng.create seed in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set64u t (8 * i) (Secyan_net.Rng.next sm)
  done;
  t

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))
[@@inline always]

let next_int64 t =
  let open Int64 in
  let s0 = get64u t 0 and s1 = get64u t 8 and s2 = get64u t 16 and s3 = get64u t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set64u t 0 (logxor s0 s3);
  set64u t 8 (logxor s1 s2);
  set64u t 16 (logxor s2 (shift_left s1 17));
  set64u t 24 (rotl s3 45);
  result
[@@inline always]

let next_into t dst off = set64u dst off (next_int64 t)

(** [bits t n] returns a uniformly random non-negative value of [n] bits,
    [0 <= n <= 63]. *)
let bits t n =
  if n = 0 then 0L
  else Int64.shift_right_logical (next_int64 t) (64 - n)

(** Uniform integer in [\[0, bound)] by rejection sampling. The loop
    keeps its [int64] values in let-bindings used only by unboxed
    primitives and its result in a local [int] ref, so a call allocates
    nothing. *)
let below t bound =
  if bound <= 0 then
    invalid_arg (Printf.sprintf "Prg.below: bound = %d, expected a positive integer" bound);
  let result = ref (-1) in
  while !result < 0 do
    let bound64 = Int64.of_int bound in
    let r = Int64.shift_right_logical (next_int64 t) 1 in
    let v = Int64.rem r bound64 in
    (* Reject the final partial block to avoid modulo bias. *)
    if Int64.sub r v <= Int64.sub (Int64.sub Int64.max_int bound64) 1L then
      result := Int64.to_int v
  done;
  !result

let bool t = Int64.logand (next_int64 t) 1L = 1L

(** Fisher-Yates shuffle of [a] in place. *)
let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = below t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(** A fresh random permutation of [\[0, n)] as an array. *)
let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

(** Derive an independent child generator; used to hand each party its own
    stream from a master seed. *)
let split t = create (next_int64 t)

(** The full generator state as four words; with {!set_state} this lets a
    checkpoint capture and later replay a stream position exactly. *)
let state t = Array.init 4 (fun i -> get64u t (8 * i))

let set_state t a =
  if Array.length a <> 4 then
    invalid_arg
      (Printf.sprintf "Prg.set_state: %d state words, expected 4" (Array.length a));
  Array.iteri (fun i w -> set64u t (8 * i) w) a
