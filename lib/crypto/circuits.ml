(** Word-level circuit constructions on top of {!Boolean_circuit.Builder}.

    A word is a [value array], least-significant bit first. All arithmetic
    is modulo 2^(word length), matching the annotation ring. Gate-count
    notes refer to AND gates only (XOR/NOT are free under free-XOR):
    ripple-carry add/sub cost ~n, multiplication ~n^2, comparison ~n,
    restoring division ~3n^2. *)

open Boolean_circuit.Builder

type word = Boolean_circuit.Builder.value array

let width (w : word) = Array.length w

let input_word b n : word = inputs b n

let const_word ~bits v : word =
  Array.init bits (fun i -> const_ (Int64.logand (Int64.shift_right_logical v i) 1L = 1L))

let bool_array_of_int64 ~bits v =
  Array.init bits (fun i -> Int64.logand (Int64.shift_right_logical v i) 1L = 1L)

let int64_of_bool_array bits_arr =
  let v = ref 0L in
  for i = 0 to Array.length bits_arr - 1 do
    if bits_arr.(i) then v := Int64.logor !v (Int64.shift_left 1L i)
  done;
  !v

let xor_word b (x : word) (y : word) : word =
  Array.init (width x) (fun i -> bxor b x.(i) y.(i))

let not_word b (x : word) : word = Array.map (bnot b) x

(** Ripple-carry addition modulo 2^n; carry chain uses one AND per bit:
    carry' = ((x XOR c) AND (y XOR c)) XOR c. *)
let add_word b (x : word) (y : word) : word =
  let n = width x in
  let out = Array.make n (const_ false) in
  let carry = ref (const_ false) in
  for i = 0 to n - 1 do
    let xc = bxor b x.(i) !carry in
    let yc = bxor b y.(i) !carry in
    out.(i) <- bxor b xc y.(i);
    if i < n - 1 then carry := bxor b (band b xc yc) !carry
  done;
  out

let neg_word b (x : word) : word =
  add_word b (not_word b x) (const_word ~bits:(width x) 1L)

let sub_word b (x : word) (y : word) : word = add_word b x (neg_word b y)

(** Schoolbook multiplication modulo 2^n. *)
let mul_word b (x : word) (y : word) : word =
  let n = width x in
  let acc = ref (const_word ~bits:n 0L) in
  for i = 0 to n - 1 do
    (* (x AND y_i) shifted left by i, truncated to n bits *)
    let partial =
      Array.init n (fun j -> if j < i then const_ false else band b y.(i) x.(j - i))
    in
    acc := add_word b !acc partial
  done;
  !acc

(** Equality of two words: one output bit; n-1 AND gates. *)
let eq_word b (x : word) (y : word) =
  let bits = Array.init (width x) (fun i -> bnot b (bxor b x.(i) y.(i))) in
  Array.fold_left (fun acc bit -> band b acc bit) (const_ true) bits

let nonzero_word b (x : word) =
  Array.fold_left (fun acc bit -> bor b acc bit) (const_ false) x

(** Unsigned x < y via the borrow chain of x - y: one AND per bit. *)
let lt_word b (x : word) (y : word) =
  let borrow = ref (const_ false) in
  for i = 0 to width x - 1 do
    let nx = bnot b x.(i) in
    (* borrow' = maj(not x, y, borrow) = ((nx XOR bw) AND (y XOR bw)) XOR bw *)
    let a = bxor b nx !borrow in
    let c = bxor b y.(i) !borrow in
    borrow := bxor b (band b a c) !borrow
  done;
  !borrow

let gt_word b x y = lt_word b y x

(** [mux_word b ~sel x y] = if sel then x else y; one AND per bit. *)
let mux_word b ~sel (x : word) (y : word) : word =
  Array.init (width x) (fun i -> mux b ~sel x.(i) y.(i))

(** Restoring division of unsigned words: returns (quotient, remainder).
    Division by zero yields quotient all-ones and remainder x, as in
    hardware dividers. *)
let divmod_word b (x : word) (y : word) : word * word =
  let n = width x in
  let quotient = Array.make n (const_ false) in
  (* Remainder register one bit wider than the divisor so the trial
     subtraction cannot wrap. *)
  let rem = ref (Array.make (n + 1) (const_ false)) in
  let y_ext = Array.init (n + 1) (fun i -> if i < n then y.(i) else const_ false) in
  for i = n - 1 downto 0 do
    (* shift remainder left, bring in bit i of x *)
    let shifted =
      Array.init (n + 1) (fun j -> if j = 0 then x.(i) else !rem.(j - 1))
    in
    let diff = sub_word b shifted y_ext in
    let ge = bnot b (lt_word b shifted y_ext) in
    quotient.(i) <- ge;
    rem := mux_word b ~sel:ge diff shifted
  done;
  (quotient, Array.sub !rem 0 n)

let div_word b x y = fst (divmod_word b x y)

(** Conditional word: sel ? x : 0. One AND per bit. *)
let zero_unless b sel (x : word) : word = Array.map (fun xi -> band b sel xi) x

(** Materialize every bit of a word onto real wires (used before finalize
    when a word may contain folded constants). [anchor] is any input wire. *)
let materialize_word b anchor (x : word) : word =
  Array.map (fun v -> materialize b anchor v) x
