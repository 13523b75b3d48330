(** Boolean circuits: the representation consumed by the garbled-circuit
    protocol (paper §5.2).

    A circuit has [n_inputs] input wires (ids [0 .. n_inputs-1]); gate [i]
    defines wire [n_inputs + i]. Gates are restricted to AND / XOR / NOT:
    with the free-XOR garbling technique only AND gates cost communication,
    so [and_count] is the figure of merit for all cost accounting. The
    builder performs constant folding so constants never appear as wires.

    The representation is flat (DESIGN.md §14): gate [i]'s opcode is byte
    [i] of [ops], its operands are [lhs.(i)] and [rhs.(i)] (a NOT carries
    its one operand in both). The builder emits this format and every
    kernel — clear evaluation, garbling, evaluation on labels — reads it,
    so no per-gate value is ever boxed. *)

let op_and = '\000'
let op_xor = '\001'
let op_not = '\002'

type t = {
  n_inputs : int;
  ops : Bytes.t;
  lhs : int array;
  rhs : int array;
  outputs : int array;
  and_count : int;
}

let n_gates t = Bytes.length t.ops
let n_wires t = t.n_inputs + n_gates t
let and_count t = t.and_count
let n_outputs t = Array.length t.outputs

(** Evaluate in the clear over a one-byte-per-wire plane. [inputs]
    indexed by input wire id. *)
let eval t inputs =
  let n_in = t.n_inputs and n = n_gates t in
  if Array.length inputs <> n_in then
    invalid_arg
      (Printf.sprintf "Boolean_circuit.eval: %d input bits for a circuit with %d inputs"
         (Array.length inputs) n_in);
  (* [finalize] is the only constructor ([t] is private) and makes the
     three columns the same length, so the loop reads them unchecked;
     operand reads of the wire plane stay bounds-checked. *)
  let v = Bytes.create (n_in + n) in
  for i = 0 to n_in - 1 do
    Bytes.unsafe_set v i (if Array.unsafe_get inputs i then '\001' else '\000')
  done;
  let ops = t.ops and lhs = t.lhs and rhs = t.rhs in
  for i = 0 to n - 1 do
    let x = Char.code (Bytes.get v (Array.unsafe_get lhs i)) in
    let op = Bytes.unsafe_get ops i in
    let bit =
      if op = op_xor then x lxor Char.code (Bytes.get v (Array.unsafe_get rhs i))
      else if op = op_and then x land Char.code (Bytes.get v (Array.unsafe_get rhs i))
      else x lxor 1
    in
    Bytes.unsafe_set v (n_in + i) (Char.unsafe_chr bit)
  done;
  Array.map (fun w -> Bytes.get v w = '\001') t.outputs

module Builder = struct
  (* A builder value is an unboxed int: a wire id (>= 0) or one of the two
     folded constants (negative), so building allocates nothing per gate. *)
  type value = int

  let c_false = -1
  let c_true = -2

  (* Builder wire ids number inputs and gate outputs together in creation
     order; [finalize] moves the inputs to the front. Inputs and gates
     live in growable flat columns — the builder is the hot path of every
     oblivious operator, routinely holding millions of gates. *)
  type b = {
    mutable next_wire : int;
    mutable in_wires : int array;  (* builder ids of the inputs, ascending *)
    mutable n_in : int;
    mutable ops : Bytes.t;
    mutable lhs : int array;
    mutable rhs : int array;
    mutable n_gates : int;
  }

  let create () =
    {
      next_wire = 0;
      in_wires = Array.make 64 0;
      n_in = 0;
      ops = Bytes.create 64;
      lhs = Array.make 64 0;
      rhs = Array.make 64 0;
      n_gates = 0;
    }

  let grow_ints a len =
    let a' = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 a' 0 len;
    a'

  let fresh b =
    let w = b.next_wire in
    b.next_wire <- w + 1;
    w

  let input b =
    let w = fresh b in
    if b.n_in = Array.length b.in_wires then b.in_wires <- grow_ints b.in_wires b.n_in;
    b.in_wires.(b.n_in) <- w;
    b.n_in <- b.n_in + 1;
    w

  let inputs b n = Array.init n (fun _ -> input b)

  let const_ bit = if bit then c_true else c_false

  let emit b op x y =
    let w = fresh b in
    let g = b.n_gates in
    if g = Bytes.length b.ops then begin
      let ops = Bytes.create (2 * g) in
      Bytes.blit b.ops 0 ops 0 g;
      b.ops <- ops;
      b.lhs <- grow_ints b.lhs g;
      b.rhs <- grow_ints b.rhs g
    end;
    Bytes.unsafe_set b.ops g op;
    b.lhs.(g) <- x;
    b.rhs.(g) <- y;
    b.n_gates <- g + 1;
    w

  (* c_false <-> c_true is -3 - v. *)
  let bnot b x = if x < 0 then -3 - x else emit b op_not x x

  let bxor b x y =
    if x < 0 then
      if y < 0 then const_ (x <> y)
      else if x = c_false then y
      else bnot b y
    else if y < 0 then if y = c_false then x else bnot b x
    else if x = y then c_false
    else emit b op_xor x y

  let band b x y =
    if x = c_false || y = c_false then c_false
    else if x = c_true then y
    else if y = c_true then x
    else if x = y then x
    else emit b op_and x y

  let bor b x y =
    (* x OR y = NOT (NOT x AND NOT y); costs one AND *)
    bnot b (band b (bnot b x) (bnot b y))

  (** [mux b ~sel x y] = if sel then x else y; one AND gate. *)
  let mux b ~sel x y = bxor b y (band b sel (bxor b x y))

  (** Remap wires so inputs occupy [0 .. k-1] in creation order and gates
      follow in creation order (which is already topological). *)
  let finalize b ~outputs =
    let n_inputs = b.n_in and n = b.n_gates in
    (* Every builder wire is an input or a gate output, both numbered in
       creation order: one merge walk over the ascending input ids. *)
    let remap = Array.make b.next_wire 0 in
    let p = ref 0 in
    for w = 0 to b.next_wire - 1 do
      if !p < n_inputs && b.in_wires.(!p) = w then begin
        remap.(w) <- !p;
        incr p
      end
      else remap.(w) <- n_inputs + w - !p
    done;
    let ops = Bytes.sub b.ops 0 n in
    let lhs = Array.sub b.lhs 0 n and rhs = Array.sub b.rhs 0 n in
    let and_count = ref 0 in
    for i = 0 to n - 1 do
      lhs.(i) <- remap.(lhs.(i));
      rhs.(i) <- remap.(rhs.(i));
      if Bytes.unsafe_get ops i = op_and then incr and_count
    done;
    let outputs =
      Array.map
        (fun v ->
          if v < 0 then
            invalid_arg
              "Boolean_circuit.Builder.finalize: constant output; put it on a wire first \
               with Builder.materialize or Circuits.materialize_word"
          else remap.(v))
        outputs
    in
    { n_inputs; ops; lhs; rhs; outputs; and_count = !and_count }

  (** Force a possibly-constant value onto a real wire, synthesized from
      an existing wire [anchor] (a fresh input would change the input
      count): false as [anchor XOR anchor], true as its NOT. *)
  let materialize b anchor v =
    if v >= 0 then v
    else
      let z = emit b op_xor anchor anchor in
      if v = c_true then bnot b z else z
end
