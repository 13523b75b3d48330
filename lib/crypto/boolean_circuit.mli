(** Boolean circuits consumed by the garbled-circuit protocol: AND / XOR /
    NOT gates only, so with free-XOR garbling the AND count is the cost
    figure. Input wires occupy ids [0 .. n_inputs-1]; gate [i] defines
    wire [n_inputs + i].

    The format is flat: gate [i]'s opcode is byte [i] of [ops] (one of
    {!op_and}, {!op_xor}, {!op_not}) and its operands are [lhs.(i)] and
    [rhs.(i)], both wires below [n_inputs + i]; a NOT carries its operand
    in both. Circuits come only from {!Builder.finalize}. *)

val op_and : char
val op_xor : char
val op_not : char

type t = private {
  n_inputs : int;
  ops : Bytes.t;
  lhs : int array;
  rhs : int array;
  outputs : int array;
  and_count : int;
}

val n_wires : t -> int
val n_gates : t -> int
val and_count : t -> int
val n_outputs : t -> int

(** Evaluate in the clear; [inputs] indexed by input wire id. *)
val eval : t -> bool array -> bool array

(** Circuit builder with constant folding (constants never become
    wires). Gates are stored in growable flat columns — builders
    routinely hold millions of gates. *)
module Builder : sig
  (** A builder value: a wire id or a folded constant, as an unboxed
      int. *)
  type value [@@immediate]

  type b

  val create : unit -> b

  (** A fresh input wire. *)
  val input : b -> value

  val inputs : b -> int -> value array
  val const_ : bool -> value
  val bnot : b -> value -> value
  val bxor : b -> value -> value -> value
  val band : b -> value -> value -> value

  (** One AND gate. *)
  val bor : b -> value -> value -> value

  (** [mux b ~sel x y] = if sel then x else y; one AND gate. *)
  val mux : b -> sel:value -> value -> value -> value

  (** Force a possibly-constant value onto a real wire ([anchor] is any
      existing input wire id); required before using it as an output. *)
  val materialize : b -> int -> value -> value

  (** Freeze the builder: inputs are remapped to the front in creation
      order, gates keep their (topological) creation order.

      @raise Invalid_argument if an output is still a folded constant. *)
  val finalize : b -> outputs:value array -> t
end
