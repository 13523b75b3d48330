(** Benes permutation networks with concrete routing: [build perm]
    programs a network of 2x2 conditional-swap switches realizing [perm],
    the substrate of the oblivious extended permutation (paper §5.4).

    A programmed network is its control string, one byte per switch in
    evaluation order; the wires each switch joins follow from its position
    (see [iter_switches]). *)

type t = {
  n : int;            (** logical wire count *)
  padded : int;       (** power-of-two physical width *)
  controls : Bytes.t; (** one byte per switch: ['\001'] swaps, ['\000'] passes *)
}

val n_switches : t -> int

(** Program a network so that output [j] carries input [perm.(j)]. A
    network over 0 or 1 wires has no switch and passes its data through. *)
val build : int array -> t

(** Visit the switches in evaluation order as [f a b swap]. A subnetwork
    of width [len] on wires [base + k·stride] runs its input layer (switch
    [i] joins [base + 2i·stride] and [base + (2i+1)·stride]), then its
    upper child on [(base, 2·stride)], its lower child on
    [(base + stride, 2·stride)], then its output layer. *)
val iter_switches : t -> (int -> int -> bool -> unit) -> unit

(** Run the programmed network on data (tests / clear reference).
    @raise Invalid_argument if a padding wire surfaces at an output. *)
val apply : t -> 'a array -> 'a array

(** Switch count over [n] logical wires, without building a network. *)
val switch_count_for : int -> int
