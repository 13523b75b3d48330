(** AS-Waksman permutation networks with concrete routing: [build perm]
    programs a network of 2x2 conditional-swap switches realizing [perm]
    on exactly [Array.length perm] wires, the substrate of the oblivious
    extended permutation (paper §5.4). A network over [n] wires has
    S(n) = Σᵢ₌₁..n ⌈log₂ i⌉ switches, at any [n].

    A programmed network is its control string, one byte per switch in
    evaluation order; the wires each switch joins follow from its position
    (see [iter_switches]). *)

type t = {
  n : int;            (** wire count *)
  controls : Bytes.t; (** one byte per switch: ['\001'] swaps, ['\000'] passes *)
}

val n_switches : t -> int

(** Program a network so that output [j] carries input [perm.(j)]. A
    network over 0 or 1 wires has no switch and passes its data through. *)
val build : int array -> t

(** Visit the switches in evaluation order as [f a b swap]. A subnetwork
    of width [w >= 2] on wires [base + k·stride] runs its [w/2] input
    switches (switch [i] joins [base + 2i·stride] and
    [base + (2i+1)·stride]), then its child of [w - w/2] wires on
    [(base, 2·stride)], its child of [w/2] wires on
    [(base + stride, 2·stride)], then its [(w-1)/2] output switches,
    placed like the input switches. *)
val iter_switches : t -> (int -> int -> bool -> unit) -> unit

(** Run the programmed network on the first [t.n] entries of the data
    (tests / clear reference).
    @raise Invalid_argument if the data has fewer than [t.n] entries. *)
val apply : t -> 'a array -> 'a array

(** Switch count over [n] wires, without building a network:
    n⌈log₂ n⌉ − 2^⌈log₂ n⌉ + 1 for [n >= 1], 0 for [n = 0]. *)
val switch_count_for : int -> int
