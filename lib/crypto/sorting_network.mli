(** Bitonic sorting networks (Batcher): data-independent comparator
    schedules, the standard substrate for oblivious sorting (the secure
    ORDER BY / top-k phase executes exactly this schedule over
    secret-shared rows). Theta(n log^2 n) comparators, built into
    preallocated per-pass arrays with the closed-form count as a
    construction cross-check. *)

type comparator = { lo : int; hi : int }
(** compare-exchange: afterwards [lo] holds the smaller element. *)

type t = {
  n : int;           (** logical input count *)
  padded : int;      (** power-of-two network width *)
  passes : comparator array array;
      (** the schedule in execution order, grouped by (k, j) pass;
          comparators within one pass touch pairwise-disjoint wire pairs,
          so each pass runs as one parallel batch of compare-exchange
          gadgets *)
}

(** The comparator schedule sorting [n] elements ascending. *)
val build : int -> t

(** Closed-form comparator count for a network over [n] inputs:
    [padded/2 * m*(m+1)/2] with [padded = 2^m] the padded width. Equals
    [comparator_count (build n)] — [build] enforces the identity. *)
val expected_count : int -> int

val comparator_count : t -> int

(** Number of (k, j) passes: [m*(m+1)/2] for a [2^m]-wide network. *)
val pass_count : t -> int

(** Run the network in the clear; padding positions hold +infinity
    sentinels and are stripped.

    @raise Invalid_argument on length mismatch. *)
val apply : ?compare:('a -> 'a -> int) -> t -> 'a array -> 'a array
