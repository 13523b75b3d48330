(** Oblivious sort and top-k over secret-shared rows (DESIGN.md §17):
    the bitonic schedule of {!Sorting_network.build} with every
    compare-exchange a garbled-circuit gadget, batched one GC batch per
    network pass — O(log^2 n) rounds, Theta(n log^2 n) comparators.
    Padding to the power-of-two network width uses in-protocol sentinel
    rows (zero-value shares, validity clear, zero communication), so the
    trace is a function of the public row count alone. *)

type word_spec = {
  input : Gc_protocol.input;
  width : int;
      (** logical bit width: private inputs must enter as exactly [width]
          wires; shared inputs must reconstruct below 2^width (and
          [width] must not exceed the ring width) *)
}

type key = {
  word : word_spec;
  descending : bool;  (** reverse the order (free: bitwise NOT) *)
  signed : bool;
      (** compare as two's complement at [width] (free: top-bit flip) *)
}

type row = {
  valid : Gc_protocol.input;
      (** 1-bit validity; must reconstruct to 0 or 1. Invalid rows sort
          strictly after every valid row. *)
  valid_if_nonzero : int option;
      (** when [Some i], validity is additionally ANDed with
          [payload.(i) <> 0] inside the prep circuit — the standard guard
          for annotation-carrying rows where a zero annotation means
          "absent" *)
  keys : key list;
      (** comparison keys, most significant first; ties fall through to
          the next key. Supply a distinct final tiebreak key for a fully
          deterministic order (the network is not stable). *)
  payload : word_spec list;
      (** carried through the compare-exchange muxes, never compared *)
}

(** Sort and reveal to [to_] only the validity bit and payload words of
    the first [min k n] positions (key shares are never opened): one
    extra round. Element [(invalid, payload)] with [invalid = true]
    means every later position is invalid too — fewer than [k] valid
    rows exist.

    Communication, rounds, gates, and the trace depend only on [n],
    [k] and the row shape.

    @raise Invalid_argument on negative [k], or (for [k, n > 0]) on
    mixed row shapes or width violations. *)
val top_k_reveal :
  Context.t -> k:int -> to_:Party.t -> row array -> (bool * int64 array) array
