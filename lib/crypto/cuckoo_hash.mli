(** Cuckoo hashing with 3 keyed hash functions over B = 1.27 M bins
    (paper §5.3, following PSTY19): the PSI receiver stores at most one
    element per bin; the sender later maps each of its elements into all
    three candidate bins. *)

type keys = { k1 : int64; k2 : int64; k3 : int64; n_bins : int }

(** The bin of element [x] under hash function [0 <= which <= 2]. *)
val bin : keys -> int -> int64 -> int

type table = {
  keys : keys;
  slots : int64 option array;   (** element stored in each bin *)
}

exception Insertion_failed

(** Raised when insertion keeps failing across [attempts] key refreshes —
    in practice only when a caller forces an under-provisioned [n_bins].
    [load_factor] is elements / n_bins (~1/1.27 for a normally sized
    table); [context] is the caller's annotation ([""] when none). *)
exception
  Build_error of {
    elements : int;
    n_bins : int;
    load_factor : float;
    attempts : int;
    context : string;
  }

(** The default bin count for M elements: ceil(1.27 M), at least 2. *)
val n_bins_for : int -> int

(** Build a cuckoo table over distinct elements, by default into
    [n_bins_for M] bins; draws fresh keys and retries on the
    (2^-sigma-probability) insertion failure.

    @raise Build_error after 64 fruitless key refreshes. *)
val build : ?n_bins:int -> ?context:string -> Prg.t -> int64 array -> table

(** The sender's side: per-bin lists of indices into the input array,
    each element hashed into all of its candidate bins. *)
val simple_hash : keys -> int64 array -> int list array

(** Every element sits in exactly one of its candidate bins (test hook). *)
val check_table : table -> int64 array -> bool
