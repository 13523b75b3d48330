(** Deterministic pseudo-random generator (xoshiro256** seeded via
    splitmix64). Every source of randomness in the library flows through a
    [Prg.t], so protocol runs are reproducible from a single seed. *)

type t

val create : int64 -> t
val next_int64 : t -> int64

(** [next_into t dst off] stores {!next_int64} at [dst.(off, off+8)] in
    native byte order without allocating (a draw returned across a
    module boundary is boxed). [off] is not bounds-checked: callers are
    the garbling loops, which size their planes first. *)
val next_into : t -> Bytes.t -> int -> unit

(** A uniformly random non-negative [n]-bit value, [0 <= n <= 63]. *)
val bits : t -> int -> int64

(** Uniform integer in [[0, bound)], bias-free.
    @raise Invalid_argument when [bound <= 0]. *)
val below : t -> int -> int

val bool : t -> bool

(** A fresh uniformly random permutation of [[0, n)]. *)
val permutation : t -> int -> int array

(** Derive an independent child generator. *)
val split : t -> t

(** The full generator state as four words: capture a stream position for
    a checkpoint, replay it with {!set_state}. *)
val state : t -> int64 array

(** Overwrite the generator state with four previously captured words.
    @raise Invalid_argument when the array is not 4 long. *)
val set_state : t -> int64 array -> unit
