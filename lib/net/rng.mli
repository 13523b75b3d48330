(** Minimal splitmix64 generator for transport-internal randomness
    (fault-schedule layout, corruption positions, backoff jitter) —
    deliberately independent of the protocol's randomness. Also the
    seeding stream of [Prg.create] and the hash of
    [Resilient.jitter_frac]: the code base's one splitmix64. *)

type t

val create : int64 -> t
val next : t -> int64

(** Uniform draw in [\[0, bound)] (rejection-sampled, no modulo bias).
    @raise Invalid_argument unless [bound > 0]. *)
val below : t -> int -> int
