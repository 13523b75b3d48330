(** Arithmetic secret sharing over Z_{2^l} (paper §5.1): v = a + b mod 2^l
    with Alice holding [a] and Bob holding [b], each uniformly random. *)

type t = { a : int64; b : int64 }

(** One party's share. Protocol code must access shares only through
    this accessor. *)
val share_of : t -> Party.t -> int64

(** Reconstruct without communication — ideal-functionality/test access. *)
val reconstruct : Context.t -> t -> int64

(** The owner splits a private value and sends one share (l bits). *)
val share : Context.t -> owner:Party.t -> int64 -> t

(** Share a public constant as (v, 0); no communication. *)
val of_public : Context.t -> int64 -> t

(** A fresh uniformly-random resharing of a value, with dealer
    randomness; used inside simulated primitives, which account their own
    communication. *)
val fresh_of_value : Context.t -> int64 -> t

(** The counterparty sends its share; one round, l bits. *)
val reveal_to : Context.t -> Party.t -> t -> int64

(** Batched reveal: one message, one round, regardless of batch size. *)
val reveal_batch : Context.t -> Party.t -> t array -> int64 array

(** Reveal to both parties (one round, l bits each way). *)
val open_both : Context.t -> t -> int64

(** {2 Linear operations} — local, zero communication. *)

val add : Context.t -> t -> t -> t
val sub : Context.t -> t -> t -> t
val neg : Context.t -> t -> t
val add_public : Context.t -> t -> int64 -> t
val scale_public : Context.t -> t -> int64 -> t
val zero : t
val sum : Context.t -> t list -> t

(** {2 Multiplication} *)

(** [mul_batch ctx xs ys] shares [xs.(i) · ys.(i)] mod 2^l, freshly
    randomized, by the OT-based (Gilboa) product: each party multiplies
    its own shares locally, and each of the two cross terms costs [l]
    correlated OTs from the dealer, the [i]-th carrying l−i bits.
    [Real] runs the derandomized-OT message arithmetic; [Sim] reshares
    the product. Both account the same cost under an ["ot:mul"] span:
    2 rounds for the whole batch, one send per direction per round
    ({!Cost_model.ot_product_bits} per product), and [2l] OTs per
    product. An empty batch costs nothing.
    @raise Invalid_argument on arrays of different lengths. *)
val mul_batch : Context.t -> t array -> t array -> t array

val pp : Format.formatter -> t -> unit
