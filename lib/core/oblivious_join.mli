(** Oblivious full join (paper §6.3): the last operator of a query plan.
    Requires all dangling tuples to be zero-annotated (established by the
    semijoin phase); reveals the nonzero join result J* to Alice with its
    annotations in shared form, and |J*| to Bob. *)

open Secyan_crypto
open Secyan_relational

type t = {
  joined : Relation.t;            (** J*: tuple content known to Alice *)
  annots : Secret_share.t array;  (** shared annotations, one per J* tuple *)
}

(** [product ctx semiring cols]: the element-wise product of equal-length
    shared annotation columns — OT-based products in a balanced tree
    (⌈log₂ k⌉ batches for k columns) for the ring, one batched circuit
    otherwise.

    @raise Invalid_argument on an empty column list. *)
val product : Context.t -> Semiring.t -> Secret_share.t array list -> Secret_share.t array

(** Run the oblivious join over the remaining relations of the plan.
    O~(IN + OUT) cost, constant rounds.

    @raise Invalid_argument on an empty relation list. *)
val run : Context.t -> Semiring.t -> Shared_relation.t list -> t
