(** Oblivious semijoin and constrained join (paper §6.2), with the §6.5
    optimizations that still pay off here: a local pi^1 when the right
    annotations are clear to their owner, and no PSI at all when one party
    holds both sides. Every cross-party constrained join runs the §5.5 PSI
    with secret-shared payloads (DESIGN.md §2 item 12). *)

open Secyan_crypto
open Secyan_relational

(** [join_constrained ctx semiring ~left ~right] computes
    R = left join right under the reduce-phase constraint
    (attrs right) subset-of (attrs left). The output keeps exactly
    [left]'s tuples and owner; each annotation becomes the (shared)
    product v(t) x v(t') with the unique matching right tuple, or a shared
    zero when there is none — without anyone learning which. O~(M + N)
    cost, constant rounds.

    @raise Invalid_argument when the schema constraint is violated. *)
val join_constrained :
  Context.t ->
  Semiring.t ->
  left:Shared_relation.t ->
  right:Shared_relation.t ->
  Shared_relation.t

(** [semijoin ctx semiring ~left ~right] computes the annotated semijoin
    left semijoin right: annotations of left tuples with no
    nonzero-annotated join partner in right become shared zeros; all other
    tuples keep their annotations. Tuples, owner and size unchanged. *)
val semijoin :
  Context.t ->
  Semiring.t ->
  left:Shared_relation.t ->
  right:Shared_relation.t ->
  Shared_relation.t
