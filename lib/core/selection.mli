(** Selection conditions under the three privacy policies of paper §7. *)

open Secyan_relational

type policy =
  | Public       (** selectivity may be revealed: non-matching tuples dropped *)
  | Private      (** nothing leaks: non-matching tuples become dummies, size unchanged *)
  | Bounded of int
      (** a public upper bound on the selectivity: matches kept, padded to the bound *)

type predicate = Schema.t -> Tuple.t -> bool

(** Apply a selection under the chosen policy. Runs locally at the data
    owner.

    @raise Invalid_argument when a [Bounded] policy's bound is exceeded. *)
val apply : policy -> predicate -> Relation.t -> Relation.t

(** The relation size made public under each policy. *)
val public_size : policy -> original:int -> selected:int -> int
