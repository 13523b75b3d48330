(** Selection conditions under the three privacy policies of paper §7.

    - [Public]: the selectivity may be revealed — non-matching tuples are
      dropped, shrinking the input (and the protocol's cost).
    - [Private]: nothing about the selectivity may leak — non-matching
      tuples become zero-annotated dummies; cost is unchanged, which the
      paper notes is unavoidable.
    - [Bounded b]: an upper bound [b] on the selectivity may be revealed —
      matching tuples are kept and the relation is padded with dummies to
      exactly [b]. *)

open Secyan_relational

type policy =
  | Public
  | Private
  | Bounded of int

type predicate = Schema.t -> Tuple.t -> bool

(* Selections run locally at the data owner: no communication. *)
let apply (policy : policy) (pred : predicate) (r : Relation.t) : Relation.t =
  match policy with
  | Private -> Relation.select_to_dummy pred r
  | Public -> Relation.select pred r
  | Bounded bound ->
      let selected = Relation.select pred r in
      if Relation.cardinality selected > bound then
        invalid_arg
          (Printf.sprintf
             "Selection.apply: %d tuples satisfy the condition but the public bound is %d"
             (Relation.cardinality selected) bound);
      Relation.pad_to ~size:bound selected

(** Resulting (public) relation size under each policy. *)
let public_size (policy : policy) ~original ~selected =
  match policy with
  | Private -> original
  | Public -> selected
  | Bounded bound -> bound
