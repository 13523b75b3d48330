(** Oblivious projection-aggregation (paper §6.1): sort + an aligning
    OEP, then a segmented sum for [Ring] (local prefix sums + one
    extended OEP) or a garbled circuit of merge gates for the other
    semirings. Both operators preserve the relation's owner and
    cardinality; group sizes, aggregate values, and which output tuples
    are dummies all stay hidden, and the cost depends on the cardinality
    alone. *)

open Secyan_crypto
open Secyan_relational

(** [aggregate ctx semiring r ~attrs] computes a relation semantically
    equivalent to the annotated projection-aggregation pi^plus_attrs(r):
    one tuple per distinct value of [attrs] carrying the plus-aggregate of
    its group (in shared form), padded with zero-annotated dummies back to
    [cardinality r]. O~(N) cost, constant rounds. *)
val aggregate :
  Context.t -> Semiring.t -> Shared_relation.t -> attrs:Schema.t -> Shared_relation.t

(** [project_nonzero ctx semiring r ~attrs] computes a relation
    semantically equivalent to pi^1_attrs(r): the distinct [attrs]-values
    among nonzero-annotated tuples, each annotated with the semiring's
    (shared) times-identity; zero-annotated positions pad the output to
    [cardinality r]. Used to build annotated semijoins (§6.2). *)
val project_nonzero :
  Context.t -> Semiring.t -> Shared_relation.t -> attrs:Schema.t -> Shared_relation.t

(** The two operators' garbled circuits, as {!Gc_protocol} builders over
    the chain's input words (the n-1 one-bit equal-next indicators, then
    the n annotations). [merge_chain semiring ~n] is {!aggregate}'s N-1
    merge gates ([n >= 2]) for the boolean and tropical semirings (a
    [Ring] aggregate garbles nothing); [nonzero_chain semiring ~n] is
    {!project_nonzero}'s OR-merge gates ([n >= 1]) for every semiring. *)
val merge_chain :
  Semiring.t -> n:int -> Boolean_circuit.Builder.b -> Circuits.word array -> Circuits.word list

val nonzero_chain :
  Semiring.t -> n:int -> Boolean_circuit.Builder.b -> Circuits.word array -> Circuits.word list
