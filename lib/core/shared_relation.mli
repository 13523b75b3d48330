(** Relations in the protocol's working state (paper §6): tuples held by
    one party, annotations secret-shared between both. *)

open Secyan_crypto
open Secyan_relational

type t = {
  owner : Party.t;                    (** the party that knows the tuples *)
  rel : Relation.t;                   (** tuple content; its annotation column is unused *)
  annots : Secret_share.t array;      (** one share pair per tuple *)
  clear_annots : int64 array option;
      (** §6.5 optimization flag: annotations also known in clear by
          [owner] (true for protocol inputs, reset by every operator); a
          semijoin then computes pi^1 locally *)
}

val cardinality : t -> int

val schema : t -> Schema.t

(** Enter the protocol: [owner] shares the annotations of its cleartext
    relation (one ring element of communication per tuple, one round). *)
val of_plain : Context.t -> owner:Party.t -> Relation.t -> t

(** Wrap an operator's output: fresh shares, no cleartext annotations. *)
val of_shares : owner:Party.t -> Relation.t -> Secret_share.t array -> t

(** Reconstruct the annotated relation without communication.
    Ideal-functionality / test access only — no protocol step reveals
    this. *)
val reconstruct : Context.t -> t -> Relation.t

(** Reveal every annotation to one party in a single batched round; only
    legitimate when the annotations are part of the query result (§6.4
    phase 3). *)
val reveal_annots : Context.t -> to_:Party.t -> t -> Relation.t

val pp : Format.formatter -> t -> unit
