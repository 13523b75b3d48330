(** Relations in the protocol's working state (paper §6, operator
    requirements 1-3): the tuples are held by exactly one party, while the
    annotations are secret-shared between the two.

    [clear_annots] is the §6.5 optimization flag: at the start of the
    protocol a party knows its own relation's annotations in the clear,
    which lets a semijoin compute pi^1 of that relation locally instead of
    obliviously. The constrained join that follows takes the shares
    either way (DESIGN.md §2 item 12). Any oblivious operator output drops
    back to [None] (shared-only). *)

open Secyan_crypto
open Secyan_relational

type t = {
  owner : Party.t;
  rel : Relation.t;                 (** tuple content; annotation column unused *)
  annots : Secret_share.t array;    (** one share pair per tuple *)
  clear_annots : int64 array option; (** also known in clear by [owner]? *)
}

let cardinality t = Relation.cardinality t.rel
let schema t = t.rel.Relation.schema

(** Enter the protocol: [owner] holds [rel] with cleartext annotations and
    shares them (one ring element of communication per tuple). *)
let of_plain ctx ~owner (rel : Relation.t) : t =
  let annots =
    Array.map (fun v -> Secret_share.share ctx ~owner v) rel.Relation.annots
  in
  Context.bump_rounds ctx 1;
  { owner; rel; annots; clear_annots = Some rel.Relation.annots }

(** Wrap an operator output: fresh shares, no cleartext annotations. *)
let of_shares ~owner rel annots =
  if Array.length annots <> Relation.cardinality rel then
    invalid_arg "Shared_relation.of_shares: annotation count mismatch";
  { owner; rel; annots; clear_annots = None }

(** Reconstruct the annotated relation. Ideal-functionality / test access
    only: no protocol step reveals this. *)
let reconstruct ctx t : Relation.t =
  Relation.with_annots t.rel (Array.map (Secret_share.reconstruct ctx) t.annots)

(** Reveal every annotation to [to_] (used only when the annotations are
    part of the query result, §6.4 phase 3). *)
let reveal_annots ctx ~to_ t : Relation.t =
  Relation.with_annots t.rel (Secret_share.reveal_batch ctx to_ t.annots)

let pp fmt t =
  Fmt.pf fmt "%s@%a (%d tuples, annots %s)" t.rel.Relation.name Party.pp t.owner
    (cardinality t)
    (match t.clear_annots with Some _ -> "clear+shared" | None -> "shared")
