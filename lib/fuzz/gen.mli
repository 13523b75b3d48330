(** Seeded generator of random free-connex join-aggregate instances:
    random acyclic join trees with a free-connex output set, random
    semirings (the Ring at 16, 32 or 52 bits, drawn from a separate
    stream), and databases exercising skew, duplicate keys, empty
    relations, all-dummy padded inputs, and boundary annotations of the
    drawn width.

    Half the instances additionally carry an ORDER BY / LIMIT clause
    (mixed aggregate/attribute keys, both directions, limits covering
    k = 0, k = 1, k near the group count, and k far above it). The
    order clause is drawn from a SEPARATE random stream keyed on the
    same [(seed, case)] pair, so pinned regression seeds keep their
    exact join structure and database content even as the order
    dimension evolves. *)

type instance = {
  seed : int64;  (** campaign seed *)
  case : int;    (** case index within the campaign *)
  query : Secyan.Query.t;
}

(** Deterministically derive the instance for [(seed, case)]. Two calls
    with the same pair produce the same query structure and the same
    database content (up to fresh dummy-value ids, which carry
    annotation 0 and never join). *)
val generate : seed:int64 -> case:int -> instance

(** Restrict relations to the rows whose mask entry is true (used by the
    shrinker and seed-file replay). Relations without a mask are kept
    whole.
    @raise Invalid_argument on a mask/cardinality length mismatch. *)
val with_masks : instance -> (string * bool array) list -> instance
