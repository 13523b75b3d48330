(** Query descriptions for the secure protocol: a free-connex
    join-aggregate query plus the ownership assignment of its relations. *)

open Secyan_crypto
open Secyan_relational

type input = {
  relation : Relation.t;  (** this party's private table (annotation column included) *)
  owner : Party.t;
}

(** One ORDER BY key: an output attribute, or the aggregate itself.
    [By_agg] orders by the {e encoded} ring representation read as a
    two's-complement value at the semiring's width — the true signed
    aggregate for the numeric ring (the documented order for the
    tropical encodings). *)
type sort_key =
  | By_attr of string  (** an output (group-by) attribute *)
  | By_agg  (** the aggregate annotation itself *)

type direction = Asc | Desc

type t = {
  name : string;
  semiring : Semiring.t;
  tree : Join_tree.t;    (** rooted join tree witnessing free-connexity *)
  output : Schema.t;     (** the group-by attributes O *)
  inputs : (string * input) list;  (** keyed by join-tree node label *)
  order_by : (sort_key * direction) list;
      (** ORDER BY keys, most significant first; ties break by an
          implicit ascending [Tuple.repr] of the output tuple, making
          the order total *)
  limit : int option;  (** LIMIT k: truncate the ordered result to k rows *)
}

(** Whether the query carries an ORDER BY or LIMIT (and so needs the
    oblivious sort phase). *)
val has_order : t -> bool

(** Build a query, deriving a rooted join tree automatically (no ORDER
    BY / LIMIT; attach those with {!with_order}).

    @raise Invalid_argument when the query is cyclic or not free-connex. *)
val prepare :
  name:string ->
  semiring:Semiring.t ->
  output:string list ->
  inputs:(string * input) list ->
  t

(** Build a query with an explicit rooted join tree ([parents] maps child
    label to parent label), validated against the running-intersection and
    free-connex conditions. The paper's experiments pin trees this way. *)
val prepare_with_tree :
  name:string ->
  semiring:Semiring.t ->
  output:string list ->
  inputs:(string * input) list ->
  root:string ->
  parents:(string * string) list ->
  t

(** Attach (or replace) the query's ORDER BY keys and LIMIT.

    @raise Invalid_argument when an ORDER BY attribute is not an output
    attribute, or the limit is negative. *)
val with_order : ?order_by:(sort_key * direction) list -> ?limit:int -> t -> t

(** Plaintext reference result via the (non-secure) Yannakakis algorithm;
    the evaluation's non-private baseline. ORDER BY / LIMIT are not
    applied here — use {!ordered_rows} on the result. *)
val plaintext : t -> Relation.t

(** Apply the query's ORDER BY / LIMIT to a result relation in the
    clear: nonzero non-dummy rows projected onto the canonical output
    schema, sorted by the query's total row order (ORDER BY keys, then
    the implicit ascending [Tuple.repr] tiebreak), truncated to the
    limit. The reference semantics the secure order phase reproduces bit
    for bit. *)
val ordered_rows : t -> Relation.t -> (Tuple.t * int64) list
