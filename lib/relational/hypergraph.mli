(** Query hypergraphs (paper §3.1): vertices are attributes, hyperedges
    are relations; acyclicity decided by GYO reduction. *)

type edge = { label : string; attrs : Schema.t }

type t = { edges : edge list }

(** @raise Invalid_argument on duplicate edge labels. *)
val create : edge list -> t

val edge : label:string -> string list -> edge

(** @raise Not_found for unknown labels. *)
val find : t -> string -> edge

(** GYO reduction reaches the empty hypergraph iff acyclic. *)
val is_acyclic : t -> bool

(** Free-connex (Bagan–Durand–Grandjean): acyclic, and still acyclic with
    the output attributes added as an extra hyperedge. *)
val is_free_connex : t -> output:Schema.t -> bool

val pp : Format.formatter -> t -> unit
