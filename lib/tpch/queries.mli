(** The five TPC-H queries of the paper's evaluation (§8.1) as free-connex
    join-aggregate queries: private selections become dummies, nation is
    rewritten away where public, revenue = extendedprice x (100 -
    discount), relations are partitioned between the parties in the worst
    possible way. Q3/Q10/Q18 are single protocol runs; Q8 and Q9 are
    compositions (§7). *)

open Secyan_crypto
open Secyan_relational

(** Annotation ring width for all TPC-H queries (cent-precision sums). *)
val ring_bits : int

val semiring : Semiring.t

(** A protocol context sized for these queries. [domains] sets the
    parallelism of the GC batch engine (default 1; results are
    bit-identical for every value); [transport] attaches a real framed
    channel behind the communication accounting (default: pure
    simulation); [checkpoint] attaches a durable snapshot stream for
    checkpoint/resume (default: none); [cancel]/[supervisor] thread the
    robustness layer through (default: unconstrained token, no
    supervision — see DESIGN.md §15). *)
val context :
  ?gc_backend:Context.gc_backend -> ?domains:int ->
  ?transport:Secyan_net.Resilient.t -> ?checkpoint:Checkpoint.sink ->
  ?cancel:Secyan_deadline.t -> ?supervisor:Domain_pool.supervisor ->
  seed:int64 -> unit -> Context.t

(** {2 Relation shaping helpers} (shared with {!Extra_queries}) *)

val geti : Schema.t -> string -> Tuple.t -> int
val gets : Schema.t -> string -> Tuple.t -> string

(** Project onto [attrs] (+ virtual columns), dummy out tuples failing
    [keep], annotate with [annot]; duplicate projections pre-aggregate
    locally and the cardinality stays public. *)
val shape :
  Relation.t ->
  name:string ->
  attrs:string list ->
  ?virtuals:(string * (Schema.t -> Tuple.t -> Value.t)) list ->
  keep:(Schema.t -> Tuple.t -> bool) ->
  annot:(Schema.t -> Tuple.t -> int64) ->
  unit ->
  Relation.t

val always : Schema.t -> Tuple.t -> bool
val const_one : Schema.t -> Tuple.t -> int64

(** revenue = l_extendedprice x (100 - l_discount), cents x 100. *)
val revenue : Schema.t -> Tuple.t -> int64

val date_lt : string -> Value.t -> Schema.t -> Tuple.t -> bool
val date_ge : string -> Value.t -> Schema.t -> Tuple.t -> bool
val year_virtual : Schema.t -> Tuple.t -> Value.t

(** {2 The evaluation queries} *)

val q3 : Datagen.dataset -> Secyan.Query.t
val q10 : Datagen.dataset -> Secyan.Query.t

(** [threshold] is the HAVING sum(l_quantity) bound (default 300). *)
val q18 : ?threshold:int -> Datagen.dataset -> Secyan.Query.t

val q8_nation : int
val q8_customer_nations : int list

(** One of Q8's two inner queries: [numerator] restricts supplier
    annotations to Ind(s_nationkey = {!q8_nation}). *)
val q8_inner : Datagen.dataset -> numerator:bool -> Secyan.Query.t

type q8_result = {
  shares_per_year : (int * int64) list;  (** (year, mkt_share x 1000) *)
  tally : Comm.tally;
  seconds : float;
}

(** Composed Q8: two secure runs + one division circuit per year. *)
val run_q8 : Context.t -> Datagen.dataset -> q8_result

val q8_plaintext : Datagen.dataset -> (int * int64) list

(** Index a shared-output protocol result by its single int attribute. *)
val index_by_int_key :
  Secyan.Secure_yannakakis.result -> (int * Secret_share.t) list

(** Q9's inner query for one nation; [volume] selects revenue vs
    supplycost x quantity. *)
val q9_inner : Datagen.dataset -> nationkey:int -> volume:bool -> Secyan.Query.t

type q9_result = {
  rows : (int * int * int) list;  (** (nationkey, year, profit in cents) *)
  tally : Comm.tally;
  seconds : float;
}

(** Composed Q9: per nation, two secure runs, local share subtraction,
    reveal. [nations] restricts the 25-way decomposition. *)
val run_q9 : ?nations:int list -> Context.t -> Datagen.dataset -> q9_result

val q9_plaintext : ?nations:int list -> Datagen.dataset -> (int * int * int) list

(** Effective input size in bytes: the columns involved in the query, the
    x-axis of Figures 2-6. *)
val effective_input_bytes : Secyan.Query.t -> int
