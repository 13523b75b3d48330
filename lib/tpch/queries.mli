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
    checkpoint/resume (default: none); [cancel]/[hang_timeout_s] thread the
    robustness layer through (default: unconstrained token, unwatched
    pool — see DESIGN.md §15). *)
val context :
  ?gc_backend:Context.gc_backend -> ?domains:int ->
  ?transport:Secyan_net.Resilient.t -> ?checkpoint:Checkpoint.sink ->
  ?cancel:Secyan_deadline.t -> ?hang_timeout_s:float ->
  seed:int64 -> unit -> Context.t

(** {2 The evaluation queries} *)

val q3 : Datagen.dataset -> Secyan.Query.t
val q10 : Datagen.dataset -> Secyan.Query.t

(** [threshold] is the HAVING sum(l_quantity) bound (default 300). *)
val q18 : ?threshold:int -> Datagen.dataset -> Secyan.Query.t

(** One of Q8's two inner queries: [numerator] restricts supplier
    annotations to Ind(s_nationkey = BRAZIL). *)
val q8_inner : Datagen.dataset -> numerator:bool -> Secyan.Query.t

type q8_result = {
  shares_per_year : (int * int64) list;  (** (year, mkt_share x 1000) *)
  tally : Comm.tally;
  seconds : float;
}

(** Composed Q8: two secure runs + one division circuit per year. *)
val run_q8 : Context.t -> Datagen.dataset -> q8_result

val q8_plaintext : Datagen.dataset -> (int * int64) list

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
