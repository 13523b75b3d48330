(** The secure Yannakakis protocol (paper §6.4): reduce, semijoin, and
    full-join phases over the join tree, composed from the oblivious
    operators of §6.1–6.3. Cost O~(IN + OUT); the number of communication
    rounds depends only on the query. *)

open Secyan_crypto
open Secyan_relational

type result = {
  joined : Relation.t;            (** J*: tuples known to Alice *)
  annots : Secret_share.t array;  (** shared annotations, one per J* tuple *)
  tally : Comm.tally;             (** communication of this execution *)
  seconds : float;                (** wall-clock protocol time *)
}

(** Run the protocol, leaving the result annotations in shared form —
    the entry point for query composition (§7), where several aggregates
    are post-processed by small circuits before anything is revealed.

    When the context carries a checkpoint sink, a durable snapshot is
    emitted at every phase/operator boundary; [~resume:true] (requires
    the sink) restarts from the latest checkpoint when one exists, with
    results, tally, and protocol counters bit-identical to an
    uninterrupted run (DESIGN.md §11).
    @raise Checkpoint.Checkpoint_error on a damaged or query-mismatched
    checkpoint.
    @raise Invalid_argument for [~resume:true] without a sink, or when
    the context's ring width differs from the query semiring's. *)
val run_shared : ?resume:bool -> Context.t -> Query.t -> result

(** Run the protocol and reveal the result annotations to Alice, the
    designated receiver: the standard top-level entry point. *)
val run : ?resume:bool -> Context.t -> Query.t -> Relation.t * result

(** Rough AND-gate total of a run over this context's ring width, from
    public sizes and owners: the PSI, nonzero and reveal circuits, and
    the non-ring semirings' merge and product circuits; the top-k sort
    is not charged. Progress-estimation (ETA) input only, never cost
    accounting. *)
val estimate_and_gates : Context.t -> Query.t -> int
