(** One node of a protocol trace: a named interval with the ledger
    deltas — traffic, rounds, sends, and primitive counters — recorded
    while it was the innermost open span, its inclusive allocation, plus
    child spans. Inclusive ledger metrics are derived on demand. *)

open Secyan_crypto

(** [Gc.quick_stat] deltas over a span's whole extent, descendants
    included. *)
type alloc = {
  minor_words : float;     (** words allocated in the minor heap *)
  promoted_words : float;
  major_words : float;     (** words allocated in the major heap, promotions included *)
  minor_collections : int;
  major_collections : int;
  compactions : int;
}

type t = {
  name : string;
  start_s : float;    (** seconds since the trace origin *)
  mutable dur_s : float;  (** set when the span closes; -1 while open *)
  mutable alloc : alloc;  (** set when the span closes; zero while open *)
  self_counters : int array;  (** indexed by [Trace_sink.counter_index] *)
  mutable rev_children : t list;  (** newest first *)
}

(** [alloc_between before after]: the allocation from one
    [Gc.quick_stat] reading to a later one. *)
val alloc_between : Gc.stat -> Gc.stat -> alloc

val create : name:string -> start_s:float -> t
val add_child : t -> t -> unit

(** Children in creation order. *)
val children : t -> t list

(** Traffic recorded on this span alone (descendants excluded). *)
val self_tally : t -> Comm.tally

(** Inclusive traffic: self plus all descendants. *)
val tally : t -> Comm.tally

(** Inclusive [Context.send] event count. *)
val sends : t -> int

(** Inclusive counters, indexed by [Trace_sink.counter_index]. *)
val counters : t -> int array

(** Inclusive value of one typed counter. *)
val counter : t -> Trace_sink.counter -> int

(** Size of the subtree rooted here (including this span). *)
val n_spans : t -> int

(** Pre-order traversal with depth and slash-separated path. *)
val iter : (depth:int -> path:string -> t -> unit) -> t -> unit
