(** The tracer: records a protocol execution over one {!Context.t} as a
    {!Span.t} tree.

    Attaching installs a recording {!Trace_sink.t} on the context, so
    span entry/exit ({!Context.with_span}, the one way protocol code
    opens a span) and every write to the context's ledger — primitive
    counters, [Context.send], [Context.bump_rounds] — is attributed to
    the innermost open span. Every span, the root included, is stamped on
    closing with its inclusive allocation ({!Span.alloc}): two
    [Gc.quick_stat] reads per span, paid only while traced. The tracer draws no randomness and never
    touches the channel: traced and untraced runs produce identical
    protocol transcripts and tallies.

    The recording sink is single-domain: only the domain that attached
    the tracer may touch it. Parallel batches respect this: batch items
    write nothing to the context, and the batch's cost is booked once
    from the owning domain, so traced parallel runs yield the same span
    tree — traffic, rounds, and counters — as sequential ones. *)

open Secyan_crypto

type t

val create : ?name:string -> unit -> t

(** Attach to a context: install the recording sink.
    @raise Invalid_argument if already attached. *)
val attach : t -> Context.t -> unit

(** Restore the context's no-op sink. No-op if not attached. *)
val detach : t -> unit

(** Detach, close any spans still open, stamp the root's duration and
    allocation, and return the completed tree. The root's inclusive tally equals exactly
    the communication generated while attached. *)
val finish : t -> Span.t

(** [with_tracing ctx f] traces [f] over [ctx] and returns its result
    with the finished span tree (also on exception, which is re-raised
    after detaching). *)
val with_tracing : ?name:string -> Context.t -> (unit -> 'a) -> 'a * Span.t

(** [measure ctx f] runs [f] and returns [(result, wall_seconds,
    comm_delta)] — the one-stop replacement for hand-rolled
    [Unix.gettimeofday] + [Comm.diff] bracketing. Works with or without
    a tracer attached. *)
val measure : Context.t -> (unit -> 'a) -> 'a * float * Comm.tally
