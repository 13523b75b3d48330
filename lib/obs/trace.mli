(** The tracer: records a protocol execution over one {!Context.t} as a
    {!Span.t} tree.

    Attaching installs a recording {!Trace_sink.t} on the context, so
    span entry/exit and every write to the context's ledger — primitive
    counters, [Context.send], [Context.bump_rounds] — is attributed to
    the innermost open span. The tracer draws no randomness and never
    touches the channel: traced and untraced runs produce identical
    protocol transcripts and tallies.

    The recording sink is single-domain: only the domain that attached
    the tracer may touch it. Parallel batches respect this by running
    each item on a private ledger under the no-op sink and folding the
    ledgers into the traced context once per batch from the owning
    domain ([Context.absorb]), so traced parallel runs yield the same
    span tree — traffic, rounds, and counters — as sequential ones. *)

open Secyan_crypto

type t

val create : ?name:string -> unit -> t

(** Attach to a context: install the recording sink.
    @raise Invalid_argument if already attached. *)
val attach : t -> Context.t -> unit

(** Restore the context's no-op sink. No-op if not attached. *)
val detach : t -> unit

(** Detach, close any spans still open, stamp the root duration, and
    return the completed tree. The root's inclusive tally equals exactly
    the communication generated while attached. *)
val finish : t -> Span.t

(** [with_tracing ctx f] traces [f] over [ctx] and returns its result
    with the finished span tree (also on exception, which is re-raised
    after detaching). *)
val with_tracing : ?name:string -> Context.t -> (unit -> 'a) -> 'a * Span.t

(** [with_span ctx name f] opens a span around [f] on whatever tracer is
    attached to [ctx]; free when untraced. Re-export of
    {!Context.with_span} as the one obvious entry point for protocol
    code above the crypto layer. *)
val with_span : Context.t -> string -> (unit -> 'a) -> 'a

(** [measure ctx f] runs [f] and returns [(result, wall_seconds,
    comm_delta)] — the one-stop replacement for hand-rolled
    [Unix.gettimeofday] + [Comm.diff] bracketing. Works with or without
    a tracer attached. *)
val measure : Context.t -> (unit -> 'a) -> 'a * float * Comm.tally
