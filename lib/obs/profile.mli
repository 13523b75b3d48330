(** Contention/GC profiling glue above the raw registry: a per-phase GC
    sampler driven by the span stream, and publishers that turn
    {!Secyan_crypto.Domain_pool} timelines and GC samples into labelled
    registry gauges. See DESIGN.md §13. *)

open Secyan_crypto

(** [Gc.quick_stat] deltas attributed to one protocol phase. *)
type gc_phase = {
  phase : string;
  seconds : float;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
}

(** Whether a span name marks a protocol phase boundary ([phase:*] or
    [reveal] — the names {!Secyan.Secure_yannakakis} emits). *)
val is_phase_name : string -> bool

type gc_sampler

(** Start sampling GC activity per protocol phase on [ctx], by wrapping
    its sink and cutting a delta whenever a [phase:*] or [reveal] span
    opens. Work before the first phase is attributed to ["setup"].
    Attach {e after} any tracer; detach in reverse order. *)
val attach_gc_sampler : Context.t -> gc_sampler

(** Restore the wrapped sink, close the open phase (as ["done"]), and
    return the samples in execution order. Idempotent. *)
val detach_gc_sampler : gc_sampler -> gc_phase list

(** Publish per-domain pool timelines as labelled gauges
    ([secyan_domain_busy_seconds{domain="0"}], ...). [labels] appends
    extra Prometheus labels (e.g. [{|pool="4"|}]). *)
val publish_pool_timelines : ?labels:string -> Domain_pool.t -> unit

(** Publish GC phase samples as labelled gauges
    ([secyan_gc_phase_minor_words{phase="phase:reduce"}], ...). *)
val publish_gc_phases : gc_phase list -> unit
