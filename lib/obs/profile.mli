(** A per-phase GC sampler driven by the span stream. [--metrics]
    renders its samples as [secyan_gc_phase_*] gauges ({!Metrics}). See
    DESIGN.md §13. *)

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

type gc_sampler

(** Start sampling GC activity per protocol phase on [ctx], by wrapping
    its sink and cutting a delta whenever a phase-marker span
    ({!Protocol_schema.is_phase_marker}) opens. Work before the first
    phase is attributed to ["setup"].
    Attach {e after} any tracer; detach in reverse order. *)
val attach_gc_sampler : Context.t -> gc_sampler

(** Restore the wrapped sink, close the open phase (as ["done"]), and
    return the samples in execution order. Idempotent. *)
val detach_gc_sampler : gc_sampler -> gc_phase list
