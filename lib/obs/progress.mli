(** Live progress reporter: watches [And_gates] bumps and phase spans
    via a sink wrapper, renders a refreshing status line on stderr, and
    optionally appends JSONL heartbeats
    ([{"elapsed_s":..,"phase":..,"and_gates":..,"estimated_total":..,
    "pct":..,"eta_s":..}]). See DESIGN.md §13. *)

open Secyan_crypto

type t

(** Start reporting on [ctx]. [total] is the estimated AND-gate total
    from [Secure_yannakakis.estimate_and_gates] (omit for a plain gate
    counter without percentage/ETA); refreshes are throttled to one per
    0.2 s, plus one at every phase boundary; [render] controls the
    stderr line (default true); [heartbeat] receives one JSONL object per
    refresh. Attach
    after a tracer; detach in reverse order. *)
val attach :
  ?total:int ->
  ?render:bool ->
  ?heartbeat:out_channel ->
  Context.t ->
  t

(** Restore the wrapped sink and print the final status line (newline
    terminated). Emits a final heartbeat. Idempotent. *)
val detach : t -> unit

(** AND gates observed so far. *)
val and_gates : t -> int
