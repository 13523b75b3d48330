(** A per-phase GC sampler driven by the span stream; [--metrics]
    renders its samples as gauges ({!Metrics}).

    The sampler works by wrapping the context's {!Trace_sink.t}: every
    time a phase-marker span opens ({!Protocol_schema.is_phase_marker}:
    [phase:*] or [reveal]), it cuts a [Gc.quick_stat] delta
    and attributes it to the phase that just ended. Wrapping composes
    with an attached tracer (events are forwarded) and works equally on
    an untraced context. *)

open Secyan_crypto

(* --- GC sampler ------------------------------------------------------ *)

type gc_phase = {
  phase : string;
  seconds : float;
  minor_words : float;        (** words allocated in the minor heap *)
  promoted_words : float;
  major_words : float;        (** words allocated directly in the major heap *)
  minor_collections : int;
  major_collections : int;
  compactions : int;
}

type gc_sampler = {
  ctx : Context.t;
  prev_sink : Trace_sink.t;
  mutable last_stat : Gc.stat;
  mutable last_time : float;
  mutable current : string;
  mutable rev_phases : gc_phase list;
  mutable detached : bool;
}

let cut s next_phase =
  let now_stat = Gc.quick_stat () in
  let now_time = Unix.gettimeofday () in
  let last = s.last_stat in
  s.rev_phases <-
    {
      phase = s.current;
      seconds = now_time -. s.last_time;
      minor_words = now_stat.Gc.minor_words -. last.Gc.minor_words;
      promoted_words = now_stat.Gc.promoted_words -. last.Gc.promoted_words;
      major_words = now_stat.Gc.major_words -. last.Gc.major_words;
      minor_collections = now_stat.Gc.minor_collections - last.Gc.minor_collections;
      major_collections = now_stat.Gc.major_collections - last.Gc.major_collections;
      compactions = now_stat.Gc.compactions - last.Gc.compactions;
    }
    :: s.rev_phases;
  s.last_stat <- now_stat;
  s.last_time <- now_time;
  s.current <- next_phase

(** Start sampling on [ctx]. Work before the first phase span is
    attributed to ["setup"]. The sampler wraps whatever sink is attached
    (forwarding every event), so attach it {e after} a tracer. *)
let attach_gc_sampler ctx =
  let prev = ctx.Context.sink in
  let s =
    {
      ctx;
      prev_sink = prev;
      last_stat = Gc.quick_stat ();
      last_time = Unix.gettimeofday ();
      current = "setup";
      rev_phases = [];
      detached = false;
    }
  in
  Context.set_sink ctx
    {
      Trace_sink.enter =
        (fun name ->
          if Protocol_schema.is_phase_marker name then cut s name;
          prev.Trace_sink.enter name);
      exit = prev.Trace_sink.exit;
      bump = prev.Trace_sink.bump;
    };
  s

(** Stop sampling: restore the wrapped sink, close the open phase, and
    return the samples in execution order. Idempotent. *)
let detach_gc_sampler s =
  if not s.detached then begin
    s.detached <- true;
    cut s "done";
    Context.set_sink s.ctx s.prev_sink
  end;
  List.rev s.rev_phases
