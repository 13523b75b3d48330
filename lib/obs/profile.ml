(** Contention/GC profiling glue above the raw registry: a per-phase GC
    sampler driven by the span stream, and publishers that turn
    {!Secyan_crypto.Domain_pool} timelines and GC phase samples into
    labelled registry gauges (so one [--metrics] export carries them).

    The GC sampler works by wrapping the context's {!Trace_sink.t}: every
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

(* --- registry publishing --------------------------------------------- *)

let labelled_gauge ~help name labels =
  Secyan_metrics.gauge ~help (Printf.sprintf "%s{%s}" name labels)

(** Publish one pool's per-domain timelines as labelled gauges
    ([secyan_domain_busy_seconds{domain="0"}], ...). Call after the runs
    of interest; gauges overwrite on re-publish. *)
let publish_pool_timelines pool =
  List.iter
    (fun (tl : Domain_pool.timeline_snapshot) ->
      let l = Printf.sprintf "domain=\"%d\"" tl.Domain_pool.domain in
      let g name help v = Secyan_metrics.set (labelled_gauge ~help name l) v in
      g "secyan_domain_busy_seconds" "seconds spent running batch items"
        (tl.Domain_pool.busy_ns *. 1e-9);
      g "secyan_domain_queue_wait_seconds" "seconds parked or waiting on the batch barrier"
        (tl.Domain_pool.queue_wait_ns *. 1e-9);
      g "secyan_domain_lock_wait_seconds" "seconds acquiring the pool mutex"
        (tl.Domain_pool.lock_wait_ns *. 1e-9);
      g "secyan_domain_wall_seconds" "participant wall-clock (see Domain_pool.timelines)"
        (tl.Domain_pool.wall_ns *. 1e-9);
      g "secyan_domain_batches" "batches this participant claimed items of"
        (float_of_int tl.Domain_pool.batches);
      g "secyan_domain_items" "batch items this participant ran"
        (float_of_int tl.Domain_pool.items);
      g "secyan_domain_wakeups" "condition-variable wakeups"
        (float_of_int tl.Domain_pool.wakeups))
    (Domain_pool.timelines pool)

(** Publish GC phase samples as labelled gauges
    ([secyan_gc_phase_minor_words{phase="phase:reduce"}], ...). *)
let publish_gc_phases phases =
  List.iter
    (fun p ->
      let l = Printf.sprintf "phase=%S" p.phase in
      let g name help v = Secyan_metrics.set (labelled_gauge ~help name l) v in
      g "secyan_gc_phase_seconds" "wall-clock seconds of the phase" p.seconds;
      g "secyan_gc_phase_minor_words" "minor-heap words allocated during the phase"
        p.minor_words;
      g "secyan_gc_phase_promoted_words" "words promoted during the phase" p.promoted_words;
      g "secyan_gc_phase_major_words" "major-heap words allocated during the phase"
        p.major_words;
      g "secyan_gc_phase_minor_collections" "minor collections during the phase"
        (float_of_int p.minor_collections);
      g "secyan_gc_phase_major_collections" "major collections during the phase"
        (float_of_int p.major_collections);
      g "secyan_gc_phase_compactions" "heap compactions during the phase"
        (float_of_int p.compactions))
    phases
