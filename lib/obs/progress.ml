(** Live progress reporter: a sink wrapper that watches [And_gates]
    bumps and phase-marker span openings
    ({!Protocol_schema.is_phase_marker}), renders a single refreshing
    status line on stderr, and optionally appends machine-readable JSONL
    heartbeats. The gate total comes from
    {!Secyan.Secure_yannakakis.estimate_and_gates} (a cost-model
    estimate, so the percentage is approximate and clamped at 99% until
    the run actually finishes).

    It is the one live sink wrapper: it composes by wrapping whatever
    sink is attached (the tracer, when there is one) and forwarding every
    event; attach after a tracer, detach in reverse order. Everything
    read after the run — per-span time, traffic, allocation, phase
    gauges — comes from the tracer's span tree instead. Bumps reach the wrapped sink on the
    caller's domain only (parallel batches merge worker counters before
    bumping), so rendering needs no synchronization. *)

open Secyan_crypto

type t = {
  ctx : Context.t;
  prev_sink : Trace_sink.t;
  total : int option;  (** estimated total AND gates, when known *)
  render : bool;
  heartbeat : out_channel option;
  started : float;
  mutable done_gates : int;
  mutable phase : string;
  mutable last_tick : float;
  mutable line_open : bool;  (** a [\r]-refreshed line is on stderr *)
  mutable detached : bool;
}

let fraction t =
  match t.total with
  | Some total when total > 0 ->
      (* The total is an estimate: never claim completion early. *)
      Some (Float.min 0.99 (float_of_int t.done_gates /. float_of_int total))
  | _ -> None

let eta t ~elapsed =
  match fraction t with
  | Some f when f > 0.01 && elapsed > 0.05 -> Some ((elapsed /. f) -. elapsed)
  | _ -> None

let render_line t ~final =
  let elapsed = Unix.gettimeofday () -. t.started in
  let progress =
    match fraction t with
    | Some f -> Printf.sprintf "%5.1f%% (%d/%d gates)" (100. *. f) t.done_gates
                  (Option.get t.total)
    | None -> Printf.sprintf "%d gates" t.done_gates
  in
  let eta_s =
    match eta t ~elapsed with
    | Some e when not final -> Printf.sprintf "  eta %5.1fs" e
    | _ -> ""
  in
  (* Pad so a shorter line fully overwrites a longer previous one. *)
  let line =
    Printf.sprintf "[secyan] %-14s %s  elapsed %6.1fs%s" t.phase progress elapsed eta_s
  in
  Printf.eprintf "\r%-78s%!" line;
  t.line_open <- true;
  if final then begin
    Printf.eprintf "\n%!";
    t.line_open <- false
  end

let heartbeat_line t oc =
  let elapsed = Unix.gettimeofday () -. t.started in
  let fields =
    [ ("elapsed_s", Json.Float elapsed);
      ("phase", Json.Str t.phase);
      ("and_gates", Json.Int t.done_gates) ]
    @ (match t.total with
      | Some total -> [ ("estimated_total", Json.Int total) ]
      | None -> [])
    @ (match fraction t with
      | Some f -> [ ("pct", Json.Float (100. *. f)) ]
      | None -> [])
    @
    match eta t ~elapsed with
    | Some e -> [ ("eta_s", Json.Float e) ]
    | None -> []
  in
  output_string oc (Json.to_string (Json.Obj fields));
  output_char oc '\n';
  flush oc

(* Seconds between unforced refreshes. *)
let interval = 0.2

let tick t ~force =
  let now = Unix.gettimeofday () in
  if force || now -. t.last_tick >= interval then begin
    t.last_tick <- now;
    if t.render then render_line t ~final:false;
    Option.iter (heartbeat_line t) t.heartbeat
  end

(** Start reporting on [ctx]. [total] is the estimated AND-gate total
    (omit for a gate counter without percentage/ETA); [render] controls
    the stderr line; [heartbeat] receives one JSONL object per refresh. *)
let attach ?total ?(render = true) ?heartbeat ctx =
  let prev = ctx.Context.sink in
  let t =
    {
      ctx;
      prev_sink = prev;
      total;
      render;
      heartbeat;
      started = Unix.gettimeofday ();
      done_gates = 0;
      phase = "setup";
      last_tick = 0.;
      line_open = false;
      detached = false;
    }
  in
  Context.set_sink ctx
    {
      Trace_sink.enter =
        (fun name ->
          if Protocol_schema.is_phase_marker name then begin
            t.phase <- name;
            tick t ~force:true
          end;
          prev.Trace_sink.enter name);
      exit = prev.Trace_sink.exit;
      bump =
        (fun c n ->
          if c = Trace_sink.And_gates then begin
            t.done_gates <- t.done_gates + n;
            tick t ~force:false
          end;
          prev.Trace_sink.bump c n);
    };
  t

(** Restore the wrapped sink and print the final status (with a newline,
    so subsequent output starts clean). Idempotent. *)
let detach t =
  if not t.detached then begin
    t.detached <- true;
    t.phase <- "done";
    if t.render then render_line t ~final:true
    else if t.line_open then Printf.eprintf "\n%!";
    Option.iter (heartbeat_line t) t.heartbeat;
    Context.set_sink t.ctx t.prev_sink
  end

let and_gates t = t.done_gates
