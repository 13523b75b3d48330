(** The tracer: maintains a stack of open spans over one {!Context.t} and
    turns a protocol execution into a {!Span.t} tree.

    Attachment installs a {!Trace_sink.t} on the context, so
    [Context.with_span] and every write to the context's ledger — primitive
    counters, [Context.send], [Context.bump_rounds] — reach the tracer and
    are attributed to the active span in real time. Each span also reads
    [Gc.quick_stat] when it opens and when it closes, and keeps the delta
    as its inclusive allocation. Detaching restores the no-op sink,
    returning the context to its zero-overhead untraced state. The tracer
    draws no randomness and never touches the channel, so traced and
    untraced runs produce identical transcripts. *)

open Secyan_crypto

type t = {
  root : Span.t;
  root_stat : Gc.stat;          (** [Gc.quick_stat] at [create] *)
  mutable stack : (Span.t * Gc.stat) list;
      (** open spans with their opening [Gc.quick_stat], innermost first
          (root excluded) *)
  origin : float;               (** Unix time of [create] *)
  mutable attached_to : Context.t option;
}

let now t = Unix.gettimeofday () -. t.origin

let create ?(name = "trace") () =
  { root = Span.create ~name ~start_s:0.; root_stat = Gc.quick_stat (); stack = [];
    origin = Unix.gettimeofday (); attached_to = None }

(** The innermost open span (the root when none is open). *)
let active t = match t.stack with (span, _) :: _ -> span | [] -> t.root

let enter t name =
  let span = Span.create ~name ~start_s:(now t) in
  Span.add_child (active t) span;
  t.stack <- (span, Gc.quick_stat ()) :: t.stack

(* Unmatched exits are ignored rather than raised: a sink must never turn
   an otherwise-correct protocol run into a crash. *)
let exit_span t =
  match t.stack with
  | [] -> ()
  | (span, stat) :: rest ->
      span.Span.dur_s <- now t -. span.Span.start_s;
      span.Span.alloc <- Span.alloc_between stat (Gc.quick_stat ());
      t.stack <- rest

let sink t : Trace_sink.t =
  {
    Trace_sink.enter = enter t;
    exit = (fun () -> exit_span t);
    bump =
      (fun counter n ->
        let span = active t in
        let i = Trace_sink.counter_index counter in
        span.Span.self_counters.(i) <- span.Span.self_counters.(i) + n);
  }

(** Attach the tracer to [ctx] by installing the recording sink. A
    tracer observes one context at a time.
    @raise Invalid_argument if this tracer is already attached. *)
let attach t ctx =
  (match t.attached_to with
  | Some _ -> invalid_arg "Trace.attach: tracer already attached"
  | None -> ());
  t.attached_to <- Some ctx;
  Context.set_sink ctx (sink t)

(** Restore the context's no-op sink. *)
let detach t =
  match t.attached_to with
  | None -> ()
  | Some ctx ->
      Context.set_sink ctx Trace_sink.noop;
      t.attached_to <- None

(** Detach, close any spans left open, stamp the root's duration and
    allocation, and return the completed span tree. *)
let finish t =
  detach t;
  while t.stack <> [] do
    exit_span t
  done;
  t.root.Span.dur_s <- now t;
  t.root.Span.alloc <- Span.alloc_between t.root_stat (Gc.quick_stat ());
  t.root

(** Trace [f]: create a tracer named [name], attach it to [ctx] for the
    duration of [f], and return [f]'s result with the finished span tree.
    The root tally equals exactly the communication [f] generated. *)
let with_tracing ?name ctx f =
  let t = create ?name () in
  attach t ctx;
  match f () with
  | r -> (r, finish t)
  | exception e ->
      ignore (finish t : Span.t);
      raise e

(** Run [f] and return its result together with its wall-clock seconds
    and the communication it generated — the one-stop replacement for
    hand-rolled [Unix.gettimeofday] + [Comm.diff] bracketing. *)
let measure ctx f =
  let t0 = Unix.gettimeofday () in
  let before = Context.tally ctx in
  let result = f () in
  (result, Unix.gettimeofday () -. t0, Comm.diff (Context.tally ctx) before)
