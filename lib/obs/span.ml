(** One node of a protocol trace: a named interval with the ledger
    deltas — traffic, rounds, sends and primitive counters — that
    occurred while it was the innermost open span ("self" metrics), plus
    its child spans.

    Inclusive ledger metrics (self + all descendants) are derived on
    demand, so recording stays allocation-light: the tracer only mutates
    the integer counter array of the active span. Allocation is the
    other way round: the tracer stamps each span's inclusive
    [Gc.quick_stat] delta when it closes, because a heap counter cannot
    be split between a span and its children after the fact. *)

open Secyan_crypto

type alloc = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
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

let no_alloc =
  { minor_words = 0.; promoted_words = 0.; major_words = 0.; minor_collections = 0;
    major_collections = 0; compactions = 0 }

let alloc_between (a : Gc.stat) (b : Gc.stat) =
  {
    minor_words = b.Gc.minor_words -. a.Gc.minor_words;
    promoted_words = b.Gc.promoted_words -. a.Gc.promoted_words;
    major_words = b.Gc.major_words -. a.Gc.major_words;
    minor_collections = b.Gc.minor_collections - a.Gc.minor_collections;
    major_collections = b.Gc.major_collections - a.Gc.major_collections;
    compactions = b.Gc.compactions - a.Gc.compactions;
  }

let create ~name ~start_s =
  {
    name;
    start_s;
    dur_s = -1.;
    alloc = no_alloc;
    self_counters = Array.make Trace_sink.n_counters 0;
    rev_children = [];
  }

let add_child parent child = parent.rev_children <- child :: parent.rev_children

let children t = List.rev t.rev_children

let self_tally t = Context.tally_of_counters t.self_counters

(** Inclusive counters, indexed by [Trace_sink.counter_index]. *)
let rec counters t =
  let acc = Array.copy t.self_counters in
  List.iter
    (fun child ->
      let cc = counters child in
      Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) cc)
    t.rev_children;
  acc

(** Inclusive value of one typed counter. *)
let counter t c = (counters t).(Trace_sink.counter_index c)

(** Inclusive communication: self plus all descendants. *)
let tally t = Context.tally_of_counters (counters t)

(** Inclusive [Context.send] event count. *)
let sends t = counter t Trace_sink.Sends

let rec n_spans t = List.fold_left (fun acc c -> acc + n_spans c) 1 t.rev_children

(** Pre-order traversal with depth and slash-separated path. Sibling
    spans sharing a name get "#2", "#3", ... suffixes in their path
    segment (the first keeps the plain name), so paths are unique and
    two traces of the same plan can be joined path-by-path. *)
let iter f t =
  let rec go ~depth ~prefix ~segment t =
    let path = if prefix = "" then segment else prefix ^ "/" ^ segment in
    f ~depth ~path t;
    let seen = Hashtbl.create 8 in
    List.iter
      (fun c ->
        let n = try Hashtbl.find seen c.name with Not_found -> 0 in
        Hashtbl.replace seen c.name (n + 1);
        let segment =
          if n = 0 then c.name else Printf.sprintf "%s#%d" c.name (n + 1)
        in
        go ~depth:(depth + 1) ~prefix:path ~segment c)
      (children t)
  in
  go ~depth:0 ~prefix:"" ~segment:t.name t
