(** Trace exporters. All three render the same {!Span.t} tree:

    - {!pretty}: aligned human-readable tree for terminals;
    - {!chrome}: Chrome trace-event JSON (complete "X" events) loadable
      in Perfetto or [chrome://tracing];
    - {!jsonl}: one flat JSON object per span per line, keyed by
      slash-separated span path, for machine diffing across runs. *)

(** Aligned text tree: per-span wall time, inclusive traffic per
    direction, rounds, and a column for each counter that fired. *)
val pretty : Format.formatter -> Span.t -> unit

(** Chrome trace-event document: [{"traceEvents": [...]}] with one
    complete ("X") event per span, [ts]/[dur] in microseconds; its
    [args] carry the span's traffic, counters and {!Span.alloc}. *)
val chrome : Span.t -> Json.t

val chrome_string : Span.t -> string

(** One compact JSON object per line per span, pre-order: path, timing,
    {!Span.alloc} fields, traffic and counters. *)
val jsonl : Format.formatter -> Span.t -> unit

val jsonl_string : Span.t -> string
