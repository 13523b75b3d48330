(** The [--metrics] export: one sample list built at export time, with
    no store of its own (DESIGN.md §13). Its samples are

    - the ledger's counters as [secyan_<counter>_total] counters
      ({!Secyan_crypto.Trace_sink.counter_name}, help text
      {!Secyan_crypto.Trace_sink.counter_help}) carrying
      {!Secyan_crypto.Context.counter_totals}, work restored from a
      checkpoint included;
    - one [secyan_domain_*{domain="i"}] gauge family per
      {!Secyan_crypto.Domain_pool.timelines} field, when the context
      ever spawned its pool;
    - given the run's span tree, one [secyan_gc_phase_*{phase="..."}]
      gauge family: per phase-marker name
      ({!Secyan_crypto.Protocol_schema.is_phase_marker}), the summed
      [dur_s] and {!Span.alloc} of every span of that name. Time outside
      every phase span is the root's self time, not a gauge. *)

type value = Counter of int | Gauge of float
type sample = { name : string; help : string; value : value }

(** Every sample of [ledger] and [trace], sorted by name. *)
val snapshot : ?trace:Span.t -> ledger:Secyan_crypto.Context.t -> unit -> sample list

type format =
  | Pretty       (** aligned table *)
  | Jsonl        (** one JSON object per sample per line *)
  | Prometheus   (** Prometheus text exposition format *)

(** Render {!snapshot} in [format] (flushes [ppf]). *)
val export :
  ?trace:Span.t -> ledger:Secyan_crypto.Context.t -> format -> Format.formatter -> unit

val export_string : ?trace:Span.t -> ledger:Secyan_crypto.Context.t -> format -> string
