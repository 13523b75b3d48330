(** The [--metrics] export: one sample list built at export time, with
    no store of its own (DESIGN.md §13). Its samples are

    - the ledger's counters as [secyan_<counter>_total] counters
      ({!Secyan_crypto.Trace_sink.counter_name}, help text
      {!Secyan_crypto.Trace_sink.counter_help}) carrying
      {!Secyan_crypto.Context.counter_totals}, work restored from a
      checkpoint included;
    - one [secyan_domain_*{domain="i"}] gauge family per
      {!Secyan_crypto.Domain_pool.timelines} field, when the context
      ever spawned its pool (they hold time only while
      [Secyan_metrics.enabled]);
    - one [secyan_gc_phase_*{phase="..."}] gauge family per
      {!Profile.gc_phase} field, the last occurrence of each phase. *)

type value = Counter of int | Gauge of float
type sample = { name : string; help : string; value : value }

(** Every sample of [ledger] and [gc_phases], sorted by name. *)
val snapshot : ledger:Secyan_crypto.Context.t -> gc_phases:Profile.gc_phase list -> sample list

type format =
  | Pretty       (** aligned table *)
  | Jsonl        (** one JSON object per sample per line *)
  | Prometheus   (** Prometheus text exposition format *)

(** Render {!snapshot} in [format] (flushes [ppf]). *)
val export :
  ledger:Secyan_crypto.Context.t ->
  gc_phases:Profile.gc_phase list ->
  format ->
  Format.formatter ->
  unit

val export_string :
  ledger:Secyan_crypto.Context.t -> gc_phases:Profile.gc_phase list -> format -> string
