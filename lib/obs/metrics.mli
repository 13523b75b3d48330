(** Exporters over the {!Secyan_metrics} registry and a context's
    ledger, plus re-exports of the registry's control surface so
    CLI-level code needs only [Secyan_obs.Metrics]. Metric handles
    themselves are registered via [Secyan_metrics] (see DESIGN.md §13
    for the architecture and naming conventions). *)

val enabled : unit -> bool
val set_enabled : bool -> unit
val reset : unit -> unit

(** Every registered metric, sorted by name. With [ledger], the
    context's ledger counters join them as [secyan_<counter>_total]
    counter samples ({!Secyan_crypto.Trace_sink.counter_name},
    help text {!Secyan_crypto.Trace_sink.counter_help}) carrying
    {!Secyan_crypto.Context.counter_totals} — including work restored
    from a checkpoint. *)
val snapshot : ?ledger:Secyan_crypto.Context.t -> unit -> Secyan_metrics.sample list

type format =
  | Pretty       (** aligned table with histogram count/sum/mean/p50/p90/p99 *)
  | Jsonl        (** one JSON object per metric per line *)
  | Prometheus   (** Prometheus text exposition format *)

(** Bucket-upper-bound estimate of quantile [q] (in [0,1]); [+inf] when
    the quantile falls in the overflow bucket, [0.] on an empty
    histogram. *)
val quantile : Secyan_metrics.histogram_snapshot -> float -> float

val mean : Secyan_metrics.histogram_snapshot -> float

(** One metric as a JSON object (the JSONL line shape). *)
val sample_to_json : Secyan_metrics.sample -> Json.t

(** Render {!snapshot} in [format] (flushes [ppf]). *)
val export : ?ledger:Secyan_crypto.Context.t -> format -> Format.formatter -> unit

val export_string : ?ledger:Secyan_crypto.Context.t -> format -> string
