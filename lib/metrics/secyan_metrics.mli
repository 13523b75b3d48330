(** An inert switch kept only because the frozen end-to-end benchmark
    ([e2ebench/main.ml]) links this library and calls {!set_enabled}.
    Nothing reads it: {!Secyan_crypto.Domain_pool} keeps its timelines
    unconditionally, and the [--metrics] export is built at export time
    from the run context's ledger, the pool's timelines and the run's
    span tree ([Secyan_obs.Metrics]). Deleting this library and the
    benchmark's two calls is ROADMAP item 11. *)

(** Does nothing. *)
val set_enabled : bool -> unit
