(** The pool-timeline flag: one process-wide atomic switch that turns
    {!Secyan_crypto.Domain_pool}'s per-participant contention timelines
    on. It is off by default, and reading it costs one atomic load, so
    the pool checks it on every claim.

    Nothing else lives here. The [--metrics] export is built at export
    time from the run context's ledger, the pool's timelines and the GC
    sampler's phases ([Secyan_obs.Metrics]). The flag is a library of its
    own because the end-to-end benchmark links it by this name. *)

val enabled : unit -> bool
val set_enabled : bool -> unit
