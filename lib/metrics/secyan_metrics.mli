(** An inert switch kept only because the frozen end-to-end benchmark
    ([e2ebench/main.ml]) links this library and calls {!set_enabled}.
    Nothing reads it: {!Secyan_crypto.Domain_pool} keeps its timelines
    unconditionally, and the CLI's run report reads the run context's
    ledger and the pool's timelines directly. Deleting this library and the
    benchmark's two calls is ROADMAP item 11. *)

(** Does nothing. *)
val set_enabled : bool -> unit
