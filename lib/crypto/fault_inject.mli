(** In-process fault injection for the batch engine: deterministic
    worker-raise / worker-hang / alloc-pressure faults keyed by global
    batch-item index — the compute-side sibling of the wire chaos
    harness. Armed via the CLI's [--fault] or directly in tests; the
    injection point is [Gc_protocol.map_batch]'s per-item wrapper, so
    faults exercise the production supervision paths. Disarmed, {!fire}
    costs one branch. *)

type fault =
  | Raise  (** the item raises {!Injected} *)
  | Hang of float  (** the item blocks this many seconds first *)
  | Alloc of int  (** the item allocates and holds live this many MiB *)

(** Raised inside a faulted item by a [Raise] fault. *)
exception Injected of { item : int }

(** Faults keyed by global item index (batches reserve contiguous index
    ranges in submission order, so ids are deterministic per query). *)
type spec = (int * fault) list

val fault_to_string : fault -> string

(** Parse ["raise:ITEM,hang:ITEM:SECS,alloc:ITEM:MIB"] in the grammar of
    {!Secyan_net.Chaos.parse_entries}; the empty spec is an error. *)
val parse_spec : string -> (spec, string) result

(** Arm [spec] for the next run: resets the global item counter, drops
    any held alloc ballast, clears the fired log. Not thread-safe —
    call between queries, never mid-batch. *)
val arm : spec -> unit

(** Disarm and release alloc ballast. Idempotent. *)
val disarm : unit -> unit

val armed : unit -> bool

(** Faults that actually fired, in firing order. *)
val fired : unit -> (int * fault) list

(** Reserve [n] consecutive global item ids for a batch; returns the
    base id. Constant 0 (and counter untouched) while disarmed. *)
val batch_base : int -> int

(** Trigger the fault armed for global item [item], if any: called by
    the batch engine on the claiming domain just before the item runs. *)
val fire : int -> unit
