(** The metrics registry: monotonic counters, gauges, and fixed-bucket
    histograms, recordable from any domain.

    This library sits at the very bottom of the dependency chain (below
    [secyan_net] and [secyan_crypto]) so the hot paths — the domain pool,
    the garbler, the transport — can record into it; the exporters and
    everything user-facing live above, in [Secyan_obs.Metrics].

    Recording is {e disabled by default} and gated on one atomic flag:
    a disabled [observe]/[add] is a single [Atomic.get] and a branch, no
    allocation, no locking. Enabled recording writes to per-domain atomic
    cells (striped by [Domain.self]), so domains never contend on a cell
    under typical pool sizes; readers merge the stripes on demand. Merges
    are integer sums, so a merged histogram is bit-identical to the
    histogram a single-domain run of the same workload produces,
    regardless of how items were scheduled. *)

(** {1 Global enable flag} *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Metric handles}

    Handles are interned by name: registering the same name twice returns
    the same handle (and raises [Invalid_argument] if the kinds clash).
    Registration takes a lock; keep handles in [let]-bound (or lazy)
    top-level values and only pay the atomic writes on the hot path. *)

type counter
type gauge
type histogram

(** [counter ~help name] interns a monotonic counter. *)
val counter : help:string -> string -> counter

(** [add c n] adds [n] (>= 0) to the counter when metrics are enabled. *)
val add : counter -> int -> unit

(** [gauge ~help name] interns a last-value-wins gauge. *)
val gauge : help:string -> string -> gauge

(** [set g v] stores [v] when metrics are enabled (last writer wins). *)
val set : gauge -> float -> unit

(** [histogram ~help name] interns a fixed-bucket histogram whose upper
    bounds are the powers of two from 2^-20 to 2^30 (plus an implicit
    +Inf bucket), which covers microseconds-to-minutes latencies, item
    counts, and byte sizes alike. *)
val histogram : help:string -> string -> histogram

(** [lazily register] defers [register] (a [counter], [gauge] or
    [histogram] call) to its first use, like [lazy], but may be forced
    from several domains at once: [Lazy.force] raises
    [CamlinternalLazy.Undefined] when two domains race on one suspension.
    Metrics intern by name, so a race registers once and every caller
    gets the same handle. *)
val lazily : (unit -> 'a) -> unit -> 'a

(** [observe h v] records one observation when metrics are enabled. *)
val observe : histogram -> float -> unit

(** {1 Reading} *)

type histogram_snapshot = {
  upper : float array;   (** bucket upper bounds, ascending *)
  counts : int array;    (** per-bucket counts; [length upper + 1], the
                             last being the +Inf overflow bucket *)
  count : int;           (** total observations *)
  sum : float;           (** sum of observed values *)
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_snapshot

type sample = { name : string; help : string; value : value }

(** Every registered metric, merged across domain stripes, sorted by
    name. Safe to call while other domains record. *)
val snapshot : unit -> sample list

(** The merged snapshot of one histogram handle. *)
val histogram_snapshot : histogram -> histogram_snapshot

(** Zero every cell of every registered metric (handles stay interned).
    Call it only while no other domain is recording. *)
val reset : unit -> unit
