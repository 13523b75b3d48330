(** The garbled-circuit baseline of the paper's evaluation (§8.2): one
    circuit enumerating the Cartesian product of the inputs, applying the
    join conditions per row and gating the annotation product — the
    O~(N^k) approach of SMCQL-style engines, rebuilt exactly as the
    authors did for their comparison. *)

open Secyan_crypto

type estimate = {
  product_rows : float;      (** prod |R_i| *)
  and_gates_per_row : int;   (** exact, from the real row circuit *)
  total_and_gates : float;
  comm_bytes : float;        (** 2 kappa bits per AND gate *)
  seconds : float;           (** extrapolated at the calibrated rate *)
}

(** Exact-gate-count cost estimate, the extrapolation the figures plot.
    [seconds_per_and] is the calibrated rate (default 1.2e-6, a fallback
    for when no machine-specific measurement is given). *)
val estimate : ?seconds_per_and:float -> Secyan.Query.t -> estimate

type measurement = {
  rows_run : int;
  total : Secret_share.t;  (** shared sum of all gated row products *)
  tally : Comm.tally;
  wall_seconds : float;
  seconds_per_and : float;
}

(** Actually execute the product circuit over the first [max_rows] rows
    through the GC protocol (validation and calibration). *)
val run_small : Context.t -> Secyan.Query.t -> max_rows:int -> measurement

(** Measure seconds-per-AND of real half-gates garbling on this machine:
    one untimed warm-up run over [rows] product rows, then five timed
    runs. Returns their (min, median, max); callers extrapolate with the
    median. *)
val calibrate : seed:int64 -> Secyan.Query.t -> rows:int -> float * float * float
