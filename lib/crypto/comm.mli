(** Communication tallies: immutable readings of the bits each way and
    rounds that protocol steps declare through [Context.send] and
    [Context.bump_rounds]. These are the communication figures the
    benchmarks report. *)

type tally = {
  alice_to_bob_bits : int;
  bob_to_alice_bits : int;
  rounds : int;
}

val empty_tally : tally
val diff : tally -> tally -> tally
val add : tally -> tally -> tally
val total_bits : tally -> int
val total_bytes : tally -> int
val total_megabytes : tally -> float
val equal : tally -> tally -> bool
val pp : Format.formatter -> tally -> unit
