(** Communication tallies of the simulated two-party channel.

    Both parties live in one process, so "sending" a message is an
    accounting event: the protocol code declares every transfer with its
    exact bit count and direction, and declares round boundaries, through
    [Context.send] / [Context.bump_rounds], which keep the running totals
    in the context's counter ledger. A [tally] is an immutable reading of
    those totals. The evaluation of the paper reports communication volume
    and notes that the number of rounds depends only on the query, so
    these are the observables our benchmarks reproduce. *)

type tally = {
  alice_to_bob_bits : int;
  bob_to_alice_bits : int;
  rounds : int;
}

let empty_tally = { alice_to_bob_bits = 0; bob_to_alice_bits = 0; rounds = 0 }

let diff later earlier = {
  alice_to_bob_bits = later.alice_to_bob_bits - earlier.alice_to_bob_bits;
  bob_to_alice_bits = later.bob_to_alice_bits - earlier.bob_to_alice_bits;
  rounds = later.rounds - earlier.rounds;
}

let add t1 t2 = {
  alice_to_bob_bits = t1.alice_to_bob_bits + t2.alice_to_bob_bits;
  bob_to_alice_bits = t1.bob_to_alice_bits + t2.bob_to_alice_bits;
  rounds = t1.rounds + t2.rounds;
}

let total_bits tally = tally.alice_to_bob_bits + tally.bob_to_alice_bits
let total_bytes tally = (total_bits tally + 7) / 8
let total_megabytes tally = float_of_int (total_bytes tally) /. (1024. *. 1024.)

let equal t1 t2 =
  t1.alice_to_bob_bits = t2.alice_to_bob_bits
  && t1.bob_to_alice_bits = t2.bob_to_alice_bits
  && t1.rounds = t2.rounds

let pp fmt t =
  Fmt.pf fmt "A->B %d bits, B->A %d bits, %d rounds" t.alice_to_bob_bits t.bob_to_alice_bits
    t.rounds
