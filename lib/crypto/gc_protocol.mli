(** The two-party garbled-circuit protocol (paper §5.2): evaluate a
    word-level computation over private and secret-shared inputs, with
    outputs either freshly arithmetic-shared or revealed to one party.

    The batch entry points implement the paper's "one garbled circuit per
    tuple" pattern — the circuit is built once from the first item's shape
    and reused (garbled afresh per item under the [Real] backend; a whole
    batch costs a constant number of rounds). The [Sim] backend evaluates
    in the clear inside the runtime with bit-identical cost accounting
    (asserted by the test suite). *)

type input =
  | Priv of { owner : Party.t; value : int64; bits : int }
      (** a private value of [owner], entering the circuit as [bits] wires *)
  | Shared of Secret_share.t
      (** an arithmetically shared ring element; the circuit sees its
          reconstruction (an adder front-end is prepended) *)

(** The inputs of a nonzero test of [s] that skips reconstruction:
    Alice's share and the negation of Bob's, [ring_bits] wires each (the
    widths and owners of [Shared s]). *)
val nonzero_inputs : Context.t -> Secret_share.t -> input list

(** [nonzero_test b x_a neg_x_b] over the two words of {!nonzero_inputs}:
    1 iff the shared value is nonzero, since x_A + x_B <> 0 exactly when
    x_A <> -x_B mod 2^l. One equality test, l-1 AND gates, where
    reconstructing first would add an l-bit adder. *)
val nonzero_test :
  Boolean_circuit.Builder.b -> Circuits.word -> Circuits.word -> Boolean_circuit.Builder.value

(** The circuit that a batch over items shaped like [inputs] evaluates
    (only the shape of [inputs] matters, not the values). *)
val circuit :
  Context.t ->
  inputs:input list ->
  build:(Boolean_circuit.Builder.b -> Circuits.word array -> Circuits.word list) ->
  Boolean_circuit.t

(** Why a batch failed (DESIGN.md §15). *)
type supervision_cause =
  | Batch_item_raised of { message : string }
      (** an item raised; the batch was abort-failed fail-fast *)
  | Batch_worker_hung of { slot : int; silent_s : float }
      (** a pool worker went silent mid-item; the pool is poisoned (later
          batches run sequentially). Item state is fresh per batch, so
          the abandoned worker can write only into its own dead batch *)
  | Batch_shutdown of { unclaimed : int }
      (** the pool was shut down mid-batch *)

val supervision_cause_to_string : supervision_cause -> string

(** A batch failed. [phase] is the protocol span the batch ran under
    (e.g. ["gc:shares"]); [item] the faulting global batch item ([-1]
    when no single item is at fault). Hangs are detected only when the
    context was created with a hang timeout; cancellation raises
    [Secyan_deadline.Cancelled] instead, never this. The context stays
    usable: a subsequent query on it runs correctly (sequentially, if
    the pool was poisoned). *)
exception
  Supervision_error of { phase : string; item : int; cause : supervision_cause }

(** Evaluate the same circuit over a batch of same-shaped input lists;
    every output word of every item becomes a fresh arithmetic share. *)
val eval_to_shares_batch :
  Context.t ->
  items:input list array ->
  build:(Boolean_circuit.Builder.b -> Circuits.word array -> Circuits.word list) ->
  Secret_share.t array array

(** Single-item variant of {!eval_to_shares_batch}. *)
val eval_to_shares :
  Context.t ->
  inputs:input list ->
  build:(Boolean_circuit.Builder.b -> Circuits.word array -> Circuits.word list) ->
  Secret_share.t array

(** Evaluate a batch and reveal every output word of every item to [to_]
    only. *)
val eval_reveal_batch :
  Context.t ->
  to_:Party.t ->
  items:input list array ->
  build:(Boolean_circuit.Builder.b -> Circuits.word array -> Circuits.word list) ->
  int64 array array

(** Single-item variant of {!eval_reveal_batch}. *)
val eval_reveal :
  Context.t ->
  to_:Party.t ->
  inputs:input list ->
  build:(Boolean_circuit.Builder.b -> Circuits.word array -> Circuits.word list) ->
  int64 array
