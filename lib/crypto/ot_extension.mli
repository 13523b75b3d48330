(** IKNP OT extension: kappa dealer-provided base OTs turned into m >>
    kappa fast OTs via the receiver's random bit matrix, reversed base OTs
    on its columns, transposition, and correlation-robust row hashing.
    The matrix mechanics are real protocol code (see the test suite);
    only the base OTs come from the dealer model. *)

(** 128-bit message block (wire-label width). *)
type block = int64 * int64

(** [extend ctx ~sender ~messages ~choices] delivers, per index, the
    chosen one of the sender's message pair to the receiver.

    @raise Invalid_argument on length mismatch. *)
val extend :
  Context.t ->
  sender:Party.t ->
  messages:(block * block) array ->
  choices:bool array ->
  block array
