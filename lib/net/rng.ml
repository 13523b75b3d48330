(** Minimal splitmix64 generator. The net library sits below the crypto
    library, so it carries its own tiny deterministic source for schedule
    layout, corruption positions, and backoff jitter — none of which may
    touch (or depend on) the protocol's randomness. [Prg.create] seeds
    xoshiro256** from a stream of its own, so this is the code base's one
    splitmix64. *)

type t = { mutable state : int64 }

let create seed = { state = seed }

let next t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** Uniform draw in [\[0, bound)]; [bound] must be positive. Rejection
    sampling over the top 63 bits (mirroring [Prg.below]): the final
    partial block of the 63-bit range is rejected, so chaos-schedule
    positions and backoff jitter are exactly uniform instead of carrying
    the [Int64.rem] modulo bias of earlier revisions. *)
let below t bound =
  if bound <= 0 then
    invalid_arg (Printf.sprintf "Rng.below: bound = %d, expected a positive integer" bound);
  let bound64 = Int64.of_int bound in
  let rec loop () =
    let r = Int64.shift_right_logical (next t) 1 in
    let v = Int64.rem r bound64 in
    if Int64.sub r v > Int64.sub (Int64.sub Int64.max_int bound64) 1L then loop ()
    else Int64.to_int v
  in
  loop ()
