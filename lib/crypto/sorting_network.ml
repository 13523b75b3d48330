(** Bitonic sorting networks (Batcher).

    A sorting network is a data-independent sequence of compare-exchange
    operations — exactly the shape needed for oblivious sorting, the
    standard building block for extending the protocol beyond free-connex
    queries. [build n] yields the comparator schedule for any n (padded
    internally to a power of two with +infinity sentinels); [apply] runs
    it in the clear, and [comparator_count] drives cost accounting:
    Theta(n log^2 n) comparators.

    The schedule is built directly into preallocated per-pass arrays — it
    sits on the per-query hot path of the oblivious ORDER BY phase, where
    it is walked once per sort (and its passes drive one GC batch each),
    so no cons-list, no [List.rev], no [List.length]. The closed-form
    count [expected_count] cross-checks construction. *)

type comparator = { lo : int; hi : int }
(** compare-exchange: after the gate, position [lo] holds the smaller
    element and [hi] the larger. *)

type t = {
  n : int;           (** logical input count *)
  padded : int;      (** power-of-two network width *)
  passes : comparator array array;
      (** the schedule in execution order, grouped by (k, j) pass:
          comparators within one pass touch pairwise-disjoint wire pairs,
          so a pass can be executed as a single parallel batch *)
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

let log2_exact p =
  let rec go m v = if v <= 1 then m else go (m + 1) (v / 2) in
  go 0 p

(* Closed form for the bitonic schedule over [padded = 2^m] wires:
   m*(m+1)/2 passes of padded/2 comparators each. *)
let expected_count n =
  let padded = next_pow2 (max 2 n) in
  let m = log2_exact padded in
  padded / 2 * (m * (m + 1) / 2)

(** The comparator schedule sorting [n] elements ascending. *)
let build n =
  let padded = next_pow2 (max 2 n) in
  let m = log2_exact padded in
  let n_passes = m * (m + 1) / 2 in
  let per_pass = padded / 2 in
  let passes = Array.make n_passes [||] in
  let pass = ref 0 in
  (* standard iterative bitonic sort over indices 0..padded-1 *)
  let k = ref 2 in
  while !k <= padded do
    let j = ref (!k / 2) in
    while !j >= 1 do
      let comparators = Array.make per_pass { lo = 0; hi = 0 } in
      let next = ref 0 in
      for i = 0 to padded - 1 do
        let partner = i lxor !j in
        if partner > i then begin
          let ascending = i land !k = 0 in
          let lo, hi = if ascending then (i, partner) else (partner, i) in
          comparators.(!next) <- { lo; hi };
          incr next
        end
      done;
      if !next <> per_pass then
        invalid_arg
          (Printf.sprintf "Sorting_network.build: pass %d emitted %d comparators, expected %d"
             !pass !next per_pass);
      passes.(!pass) <- comparators;
      incr pass;
      j := !j / 2
    done;
    k := !k * 2
  done;
  (* cross-check construction against the closed form *)
  if !pass <> n_passes then
    invalid_arg
      (Printf.sprintf "Sorting_network.build: emitted %d passes, expected %d" !pass n_passes);
  { n; padded; passes }

let comparator_count t = Array.fold_left (fun acc pass -> acc + Array.length pass) 0 t.passes

let pass_count t = Array.length t.passes

(** Apply the network in the clear with a custom order; padding positions
    hold +infinity sentinels and are stripped from the output. *)
let apply ?(compare = Stdlib.compare) t (data : 'a array) =
  if Array.length data <> t.n then
    invalid_arg
      (Printf.sprintf "Sorting_network.apply: %d values for a network over %d wires"
         (Array.length data) t.n);
  let work = Array.init t.padded (fun i -> if i < t.n then Some data.(i) else None) in
  let le a b =
    match a, b with
    | Some x, Some y -> compare x y <= 0
    | Some _, None -> true
    | None, Some _ -> false
    | None, None -> true
  in
  Array.iter
    (Array.iter (fun { lo; hi } ->
         if not (le work.(lo) work.(hi)) then begin
           let tmp = work.(lo) in
           work.(lo) <- work.(hi);
           work.(hi) <- tmp
         end))
    t.passes;
  Array.init t.n (fun i ->
      match work.(i) with
      | Some v -> v
      | None -> invalid_arg "Sorting_network.apply: sentinel surfaced early")
