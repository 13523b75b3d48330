(** Oblivious projection-aggregation (paper §6.1).

    The owner sorts the relation on the group-by attributes and an OEP
    aligns the annotation shares with the sorted order. The owner knows
    the run boundaries (equal keys) in the clear; the aggregate of each
    run then lands on the run's last position:

    - [Ring] is a segmented sum in arithmetic shares (DESIGN.md §2
      item 11). Each party takes local prefix sums of its aligned shares,
      and one extended OEP programmed by the owner routes to every
      position the prefix at the last run end at or before it. One local
      subtraction per position leaves each run's sum at its last position
      and a fresh sharing of zero everywhere else.
    - The boolean and tropical semirings garble the paper's N-1 "merge
      gates" ([merge_chain]): within a run of equal keys the circuit
      accumulates, and at each run boundary it emits the aggregate and
      resets.

    The owner then builds the output relation: the last tuple of each
    run carries the run's (shared) aggregate; every other position
    becomes a dummy with a shared zero — so the output has exactly N
    tuples and is semantically equivalent to pi^plus_F(R) without leaking
    group sizes.

    pi^1 (project-nonzero) garbles per-tuple nonzero indicators through
    OR-merge gates ([nonzero_chain]) for every semiring. *)

open Secyan_crypto
open Secyan_relational

(* Sort the relation, realign annotation shares via OEP, and return the
   equal-next indicators that mark the runs (known to the owner). *)
let prepare ctx (sr : Shared_relation.t) ~attrs =
  let sorted, perm = Relation.sort_by attrs sr.Shared_relation.rel in
  let n = Relation.cardinality sorted in
  let aligned =
    if n = 0 then [||]
    else Oep.permute_shared ctx ~holder:sr.Shared_relation.owner ~xi:perm ~m:n
        sr.Shared_relation.annots
  in
  let key i =
    let t = sorted.Relation.tuples.(i) in
    if Tuple.is_dummy t then None else Some (Tuple.repr (Tuple.project sorted.Relation.schema attrs t))
  in
  let equal_next =
    Array.init (max 0 (n - 1)) (fun i ->
        match key i, key (i + 1) with
        | Some a, Some b -> String.equal a b
        | None, _ | _, None -> false)
  in
  (sorted, aligned, equal_next)

(* Build the output relation: last-of-run positions keep their projected
   tuple; the rest become fresh dummies. *)
let emit_output (sorted : Relation.t) ~attrs equal_next out_annots ~owner ~name =
  let n = Relation.cardinality sorted in
  let out_schema = Schema.canonical attrs in
  let tuples =
    Array.init n (fun i ->
        let t = sorted.Relation.tuples.(i) in
        let last_of_run = i = n - 1 || not equal_next.(i) in
        if Tuple.is_dummy t || not last_of_run then Tuple.dummy out_schema
        else Tuple.project sorted.Relation.schema attrs t)
  in
  let rel =
    Relation.create ~name ~schema:out_schema ~tuples ~annots:(Array.make n Semiring.zero)
  in
  Shared_relation.of_shares ~owner rel out_annots

(* The chain's inputs: the owner's n-1 one-bit "same key as the next
   tuple" indicators, then the n aligned annotation shares. *)
let chain_inputs ~owner equal_next aligned =
  List.init (Array.length equal_next) (fun i ->
      Gc_protocol.Priv { owner; value = (if equal_next.(i) then 1L else 0L); bits = 1 })
  @ List.map (fun s -> Gc_protocol.Shared s) (Array.to_list aligned)

(** The N-1 merge gates of pi^plus over [n >= 2] sorted tuples: within a
    run of equal keys accumulate, at a run boundary emit and reset. *)
let merge_chain semiring ~n b (words : Circuits.word array) =
  let ind i = words.(i).(0) in
  let v i = words.(n - 1 + i) in
  let z = ref (v 0) in
  let outs = Array.make n (v 0) in
  for i = 0 to n - 2 do
    let keep = ind i in
    let not_keep = Boolean_circuit.Builder.bnot b keep in
    outs.(i) <- Circuits.zero_unless b not_keep !z;
    z := Semiring.circuit_add semiring b (Circuits.zero_unless b keep !z) (v (i + 1))
  done;
  outs.(n - 1) <- !z;
  Array.to_list outs

(** The OR-merge gates of pi^1 over [n >= 1] sorted tuples; each output
    is the semiring's times-identity for a present group, else zero. *)
let nonzero_chain semiring ~n b (words : Circuits.word array) =
  let ind i = words.(i).(0) in
  let nz i = Circuits.nonzero_word b words.(n - 1 + i) in
  let z = ref (nz 0) in
  let outs = Array.make n (nz 0) in
  for i = 0 to n - 2 do
    let keep = ind i in
    let not_keep = Boolean_circuit.Builder.bnot b keep in
    outs.(i) <- Boolean_circuit.Builder.band b not_keep !z;
    z := Boolean_circuit.Builder.bor b (Boolean_circuit.Builder.band b keep !z) (nz (i + 1))
  done;
  outs.(n - 1) <- !z;
  (* a present group's annotation is the semiring's times-identity
     (1 for rings, the encoded 0 for tropical semirings) *)
  let sbits = Semiring.bits semiring in
  let one_w = Circuits.const_word ~bits:sbits (Semiring.one semiring) in
  let zero_w = Circuits.const_word ~bits:sbits 0L in
  List.map
    (fun bit -> Circuits.materialize_word b 0 (Circuits.mux_word b ~sel:bit one_w zero_w))
    (Array.to_list outs)

(* The Ring aggregate as a segmented sum: P = [0; P_0..P_{n-1}] are the
   local prefix sums of the aligned shares, and output i of the extended
   OEP is P at 1 + L(i), where L(i) is the last run end at or before i
   (P's leading 0 when there is none). Output i minus output i-1 is then
   P_i - P_{s(i)-1} at a last-of-run position i with run start s(i), and
   a fresh sharing of 0 elsewhere. The switch count depends on n alone. *)
let segmented_sum ctx ~owner equal_next aligned =
  let n = Array.length aligned in
  let prefix = Array.make (n + 1) Secret_share.zero in
  Array.iteri (fun i s -> prefix.(i + 1) <- Secret_share.add ctx prefix.(i) s) aligned;
  let last_end = ref 0 in
  let xi =
    Array.init n (fun i ->
        if i = n - 1 || not equal_next.(i) then last_end := i + 1;
        !last_end)
  in
  let y = Oep.apply_shared ctx ~holder:owner ~xi ~m:(n + 1) prefix in
  Array.mapi (fun i yi -> if i = 0 then yi else Secret_share.sub ctx yi y.(i - 1)) y

(** Semantically-equivalent pi^plus_attrs(R), owner and size preserved. *)
let aggregate ctx semiring (sr : Shared_relation.t) ~attrs : Shared_relation.t =
  let owner = sr.Shared_relation.owner in
  let name = sr.Shared_relation.rel.Relation.name ^ "'" in
  Context.with_span ctx ("agg:" ^ sr.Shared_relation.rel.Relation.name) @@ fun () ->
  let sorted, aligned, equal_next = prepare ctx sr ~attrs in
  let n = Relation.cardinality sorted in
  let out_annots =
    if n = 0 then [||]
    else if semiring.Semiring.kind = Semiring.Ring then
      segmented_sum ctx ~owner equal_next aligned
    else if n = 1 then [| aligned.(0) |]
    else
      Gc_protocol.eval_to_shares ctx
        ~inputs:(chain_inputs ~owner equal_next aligned)
        ~build:(merge_chain semiring ~n)
  in
  emit_output sorted ~attrs equal_next out_annots ~owner ~name

(** Semantically-equivalent pi^1_attrs(R): distinct keys of the
    nonzero-annotated tuples, annotation [1] when present, [0] otherwise;
    size preserved. *)
let project_nonzero ctx semiring (sr : Shared_relation.t) ~attrs : Shared_relation.t =
  let owner = sr.Shared_relation.owner in
  let name = sr.Shared_relation.rel.Relation.name ^ "^1" in
  Context.with_span ctx ("agg1:" ^ sr.Shared_relation.rel.Relation.name) @@ fun () ->
  let sorted, aligned, equal_next = prepare ctx sr ~attrs in
  let n = Relation.cardinality sorted in
  if n = 0 then emit_output sorted ~attrs equal_next [||] ~owner ~name
  else begin
    let out_annots =
      Gc_protocol.eval_to_shares ctx
        ~inputs:(chain_inputs ~owner equal_next aligned)
        ~build:(nonzero_chain semiring ~n)
    in
    emit_output sorted ~attrs equal_next out_annots ~owner ~name
  end
