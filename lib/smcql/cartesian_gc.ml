(** The garbled-circuit baseline of the paper's evaluation (§8.2).

    SMCQL-style systems express the whole query as one circuit over the
    padded worst-case intermediate result — the Cartesian product of the
    input relations. Like the authors (who could not run SMCQL beyond its
    bundled examples), we build exactly the baseline they measured: a
    circuit that enumerates the product, applies the join conditions per
    row, and multiplies/gates the annotations, ignoring all other
    operators. Its size is Theta(prod |R_i|) — O~(N^k).

    [estimate] derives cost from the *exact* per-row AND-gate count (the
    row circuit is built with the real circuit builders) and a measured
    seconds-per-AND-gate calibration, mirroring the paper's extrapolation
    of the garbled circuit to dataset sizes where running it is
    infeasible. [run_small] actually executes the product circuit through
    the GC protocol for small inputs. *)

open Secyan_crypto
open Secyan_relational
open Secyan_obs

(* Equality constraints of the natural join: for each attribute appearing
   in several relations, consecutive occurrences must agree. Returns
   (relation index, attr) pairs per constraint. *)
let join_constraints (q : Secyan.Query.t) =
  let rels = List.map snd q.Secyan.Query.inputs in
  let occurrences =
    List.concat
      (List.mapi
         (fun i (input : Secyan.Query.input) ->
           List.map (fun a -> (a, i)) (Schema.to_list input.relation.Relation.schema))
         rels)
  in
  let attrs = List.sort_uniq compare (List.map fst occurrences) in
  List.concat_map
    (fun a ->
      let holders = List.filter_map (fun (a', i) -> if a = a' then Some i else None) occurrences in
      match holders with
      | [] | [ _ ] -> []
      | first :: rest ->
          let rec chain prev = function
            | [] -> []
            | x :: tl -> ((a, prev), (a, x)) :: chain x tl
          in
          chain first rest)
    attrs

(* The per-row circuit: one encoded word per join-attribute occurrence and
   one annotation word per relation; output is the gated annotation
   product. *)
let build_row_circuit (q : Secyan.Query.t) b (words : Circuits.word array) =
  let k = List.length q.Secyan.Query.inputs in
  let constraints = join_constraints q in
  (* words layout: per relation, one word per attribute then the
     annotation word *)
  let rels = List.map snd q.Secyan.Query.inputs in
  let offsets, _ =
    List.fold_left
      (fun (acc, off) (input : Secyan.Query.input) ->
        (acc @ [ off ], off + Schema.arity input.relation.Relation.schema + 1))
      ([], 0) rels
  in
  let offsets = Array.of_list offsets in
  let attr_word rel_idx attr =
    let input = List.nth rels rel_idx in
    let pos = Schema.index_of attr input.Secyan.Query.relation.Relation.schema in
    words.(offsets.(rel_idx) + pos)
  in
  let annot_word rel_idx =
    let input = List.nth rels rel_idx in
    words.(offsets.(rel_idx) + Schema.arity input.Secyan.Query.relation.Relation.schema)
  in
  let checks =
    List.map
      (fun ((a1, i1), (a2, i2)) -> Circuits.eq_word b (attr_word i1 a1) (attr_word i2 a2))
      constraints
  in
  let all_match =
    List.fold_left
      (fun acc c -> Boolean_circuit.Builder.band b acc c)
      (Boolean_circuit.Builder.const_ true) checks
  in
  let product =
    List.fold_left
      (fun acc i -> Semiring.circuit_mul q.Secyan.Query.semiring b acc (annot_word i))
      (annot_word 0)
      (List.init (k - 1) (fun i -> i + 1))
  in
  Circuits.zero_unless b all_match product

(** Attribute values enter the row circuit as 32-bit encodings. *)
let attr_bits = 32

let encode_value v = Int64.of_int (Hashtbl.hash (Value.repr v) land 0x3FFFFFFF)

type estimate = {
  product_rows : float;           (** prod |R_i| *)
  and_gates_per_row : int;        (** exact, from the real row circuit *)
  total_and_gates : float;
  comm_bytes : float;             (** 2 kappa bits per AND gate + inputs *)
  seconds : float;                (** extrapolated at [seconds_per_and] *)
}

(* Build the row circuit once to count its AND gates exactly. *)
let row_and_gates (q : Secyan.Query.t) =
  let module Bb = Boolean_circuit.Builder in
  let b = Bb.create () in
  let words =
    Array.concat
      (List.map
         (fun (_, (input : Secyan.Query.input)) ->
           let arity = Schema.arity input.Secyan.Query.relation.Relation.schema in
           Array.init (arity + 1) (fun i ->
               Circuits.input_word b
                 (if i = arity then Semiring.bits q.Secyan.Query.semiring else attr_bits)))
         q.Secyan.Query.inputs)
  in
  let out = build_row_circuit q b words in
  let circuit = Bb.finalize b ~outputs:(Circuits.materialize_word b 0 out) in
  Boolean_circuit.and_count circuit

(** Default calibration: measured on this machine by [calibrate]. *)
let default_seconds_per_and = 1.2e-6

let estimate ?(seconds_per_and = default_seconds_per_and) (q : Secyan.Query.t) : estimate =
  let sizes =
    List.map
      (fun (_, (i : Secyan.Query.input)) ->
        float_of_int (Relation.cardinality i.Secyan.Query.relation))
      q.Secyan.Query.inputs
  in
  let product_rows = List.fold_left ( *. ) 1. sizes in
  let and_gates_per_row = row_and_gates q in
  let total_and_gates = product_rows *. float_of_int and_gates_per_row in
  let comm_bytes = total_and_gates *. float_of_int Cost_model.and_gate_bits /. 8. in
  { product_rows; and_gates_per_row; total_and_gates;
    comm_bytes; seconds = total_and_gates *. seconds_per_and }

type measurement = {
  rows_run : int;
  total : Secret_share.t;  (** shared sum of all gated row products *)
  tally : Comm.tally;
  wall_seconds : float;
  seconds_per_and : float;
}

(** Actually run the product circuit over the first [max_rows] rows of the
    Cartesian product through the GC protocol; used both to validate the
    baseline and to calibrate seconds-per-AND for [estimate]. *)
let run_small ctx (q : Secyan.Query.t) ~max_rows : measurement =
  let (rows_run, total), wall, tally =
    Trace.measure ctx @@ fun () ->
    Context.with_span ctx "smcql:cartesian" @@ fun () ->
    let rels = List.map snd q.Secyan.Query.inputs in
  let sizes = List.map (fun (i : Secyan.Query.input) -> Relation.cardinality i.relation) rels in
  let k = List.length rels in
  (* enumerate the product in row-major order, capped at max_rows *)
  let total = List.fold_left ( * ) 1 sizes in
  let rows_run = min total max_rows in
  ignore k;
  let row_inputs row =
    let indices =
      let rec go r = function
        | [] -> []
        | n :: rest -> (r mod n) :: go (r / n) rest
      in
      go row sizes
    in
    List.concat
      (List.map2
         (fun (input : Secyan.Query.input) idx ->
           let rel = input.Secyan.Query.relation in
           let t = rel.Relation.tuples.(idx) in
           let owner = input.Secyan.Query.owner in
           List.map
             (fun a ->
               Gc_protocol.Priv
                 { owner; value = encode_value (Tuple.get rel.Relation.schema a t);
                   bits = attr_bits })
             (Schema.to_list rel.Relation.schema)
           @ [
               Gc_protocol.Priv
                 { owner; value = rel.Relation.annots.(idx);
                   bits = Semiring.bits q.Secyan.Query.semiring };
             ])
         rels indices)
  in
  let items = Array.init rows_run row_inputs in
  let shares =
    Gc_protocol.eval_to_shares_batch ctx ~items ~build:(fun b words ->
        [ build_row_circuit q b words ])
  in
  let total =
    Array.fold_left (fun acc s -> Secret_share.add ctx acc s.(0)) Secret_share.zero shares
  in
  (rows_run, total)
  in
  let total_ands = float_of_int (rows_run * row_and_gates q) in
  {
    rows_run;
    total;
    tally;
    wall_seconds = wall;
    seconds_per_and = (if total_ands > 0. then wall /. total_ands else 0.);
  }

(** Measure seconds-per-AND-gate of the [Real] garbling backend on this
    machine, for extrapolation: one untimed warm-up run, then five timed
    ones. Returns their (min, median, max). *)
let calibrate ~seed (q : Secyan.Query.t) ~rows : float * float * float =
  let once () =
    let ctx =
      Context.create ~bits:(Semiring.bits q.Secyan.Query.semiring) ~gc_backend:Context.Real
        ~seed ()
    in
    (run_small ctx q ~max_rows:rows).seconds_per_and
  in
  ignore (once () : float);
  let runs = Array.init 5 (fun _ -> once ()) in
  Array.sort Float.compare runs;
  (runs.(0), runs.(2), runs.(4))
