(** Oblivious sort and top-k over secret-shared rows (DESIGN.md §17).

    Executes the bitonic comparator schedule from {!Sorting_network.build}
    with every compare-exchange a garbled-circuit gadget: one GC batch per
    (k, j) pass (comparators within a pass touch disjoint wire pairs), so
    a sort costs m(m+1)/2 batches — O(log^2 n) rounds — plus one prep
    batch and one reveal round. The schedule, the batch shapes, and the
    per-pass circuit are all functions of the (public) padded row count
    alone, so the execution trace leaks row count and nothing else.

    Padding to the power-of-two network width uses {e in-protocol sentinel
    rows}: shares of all-zero words with the validity bit clear, built by
    [Secret_share.of_public] (zero communication) in the same input shape
    as the real rows, so they enter the very same circuits. The composite
    comparison key carries the negated validity bit as its most
    significant bit — invalid rows (sentinels, and real rows whose guard
    annotation is zero) sort strictly after every valid row, whatever
    their key bits say, and are never revealed by [top_k_reveal] as valid.

    Rows are (keys, payload) pairs of ring words. Key words may be
    compared descending (bitwise NOT — free) or as two's-complement
    signed values (top-bit flip — free); ties between keys fall through
    to the next key, so callers wanting a deterministic order supply a
    distinct final tiebreak key. Payload words ride along through the
    compare-exchange muxes untouched by the comparison. *)

module Bb = Boolean_circuit.Builder

type word_spec = {
  input : Gc_protocol.input;
  width : int;  (** logical bit width; values must reconstruct < 2^width *)
}

type key = {
  word : word_spec;
  descending : bool;  (** reverse the order (free: bitwise NOT) *)
  signed : bool;
      (** compare as two's complement at [width] (free: top-bit flip) *)
}

type row = {
  valid : Gc_protocol.input;
      (** 1-bit validity; must reconstruct to 0 or 1. Invalid rows sort
          after every valid row. *)
  valid_if_nonzero : int option;
      (** when [Some i], validity is additionally ANDed with
          [payload.(i) <> 0] inside the prep circuit *)
  keys : key list;
  payload : word_spec list;
}

(* ---- shape handling ------------------------------------------------- *)

type shape = {
  s_valid_priv : (Party.t * int) option;  (* None = Shared *)
  s_guard : int option;
  s_keys : (bool * bool * ((Party.t * int) option) * int) list;
      (* descending, signed, priv owner/bits, width *)
  s_payload : (((Party.t * int) option) * int) list;
}

let priv_shape = function
  | Gc_protocol.Priv { owner; bits; _ } -> Some (owner, bits)
  | Gc_protocol.Shared _ -> None

let shape_of_row r =
  {
    s_valid_priv = priv_shape r.valid;
    s_guard = r.valid_if_nonzero;
    s_keys =
      List.map (fun k -> (k.descending, k.signed, priv_shape k.word.input, k.word.width)) r.keys;
    s_payload = List.map (fun w -> (priv_shape w.input, w.width)) r.payload;
  }

let check_shapes rows =
  let s0 = shape_of_row rows.(0) in
  Array.iteri
    (fun i r ->
      if shape_of_row r <> s0 then
        invalid_arg
          (Printf.sprintf "Oblivious_sort: row %d differs in shape from row 0 (all rows of a \
                           sort must be same-shaped)" i))
    rows;
  s0

let check_widths ctx rows =
  let ring_bits = Context.ring_bits ctx in
  let check_spec what (w : word_spec) =
    if w.width < 1 then invalid_arg (Printf.sprintf "Oblivious_sort: %s width < 1" what);
    (* normalized words become arithmetic shares, so every logical width
       must fit the ring — wider words would silently truncate in the
       B2A conversion. Callers split wide values into ring-width limbs
       (most significant first; the composite comparator concatenation
       makes that exactly equivalent). *)
    if w.width > ring_bits then
      invalid_arg
        (Printf.sprintf "Oblivious_sort: %s width %d exceeds the %d-bit ring (split wide \
                         values into ring-width limb words)" what w.width ring_bits);
    match w.input with
    | Gc_protocol.Priv { bits; _ } ->
        if bits <> w.width then
          invalid_arg
            (Printf.sprintf "Oblivious_sort: %s declares width %d but its private input \
                             enters as %d bits" what w.width bits)
    | Gc_protocol.Shared _ -> ()
  in
  let (r : row) = rows.(0) in
  List.iteri (fun i (k : key) -> check_spec (Printf.sprintf "key %d" i) k.word) r.keys;
  List.iteri (fun i w -> check_spec (Printf.sprintf "payload %d" i) w) r.payload;
  (match r.valid_if_nonzero with
  | Some i when i < 0 || i >= List.length r.payload ->
      invalid_arg
        (Printf.sprintf "Oblivious_sort: valid_if_nonzero index %d out of range (payload has \
                         %d words)" i (List.length r.payload))
  | _ -> ())

(* A sentinel row with the same input shape as the template, all values
   zero: validity reconstructs to 0, so it sorts after every valid row.
   [of_public] shares cost no communication — padding is free on the
   wire beyond the gadgets it flows through, and those gadgets are a
   function of the public padded width alone. *)
let sentinel_inputs ctx (s : shape) =
  let zero = function
    | Some (owner, bits) -> Gc_protocol.Priv { owner; value = 0L; bits }
    | None -> Gc_protocol.Shared (Secret_share.of_public ctx 0L)
  in
  zero s.s_valid_priv
  :: (List.map (fun (_, _, p, _) -> zero p) s.s_keys
     @ List.map (fun (p, _) -> zero p) s.s_payload)

let row_inputs r =
  r.valid :: (List.map (fun k -> k.word.input) r.keys @ List.map (fun w -> w.input) r.payload)

(* ---- prep: normalize every row to shared logical-width words -------- *)

(* One batched circuit maps each (valid, keys, payload) row to
   [not valid'; key'_1..key'_m; payload_1..payload_l] where valid' folds
   in the nonzero guard and key adjustments (descending / signed) are
   applied with free gates. Every output word becomes a fresh share, so
   the network passes see a uniform all-[Shared] shape. *)
let prep ctx (s : shape) items =
  let slice width (w : Circuits.word) =
    if Array.length w = width then w else Array.sub w 0 width
  in
  let build b (words : Circuits.word array) =
    let n_keys = List.length s.s_keys in
    let valid_bit = words.(0).(0) in
    let payload =
      List.mapi (fun i (_, width) -> slice width words.(1 + n_keys + i)) s.s_payload
    in
    let guard =
      match s.s_guard with
      | None -> valid_bit
      | Some i -> Bb.band b valid_bit (Circuits.nonzero_word b (List.nth payload i))
    in
    let invalid = Bb.bnot b guard in
    let keys =
      List.mapi
        (fun i (descending, signed, _, width) ->
          let kw = slice width words.(1 + i) in
          let kw =
            if signed then
              Circuits.xor_word b kw
                (Circuits.const_word ~bits:width (Int64.shift_left 1L (width - 1)))
            else kw
          in
          if descending then Circuits.not_word b kw else kw)
        s.s_keys
    in
    ([| invalid |] :: keys) @ payload
  in
  Gc_protocol.eval_to_shares_batch ctx ~items ~build

(* ---- the network: one GC batch per bitonic pass --------------------- *)

(* Logical widths of a normalized row's words: invalid bit, keys, payload. *)
let state_widths (s : shape) =
  1 :: (List.map (fun (_, _, _, w) -> w) s.s_keys @ List.map (fun (_, w) -> w) s.s_payload)

(* Compare-exchange over two normalized rows: the composite comparison
   word is [invalid | key_1 | ... | key_m] (invalid most significant, so
   invalid rows order after all valid ones); strictly-greater lo swaps
   the full rows, payload included, through muxes. *)
let exchange_build widths n_keys b (words : Circuits.word array) =
  let n_words = List.length widths in
  let row off =
    List.mapi (fun i w -> Array.sub words.(off + i) 0 w) widths
  in
  let lo = row 0 and hi = row n_words in
  let composite r =
    (* little-endian concat: last key least significant, invalid bit on top *)
    let keys = List.filteri (fun i _ -> i >= 1 && i <= n_keys) r in
    Array.concat (List.rev keys @ [ List.hd r ])
  in
  let swap = Circuits.lt_word b (composite hi) (composite lo) in
  List.map2 (fun l h -> Circuits.mux_word b ~sel:swap h l) lo hi
  @ List.map2 (fun l h -> Circuits.mux_word b ~sel:swap l h) lo hi

let run_network ctx (s : shape) (net : Sorting_network.t) state =
  let widths = state_widths s in
  let n_keys = List.length s.s_keys in
  let build = exchange_build widths n_keys in
  Array.iter
    (fun pass ->
      Context.check_cancel ctx;
      let items =
        Array.map
          (fun { Sorting_network.lo; hi } ->
            Array.to_list
              (Array.append
                 (Array.map (fun sh -> Gc_protocol.Shared sh) state.(lo))
                 (Array.map (fun sh -> Gc_protocol.Shared sh) state.(hi))))
          pass
      in
      let out = Gc_protocol.eval_to_shares_batch ctx ~items ~build in
      let n_words = List.length widths in
      Array.iteri
        (fun c { Sorting_network.lo; hi } ->
          state.(lo) <- Array.sub out.(c) 0 n_words;
          state.(hi) <- Array.sub out.(c) n_words n_words)
        pass)
    net.Sorting_network.passes

let top_k_reveal ctx ~k ~to_ rows =
  if k < 0 then invalid_arg "Oblivious_sort.top_k_reveal: negative k";
  let n = Array.length rows in
  let k = min k n in
  if k = 0 then [||]
  else
    Context.with_span ctx "sort:bitonic" @@ fun () ->
    let s = check_shapes rows in
    check_widths ctx rows;
    let net = Sorting_network.build n in
    let items =
      Array.init net.Sorting_network.padded (fun i ->
          if i < n then row_inputs rows.(i) else sentinel_inputs ctx s)
    in
    let state = prep ctx s items in
    run_network ctx s net state;
    let n_keys = List.length s.s_keys in
    let n_payload = List.length s.s_payload in
    (* Reveal only the validity bit and the payload of the top k
       positions — never a key word. One round. *)
    let flat =
      Array.init (k * (1 + n_payload)) (fun i ->
          let pos = i / (1 + n_payload) and w = i mod (1 + n_payload) in
          if w = 0 then state.(pos).(0) else state.(pos).(n_keys + w))
    in
    let values =
      Context.with_span ctx "reveal:topk" @@ fun () ->
      Secret_share.reveal_batch ctx to_ flat
    in
    Array.init k (fun pos ->
        let off = pos * (1 + n_payload) in
        (Int64.equal values.(off) 1L, Array.init n_payload (fun w -> values.(off + 1 + w))))
