(** The two-party garbled-circuit protocol (paper §5.2).

    Callers describe a computation over words: private inputs contributed
    by one party and arithmetically shared inputs contributed by both (the
    circuit reconstructs shared values with an adder front-end, exactly as
    the paper's merge gates do). The nonzero tests need no adder: they
    feed a share pair through {!nonzero_inputs} and compare it with
    {!nonzero_test}. Outputs either become fresh arithmetic shares or are
    revealed to one party.

    Two backends (see DESIGN.md §2.2):
    - [Real]: Alice garbles with half-gates, Bob receives his input labels
      by OT, evaluates on labels, and the parties convert Yao shares to
      arithmetic shares with daBit-based B2A.
    - [Sim]: the circuit is evaluated in the clear inside the runtime and
      outputs are freshly re-shared; communication and rounds are accounted
      identically to [Real] (asserted by the test suite).

    The batch entry points ([eval_to_shares_batch], [eval_reveal_batch])
    implement the paper's "one garbled circuit per tuple" pattern: the
    per-item circuit is constructed once and re-used across all items
    (garbled afresh per item under [Real]), and the whole batch costs a
    constant number of rounds.

    Batches fan their independent items across the context's
    {!Domain_pool} (sized by [Context.create ?domains], default 1 =
    sequential). Each item draws from its own two streams, split from
    Alice's and the dealer's in item order on the calling domain, and
    writes nothing to the context; every cost is booked once per batch
    on the owning domain — so results, communication, rounds, and
    primitive counters are bit-identical for every pool size (see
    DESIGN.md §9).

    Alice is always the generator, Bob the evaluator. *)

type input =
  | Priv of { owner : Party.t; value : int64; bits : int }
      (** a private value of [owner], entering the circuit as [bits] wires *)
  | Shared of Secret_share.t
      (** an arithmetically shared ring element; the circuit sees its
          reconstruction (one adder is prepended) *)

(* x = x_A + x_B is nonzero exactly when x_A <> -x_B in Z_2^l: Alice
   inputs her share, Bob the negation of his, and one equality test
   replaces an adder and a nonzero test. The input widths and owners are
   those of [Shared s], so OTs and bits are unchanged. *)
let nonzero_inputs ctx (s : Secret_share.t) =
  let bits = Context.ring_bits ctx in
  [
    Priv { owner = Party.Alice; value = s.Secret_share.a; bits };
    Priv { owner = Party.Bob; value = Zn.neg ctx.Context.ring s.Secret_share.b; bits };
  ]

let nonzero_test b x_a neg_x_b = Boolean_circuit.Builder.bnot b (Circuits.eq_word b x_a neg_x_b)

type built = {
  circuit : Boolean_circuit.t;
  output_widths : int list;
}

(* The number of input wires of a circuit built from [inputs]. *)
let input_width ctx inputs =
  List.fold_left
    (fun acc input ->
      match input with
      | Priv { bits; _ } -> acc + bits
      | Shared _ -> acc + (2 * Context.ring_bits ctx))
    0 inputs

(* The cleartext bit of every input wire of a circuit built from [inputs],
   in wire order, written into one pre-sized array. *)
let bits_of_inputs ctx inputs : bool array =
  let ring_bits = Context.ring_bits ctx in
  let buf = Array.make (input_width ctx inputs) false in
  let pos = ref 0 in
  let push value bits =
    for i = 0 to bits - 1 do
      buf.(!pos + i) <- Int64.logand (Int64.shift_right_logical value i) 1L = 1L
    done;
    pos := !pos + bits
  in
  List.iter
    (fun input ->
      match input with
      | Priv { value; bits; _ } -> push value bits
      | Shared s ->
          push s.Secret_share.a ring_bits;
          push s.Secret_share.b ring_bits)
    inputs;
  buf

(* Every item of a batch is evaluated on the circuit built from
   [items.(0)]: an item with a different input width would be truncated
   or over-read, so the whole batch is rejected up front. *)
let check_same_shape ~fn ctx (items : input list array) =
  let width = input_width ctx items.(0) in
  Array.iter
    (fun inputs ->
      let w = input_width ctx inputs in
      if w <> width then
        invalid_arg
          (Printf.sprintf
             "Gc_protocol.%s: item with %d input bits in a batch whose first item has %d \
              (all items must share the circuit shape)"
             fn w width))
    items

(* Assemble the circuit from the *shape* of [inputs] (widths and kinds;
   the values are supplied separately at evaluation time). *)
let build_circuit ctx ~inputs ~build =
  let module Bb = Boolean_circuit.Builder in
  let b = Bb.create () in
  let ring_bits = Context.ring_bits ctx in
  let words =
    List.map
      (fun input ->
        match input with
        | Priv { bits; _ } -> Circuits.input_word b bits
        | Shared _ ->
            let wa = Circuits.input_word b ring_bits in
            let wb = Circuits.input_word b ring_bits in
            Circuits.add_word b wa wb)
      inputs
  in
  let out_words = build b (Array.of_list words) in
  if out_words = [] then
    invalid_arg "Gc_protocol.build_circuit: the builder returned no output words (expected \
                 at least one)";
  let anchor = 0 (* input wire 0 exists: every use has at least one input *) in
  let out_words = List.map (Circuits.materialize_word b anchor) out_words in
  let outputs = Array.concat (List.map Array.copy out_words) in
  let circuit = Bb.finalize b ~outputs in
  { circuit; output_widths = List.map Array.length out_words }

(** The circuit a batch over items shaped like [inputs] evaluates. *)
let circuit ctx ~inputs ~build = (build_circuit ctx ~inputs ~build).circuit

(* Account the transfer costs of executing the circuit [times] times:
   garbled tables, garbler input labels, evaluator input OTs. Rounds are
   bumped separately, once per batch. *)
let account_executions ctx (bc : built) (shape : input list) ~times =
  let ring_bits = Context.ring_bits ctx in
  let n_bob_inputs =
    List.fold_left
      (fun acc input ->
        match input with
        | Priv { owner = Party.Bob; bits; _ } -> acc + bits
        | Priv { owner = Party.Alice; _ } -> acc
        | Shared _ -> acc + ring_bits)
      0 shape
  in
  let n_alice_inputs = input_width ctx shape - n_bob_inputs in
  Context.bump ctx Trace_sink.Gc_circuits times;
  Context.bump ctx Trace_sink.And_gates (times * Boolean_circuit.and_count bc.circuit);
  Context.bump ctx Trace_sink.Ots (times * n_bob_inputs);
  Context.send ctx ~from:Party.Alice
    ~bits:
      (times
      * ((Boolean_circuit.and_count bc.circuit * Cost_model.and_gate_bits)
        + (n_alice_inputs * Cost_model.garbler_input_bits)));
  let recv_bits, send_bits = Cost_model.evaluator_input_ot in
  Context.send ctx ~from:Party.Bob ~bits:(times * n_bob_inputs * recv_bits);
  Context.send ctx ~from:Party.Alice ~bits:(times * n_bob_inputs * send_bits)

(* Yao-share outputs under the Real backend: Alice holds the color of the
   false label (her Boolean share); Bob holds the color of the active label.
   XOR of the two is the cleartext bit. *)
type bool_share = { alice_bit : bool; bob_bit : bool }

(* The randomness of one batch item: child streams of Alice's (she
   garbles) and of the dealer's (Sim resharing, B2A daBits). No item
   draws from Bob's stream. *)
type item = { garbler : Prg.t; dealer : Prg.t }

let run_real (item : item) (bc : built) (input_bits : bool array) : bool_share array =
  (* The executing domain's arena: garble writes its planes there and
     eval reuses them in place, so the whole item runs without per-gate
     or per-wire allocation; the planes are recycled by the next item on
     this domain (after the [bool_share]s below are built). *)
  let arena = Garbling.Arena.current () in
  let g = Garbling.garble ~arena item.garbler bc.circuit in
  (* Bob's labels arrive via OT (accounted by the caller); functionally he
     receives exactly the label of his input bit — selecting the active
     label per input below is that exchange, collapsed into the plane. *)
  let colors = Garbling.eval_colors ~arena g (Array.get input_bits) in
  Array.init
    (Boolean_circuit.n_outputs bc.circuit)
    (fun i ->
      { alice_bit = Garbling.decode_bit g i; bob_bit = Bytes.get colors i = '\001' })

let run_sim (item : item) (bc : built) (input_bits : bool array) : bool_share array =
  let clear = Boolean_circuit.eval bc.circuit input_bits in
  (* Fresh random Boolean sharing of each output bit. *)
  Array.map
    (fun bit ->
      let r = Prg.bool item.dealer in
      { alice_bit = r; bob_bit = bit <> r })
    clear

let run_with ctx item bc input_bits =
  match ctx.Context.gc_backend with
  | Context.Real -> run_real item bc input_bits
  | Context.Sim -> run_sim item bc input_bits

(* daBit-based Boolean-to-arithmetic conversion of one word of Yao/Boolean
   shares: the dealer supplies each random bit r both XOR-shared and
   arithmetically shared; the parties open x XOR r and correct linearly.
   Its cost is booked per batch by [account_b2a]. *)
let b2a ctx (item : item) (bits : bool_share array) : Secret_share.t =
  let ring = ctx.Context.ring in
  let acc = ref Secret_share.zero in
  Array.iteri
    (fun i bs ->
      let r_bool = Prg.bool item.dealer in
      (* a fresh sharing of r, as [Secret_share.fresh_of_value] draws it *)
      let r_a = Zn.random ring item.dealer in
      let r_arith =
        { Secret_share.a = r_a; b = Zn.sub ring (if r_bool then 1L else 0L) r_a }
      in
      let x = bs.alice_bit <> bs.bob_bit in
      let m = x <> r_bool in
      (* [x] = m + [r] - 2 m [r]  (m public) *)
      let xi =
        if m then Secret_share.add_public ctx (Secret_share.neg ctx r_arith) 1L else r_arith
      in
      let weighted = Secret_share.scale_public ctx xi (Int64.shift_left 1L i) in
      acc := Secret_share.add ctx !acc weighted)
    bits;
  !acc

(* The B2A cost of [times] items, each converting every output word of
   [bc], per the ABY OT-based construction: the openings of a whole batch
   travel in one message each way (rounds bumped by the caller). *)
let account_b2a ctx (bc : built) ~times =
  let widths = bc.output_widths in
  let ots = times * List.fold_left ( + ) 0 widths in
  let half_bits =
    times
    * List.fold_left (fun acc w -> acc + (Cost_model.b2a_word_bits ~bits:w / 2)) 0 widths
  in
  if ots <> 0 then Context.bump ctx Trace_sink.Ots ots;
  Context.bump ctx Trace_sink.B2a_words (times * List.length widths);
  if half_bits > 0 then begin
    Context.send ctx ~from:Party.Alice ~bits:half_bits;
    Context.send ctx ~from:Party.Bob ~bits:half_bits
  end

(* Slice the flat output-bit array back into words. *)
let slice_outputs widths (flat : 'a array) =
  let rec go offset = function
    | [] -> []
    | w :: rest -> Array.sub flat offset w :: go (offset + w) rest
  in
  go 0 widths

(* --- batch supervision ------------------------------------------------ *)

type supervision_cause =
  | Batch_item_raised of { message : string }
  | Batch_worker_hung of { slot : int; silent_s : float }
  | Batch_shutdown of { unclaimed : int }

let supervision_cause_to_string = function
  | Batch_item_raised { message } -> Printf.sprintf "item raised: %s" message
  | Batch_worker_hung { slot; silent_s } ->
      Printf.sprintf "worker %d hung (silent %.1fs); pool poisoned, domain abandoned"
        slot silent_s
  | Batch_shutdown { unclaimed } ->
      Printf.sprintf "pool shut down mid-batch (%d items unclaimed)" unclaimed

exception
  Supervision_error of { phase : string; item : int; cause : supervision_cause }

let () =
  Printexc.register_printer (function
    | Supervision_error { phase; item; cause } ->
        Some
          (Printf.sprintf "Supervision_error { phase = %S; item = %d; %s }" phase
             item (supervision_cause_to_string cause))
    | _ -> None)

(* Run [f] over the [n] independent batch items on the context's pool.

   Each item gets its own two streams, split from Alice's and the
   dealer's on the calling domain in item order, so what an item draws
   depends on its index alone, never on scheduling. Item code reads only
   immutable fields of [ctx] and writes nothing to it; callers book the
   batch's cost on [ctx] themselves, so tallies and span counters are
   bit-identical for every pool size, including 1, watched or not.
   Results and item state are fresh per batch, so a straggler's late
   write after an abort lands only in its own dead batch. Every pool
   fault surfaces as the typed {!Supervision_error} naming the protocol
   phase; cancellation surfaces as itself. *)
let map_batch ctx ~n (f : item -> int -> 'a) : 'a array =
  if n = 0 then [||]
  else begin
    (* Phase-boundary check: a batch never starts under a fired token. *)
    Context.check_cancel ctx;
    let items =
      Array.init n (fun _ ->
          let garbler = Prg.split ctx.Context.prg_alice in
          let dealer = Prg.split ctx.Context.dealer in
          { garbler; dealer })
    in
    (* Global item ids for deterministic fault injection: batches are
       submitted sequentially, so [base + i] identifies this item across
       runs of the same query. Constant 0 while disarmed. *)
    let fault_base = Fault_inject.batch_base n in
    let run_item i =
      try
        Fault_inject.fire (fault_base + i);
        f items.(i) i
      with e ->
        (* The claiming domain's arena may hold a half-written circuit;
           reset it so no later item garbles over dirty label material
           (DESIGN.md §15). *)
        Garbling.Arena.reset (Garbling.Arena.current ());
        raise e
    in
    let slots = Array.make n None in
    let fail item cause =
      raise (Supervision_error { phase = ctx.Context.current_label; item; cause })
    in
    (match
       Domain_pool.run ~cancel:ctx.Context.cancel (Context.pool ctx) ~n
         ~f:(fun i -> slots.(i) <- Some (run_item i))
     with
    | () -> ()
    | exception
        Domain_pool.Pool_failure
          (Domain_pool.Item_raised { exn = Secyan_deadline.Cancelled _ as exn; _ }) ->
        raise exn
    | exception Domain_pool.Pool_failure (Domain_pool.Item_raised { item; exn }) ->
        fail (fault_base + item) (Batch_item_raised { message = Printexc.to_string exn })
    | exception Domain_pool.Pool_failure (Domain_pool.Worker_hung { slot; item; silent_s })
      ->
        fail (fault_base + item) (Batch_worker_hung { slot; silent_s })
    | exception Domain_pool.Pool_shutdown { unclaimed } ->
        fail (-1) (Batch_shutdown { unclaimed }));
    Array.map (function Some r -> r | None -> assert false (* barrier: all ran *)) slots
  end

(** Evaluate the same circuit over a batch of same-shaped input lists; each
    output word of each item becomes a fresh arithmetic share. Constant
    rounds for the whole batch. *)
let eval_to_shares_batch ctx ~(items : input list array) ~build : Secret_share.t array array =
  if Array.length items = 0 then [||]
  else
    Context.with_span ctx "gc:shares" @@ fun () ->
    check_same_shape ~fn:"eval_to_shares_batch" ctx items;
    let bc = build_circuit ctx ~inputs:items.(0) ~build in
    account_executions ctx bc items.(0) ~times:(Array.length items);
    Context.bump_rounds ctx 2;
    let results =
      map_batch ctx ~n:(Array.length items) (fun item i ->
          let out_bits = run_with ctx item bc (bits_of_inputs ctx items.(i)) in
          let words = slice_outputs bc.output_widths out_bits in
          Array.of_list (List.map (b2a ctx item) words))
    in
    account_b2a ctx bc ~times:(Array.length items);
    Context.bump_rounds ctx 1;
    results

(** Single-item variant. *)
let eval_to_shares ctx ~inputs ~build : Secret_share.t array =
  match eval_to_shares_batch ctx ~items:[| inputs |] ~build with
  | [| shares |] -> shares
  | _ -> assert false

(** Evaluate a batch and reveal every output word of every item to [to_]
    only (one decode message, one round). *)
let eval_reveal_batch ctx ~to_ ~(items : input list array) ~build : int64 array array =
  if Array.length items = 0 then [||]
  else
    Context.with_span ctx "gc:reveal" @@ fun () ->
    check_same_shape ~fn:"eval_reveal_batch" ctx items;
    let bc = build_circuit ctx ~inputs:items.(0) ~build in
    account_executions ctx bc items.(0) ~times:(Array.length items);
    Context.bump_rounds ctx 2;
    let n_out = Boolean_circuit.n_outputs bc.circuit in
    Context.send ctx ~from:(Party.other to_) ~bits:(Array.length items * n_out);
    Context.bump_rounds ctx 1;
    map_batch ctx ~n:(Array.length items) (fun item i ->
        let out_bits = run_with ctx item bc (bits_of_inputs ctx items.(i)) in
        let words = slice_outputs bc.output_widths out_bits in
        Array.of_list
          (List.map
             (fun word ->
               Circuits.int64_of_bool_array
                 (Array.map (fun bs -> bs.alice_bit <> bs.bob_bit) word))
             words))

(** Single-item variant of [eval_reveal_batch]. *)
let eval_reveal ctx ~to_ ~inputs ~build : int64 array =
  match eval_reveal_batch ctx ~to_ ~items:[| inputs |] ~build with
  | [| values |] -> values
  | _ -> assert false
