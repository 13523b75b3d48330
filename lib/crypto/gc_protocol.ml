(** The two-party garbled-circuit protocol (paper §5.2).

    Callers describe a computation over words: private inputs contributed
    by one party and arithmetically shared inputs contributed by both (the
    circuit reconstructs shared values with an adder front-end, exactly as
    the paper's merge gates do). Outputs either become fresh arithmetic
    shares or are revealed to one party.

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
    {!Domain_pool} ([Context.domains], default 1 = sequential). Each item
    runs in a per-item context whose PRGs are split sequentially from the
    shared streams and whose ledger is private, absorbed once per batch —
    so results, communication, rounds, and primitive counters are
    bit-identical for every pool size (see DESIGN.md §9).

    Alice is always the generator, Bob the evaluator. *)

type input =
  | Priv of { owner : Party.t; value : int64; bits : int }
      (** a private value of [owner], entering the circuit as [bits] wires *)
  | Shared of Secret_share.t
      (** an arithmetically shared ring element; the circuit sees its
          reconstruction (one adder is prepended) *)

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
  let kappa = ctx.Context.kappa in
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
      * ((Boolean_circuit.and_count bc.circuit * Cost_model.and_gate_bits ~kappa)
        + (n_alice_inputs * Cost_model.garbler_input_bits ~kappa)));
  let recv_bits, send_bits = Cost_model.evaluator_input_ot ~kappa in
  Context.send ctx ~from:Party.Bob ~bits:(times * n_bob_inputs * recv_bits);
  Context.send ctx ~from:Party.Alice ~bits:(times * n_bob_inputs * send_bits)

(* Yao-share outputs under the Real backend: Alice holds the color of the
   false label (her Boolean share); Bob holds the color of the active label.
   XOR of the two is the cleartext bit. *)
type bool_share = { alice_bit : bool; bob_bit : bool }

let run_real ctx (bc : built) (input_bits : bool array) : bool_share array =
  (* The executing domain's arena: garble writes its planes there and
     eval reuses them in place, so the whole item runs without per-gate
     or per-wire allocation; the planes are recycled by the next item on
     this domain (after the [bool_share]s below are built). *)
  let arena = Garbling.Arena.current () in
  let g = Garbling.garble ~arena ctx.Context.prg_alice bc.circuit in
  (* Bob's labels arrive via OT (accounted by the caller); functionally he
     receives exactly the label of his input bit — selecting the active
     label per input below is that exchange, collapsed into the plane. *)
  let colors = Garbling.eval_colors ~arena g (Array.get input_bits) in
  Array.init
    (Boolean_circuit.n_outputs bc.circuit)
    (fun i ->
      { alice_bit = Garbling.decode_bit g i; bob_bit = Bytes.get colors i = '\001' })

let run_sim ctx (bc : built) (input_bits : bool array) : bool_share array =
  let clear = Boolean_circuit.eval bc.circuit input_bits in
  (* Fresh random Boolean sharing of each output bit. *)
  Array.map
    (fun bit ->
      let r = Prg.bool ctx.Context.dealer in
      { alice_bit = r; bob_bit = bit <> r })
    clear

let run_with ctx bc input_bits =
  match ctx.Context.gc_backend with
  | Context.Real -> run_real ctx bc input_bits
  | Context.Sim -> run_sim ctx bc input_bits

(* daBit-based Boolean-to-arithmetic conversion of one word of Yao/Boolean
   shares: the dealer supplies each random bit r both XOR-shared and
   arithmetically shared; the parties open x XOR r and correct linearly.
   Costs accounted per the ABY OT-based construction; the openings of a
   whole batch travel in one message each way (rounds bumped by caller). *)
let b2a ctx (bits : bool_share array) : Secret_share.t =
  let width = Array.length bits in
  Context.bump ctx Trace_sink.B2a_words 1;
  Context.bump ctx Trace_sink.Ots width;
  Context.send ctx ~from:Party.Alice
    ~bits:(Cost_model.b2a_word_bits ~kappa:ctx.Context.kappa ~bits:width / 2);
  Context.send ctx ~from:Party.Bob
    ~bits:(Cost_model.b2a_word_bits ~kappa:ctx.Context.kappa ~bits:width / 2);
  let acc = ref Secret_share.zero in
  Array.iteri
    (fun i bs ->
      let r_bool = Prg.bool ctx.Context.dealer in
      let r_arith = Secret_share.fresh_of_value ctx (if r_bool then 1L else 0L) in
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

(* Slice the flat output-bit array back into words. *)
let slice_outputs widths (flat : 'a array) =
  let rec go offset = function
    | [] -> []
    | w :: rest -> Array.sub flat offset w :: go (offset + w) rest
  in
  go 0 widths

(* Batch-shape histograms for the contention profile: how large the
   parallel fan-outs are and how long each takes end to end (including
   the pool barrier and the per-batch delta merge). *)
let m_batch_items =
  Secyan_metrics.lazily (fun () ->
      Secyan_metrics.histogram ~help:"items per GC parallel batch (fan-out width)"
        "secyan_gc_batch_items")

let m_batch_seconds =
  Secyan_metrics.lazily (fun () ->
      Secyan_metrics.histogram
        ~help:"wall-clock seconds per GC parallel batch (pool barrier and merge included)"
        "secyan_gc_batch_seconds")

(* Allocation-rate observability (DESIGN.md §14): minor/major heap words
   allocated per batch item, measured as GC-counter deltas on the
   executing domain (minor words are domain-local in OCaml 5, so the
   delta brackets exactly the item's own allocation). Minor words come
   from [Gc.minor_words], which is exact in native code — the
   [Gc.quick_stat] figure only advances at GC points, and an
   allocation-free item never reaches one. The regression target is
   "arena reuse holds": steady-state items of the Real backend should sit
   within a few hundred words (boxed boundary values only), not the tens
   of words *per AND gate* the boxed kernels used to cost. *)
let m_item_minor_words =
  Secyan_metrics.lazily (fun () ->
      Secyan_metrics.histogram
        ~help:"minor-heap words allocated per GC batch item (executing domain)"
        "secyan_gc_item_minor_words")

let m_item_major_words =
  Secyan_metrics.lazily (fun () ->
      Secyan_metrics.histogram
        ~help:"major-heap words allocated per GC batch item, promotions included"
        "secyan_gc_item_major_words")

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

let m_supervision_failures =
  Secyan_metrics.lazily (fun () ->
      Secyan_metrics.counter ~help:"GC batches failed (item fault, hang, or shutdown)"
        "secyan_supervision_failures_total")

(* The per-item contexts of a batch over [ctx]: the expensive allocated
   state of each slot — the three PRGs, the ledger, any nested batch
   cache — is recycled across batches through
   [ctx.batch_ctxs] and reseeded/reset per batch; only a fresh context
   *record* per item is built each time, copying the immutable fields
   (ring, kappa, backend) of the context running this batch.

   Child PRGs are reseeded *sequentially* from the shared streams in item
   order — exactly the draws [Prg.split] made when contexts were fresh
   per batch — so the derivation depends only on the item index, never on
   scheduling or cache state, and results stay bit-identical for every
   pool size and batch history. *)
let prepare_item_ctxs ctx n : Context.t array =
  let cached = ctx.Context.batch_ctxs in
  let n_cached = Array.length cached in
  let ctxs =
    Array.init n (fun i ->
        if i < n_cached then begin
          let c = cached.(i) in
          Prg.split_into ctx.Context.prg_alice c.Context.prg_alice;
          Prg.split_into ctx.Context.prg_bob c.Context.prg_bob;
          Prg.split_into ctx.Context.dealer c.Context.dealer;
          Array.fill c.Context.counters 0 Trace_sink.n_counters 0;
          { ctx with Context.prg_alice = c.Context.prg_alice; prg_bob = c.Context.prg_bob;
            dealer = c.Context.dealer; sink = Trace_sink.noop;
            counters = c.Context.counters; transport = None;
            batch_ctxs = c.Context.batch_ctxs; schema = None }
        end
        else begin
          let prg_alice = Prg.split ctx.Context.prg_alice in
          let prg_bob = Prg.split ctx.Context.prg_bob in
          let dealer = Prg.split ctx.Context.dealer in
          (* [transport = None, schema = None]: item sends stay in the
             item's ledger (the parent pushes their total over its wire),
             and workers must not touch the shared state machine from
             their own domains. *)
          { ctx with Context.prg_alice; prg_bob; dealer;
            sink = Trace_sink.noop; counters = Array.make Trace_sink.n_counters 0;
            transport = None; batch_ctxs = [||]; schema = None }
        end)
  in
  (* Never shrink the cache: a smaller batch recycles a prefix and leaves
     the rest for the next wide one. *)
  if n > n_cached then ctx.Context.batch_ctxs <- ctxs;
  ctxs

(* Run [f] over the [n] independent batch items on the context's pool.

   Each item gets a private context (see [prepare_item_ctxs]): a noop
   sink, and a private ledger and PRGs whose state is a function of the
   item index alone. After the barrier one [Context.absorb] folds the
   item ledgers into the parent: sums are order-independent, so tallies
   and span counters are bit-identical for every pool size, including 1,
   watched or not. Results live in a fresh [Option]
   array (not the recycled cache), so a straggler's late write after an
   abort can never corrupt a later batch's results. Every pool fault
   surfaces as the typed {!Supervision_error} naming the protocol phase;
   cancellation surfaces as itself. Item code must not open spans (the
   item sink ignores them). *)
let map_batch ctx ~n (f : Context.t -> int -> 'a) : 'a array =
  if n = 0 then [||]
  else begin
    (* Phase-boundary check: a batch never starts under a fired token. *)
    Context.check_cancel ctx;
    let metrics_on = Secyan_metrics.enabled () in
    let t_start = if metrics_on then Unix.gettimeofday () else 0. in
    let item_ctxs = prepare_item_ctxs ctx n in
    (* Global item ids for deterministic fault injection: batches are
       submitted sequentially, so [base + i] identifies this item across
       runs of the same query. Constant 0 while disarmed. *)
    let fault_base = Fault_inject.batch_base n in
    let run_item i =
      try
        Fault_inject.fire (fault_base + i);
        if metrics_on then begin
          let minor0 = Gc.minor_words () in
          let major0 = (Gc.quick_stat ()).Gc.major_words in
          let r = f item_ctxs.(i) i in
          let minor1 = Gc.minor_words () in
          Secyan_metrics.observe (m_item_minor_words ()) (minor1 -. minor0);
          Secyan_metrics.observe (m_item_major_words ())
            ((Gc.quick_stat ()).Gc.major_words -. major0);
          r
        end
        else f item_ctxs.(i) i
      with e ->
        (* The claiming domain's arena may hold a half-written circuit;
           reset it so no later item garbles over dirty label material
           (DESIGN.md §15). *)
        Garbling.Arena.reset (Garbling.Arena.current ());
        raise e
    in
    let slots = Array.make n None in
    let fail item cause =
      Secyan_metrics.add (m_supervision_failures ()) 1;
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
        (* The hung worker may eventually resume and write into its
           recycled per-item context; drop the whole cache so no later
           batch can reuse state it might touch. The pool itself is
           already poisoned (sequential from here on). *)
        ctx.Context.batch_ctxs <- [||];
        fail (fault_base + item) (Batch_worker_hung { slot; silent_s })
    | exception Domain_pool.Pool_shutdown { unclaimed } ->
        fail (-1) (Batch_shutdown { unclaimed }));
    let results =
      Array.map (function Some r -> r | None -> assert false (* barrier: all ran *)) slots
    in
    Context.absorb ctx item_ctxs;
    if metrics_on then begin
      Secyan_metrics.observe (m_batch_items ()) (float_of_int n);
      Secyan_metrics.observe (m_batch_seconds ()) (Unix.gettimeofday () -. t_start)
    end;
    results
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
      map_batch ctx ~n:(Array.length items) (fun ictx i ->
          let out_bits = run_with ictx bc (bits_of_inputs ictx items.(i)) in
          let words = slice_outputs bc.output_widths out_bits in
          Array.of_list (List.map (b2a ictx) words))
    in
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
    map_batch ctx ~n:(Array.length items) (fun ictx i ->
        let out_bits = run_with ictx bc (bits_of_inputs ictx items.(i)) in
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
