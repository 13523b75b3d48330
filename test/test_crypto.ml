(* Tests for the cryptographic substrate: PRG, ring, SHA-256, secret
   sharing, circuits, garbling, GC protocol, OT, permutation networks,
   cuckoo hashing, OEP, and the two PSI protocols. *)

open Secyan_crypto

let ctx_real () = Context.create ~gc_backend:Context.Real ~seed:42L ()
let ctx_sim () = Context.create ~gc_backend:Context.Sim ~seed:42L ()

let check_i64 = Alcotest.testable (fun fmt v -> Fmt.pf fmt "%Ld" v) Int64.equal

(* ------------------------------------------------------------------ *)
(* PRG *)

let test_prg_deterministic () =
  let a = Prg.create 7L and b = Prg.create 7L in
  for _ = 1 to 100 do
    Alcotest.check check_i64 "same stream" (Prg.next_int64 a) (Prg.next_int64 b)
  done;
  (* pinned: the splitmix64 seeding and the xoshiro256** stream it feeds *)
  let p = Prg.create 1L in
  List.iter
    (fun want -> Alcotest.check check_i64 "Prg.create 1L stream" want (Prg.next_int64 p))
    [ -5480124913605472059L; -8846382939111011094L; -7856363154187860716L;
      7218738570589545383L ]

(* DESIGN.md §14: a draw allocates nothing. The state is one unboxed
   buffer, and [Prg.next_into] stores the word straight into a plane as
   the garbler's input-label loop does, so 10k draws take 0 minor words;
   the stream equals [next_int64]'s. *)
let test_prg_no_alloc () =
  let n = 10_000 in
  let plane = Bytes.create (8 * n) in
  let draw prg = for i = 0 to n - 1 do Prg.next_into prg plane (8 * i) done in
  draw (Prg.create 3L);
  let prg = Prg.create 3L in
  let before = Gc.minor_words () in
  draw prg;
  let words = Gc.minor_words () -. before in
  if words > 0. then Alcotest.failf "%d draws allocated %.0f minor words (bound 0)" n words;
  let reference = Prg.create 3L in
  for i = 0 to n - 1 do
    if not (Int64.equal (Bytes.get_int64_ne plane (8 * i)) (Prg.next_int64 reference)) then
      Alcotest.failf "draw %d differs from next_int64" i
  done

let test_prg_below_in_range () =
  let prg = Prg.create 1L in
  for _ = 1 to 1000 do
    let v = Prg.below prg 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

(* [below] allocates nothing per call, and its draws are the rejection
   sampler written with boxed [int64]s: a bound of 3 * 2^60 rejects a
   quarter of the draws, so the retry path runs too. *)
let test_prg_below_no_alloc () =
  let reference t bound =
    let bound64 = Int64.of_int bound in
    let rec loop () =
      let r = Int64.shift_right_logical (Prg.next_int64 t) 1 in
      let v = Int64.rem r bound64 in
      if Int64.sub r v > Int64.sub (Int64.sub Int64.max_int bound64) 1L then loop ()
      else Int64.to_int v
    in
    loop ()
  in
  let bounds = [| 1; 2; 17; 1000; 1 lsl 40; 3 lsl 60; max_int |] in
  let a = Prg.create 11L and b = Prg.create 11L in
  for i = 0 to 9_999 do
    let bound = bounds.(i mod Array.length bounds) in
    Alcotest.(check int) "same draw as the boxed sampler" (reference b bound) (Prg.below a bound)
  done;
  let n = 10_000 in
  let draw prg =
    for i = 0 to n - 1 do
      ignore (Prg.below prg bounds.(i mod Array.length bounds) : int)
    done
  in
  draw (Prg.create 3L);
  let prg = Prg.create 3L in
  let before = Gc.minor_words () in
  draw prg;
  let words = Gc.minor_words () -. before in
  if words > 0. then Alcotest.failf "%d calls of below allocated %.0f minor words (bound 0)" n words

let test_prg_permutation () =
  let prg = Prg.create 3L in
  let p = Prg.permutation prg 100 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 (fun i -> i)) sorted

let test_prg_bits_width () =
  let prg = Prg.create 9L in
  for _ = 1 to 200 do
    let v = Prg.bits prg 20 in
    Alcotest.(check bool) "fits in 20 bits" true (Int64.unsigned_compare v (Int64.shift_left 1L 20) < 0)
  done

(* ------------------------------------------------------------------ *)
(* Zn *)

let test_zn_ops () =
  let r = Zn.create 8 in
  Alcotest.check check_i64 "add wraps" 4L (Zn.add r 250L 10L);
  Alcotest.check check_i64 "sub wraps" 246L (Zn.sub r 0L 10L);
  Alcotest.check check_i64 "mul wraps" 0x90L (Zn.mul r 0x90L 0x31L);
  Alcotest.check check_i64 "neg" 255L (Zn.neg r 1L)

let test_zn_signed () =
  let r = Zn.create 8 in
  Alcotest.(check int) "positive" 100 (Zn.to_signed_int r 100L);
  Alcotest.(check int) "negative" (-1) (Zn.to_signed_int r 255L);
  Alcotest.(check int) "-128" (-128) (Zn.to_signed_int r 128L)

let test_zn_bounds () =
  Alcotest.check_raises "bits=0 rejected"
    (Invalid_argument "Zn.create: ring width 0 bits outside [1, 62]") (fun () ->
      ignore (Zn.create 0));
  Alcotest.check_raises "bits=63 rejected"
    (Invalid_argument "Zn.create: ring width 63 bits outside [1, 62]") (fun () ->
      ignore (Zn.create 63))

(* ------------------------------------------------------------------ *)
(* SHA-256 FIPS vectors *)

let test_sha256_vectors () =
  let check input expected =
    Alcotest.(check string) input expected (Sha256.to_hex (Sha256.digest_string input))
  in
  check "" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  check "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  check "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
  (* one full block boundary: 64 bytes of 'a' *)
  check (String.make 64 'a') "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"

let test_sha256_incremental () =
  (* Feeding byte-by-byte must equal one-shot hashing. *)
  let s = "The quick brown fox jumps over the lazy dog" in
  let t = Sha256.init () in
  String.iter (fun c -> Sha256.feed t (Bytes.make 1 c) 0 1) s;
  Alcotest.(check string) "incremental = one-shot"
    (Sha256.to_hex (Sha256.digest_string s))
    (Sha256.to_hex (Sha256.finish t))

(* ------------------------------------------------------------------ *)
(* Secret sharing *)

let test_share_roundtrip () =
  let ctx = ctx_sim () in
  List.iter
    (fun v ->
      let s = Secret_share.share ctx ~owner:Party.Alice v in
      Alcotest.check check_i64 "reconstruct" (Zn.norm ctx.Context.ring v)
        (Secret_share.reconstruct ctx s))
    [ 0L; 1L; 123456L; 0xFFFFFFFFL; -5L ]

let test_share_linear_ops () =
  let ctx = ctx_sim () in
  let x = Secret_share.share ctx ~owner:Party.Alice 1000L in
  let y = Secret_share.share ctx ~owner:Party.Bob 234L in
  let check name expect s =
    Alcotest.check check_i64 name expect (Secret_share.reconstruct ctx s)
  in
  check "add" 1234L (Secret_share.add ctx x y);
  check "sub" 766L (Secret_share.sub ctx x y);
  check "neg" (Zn.norm ctx.Context.ring (-1000L)) (Secret_share.neg ctx x);
  check "add_public" 1005L (Secret_share.add_public ctx x 5L);
  check "scale" 3000L (Secret_share.scale_public ctx x 3L);
  check "sum" 2234L (Secret_share.sum ctx [ x; y; x ])

let test_share_reveal_costs () =
  let ctx = ctx_sim () in
  let x = Secret_share.share ctx ~owner:Party.Alice 77L in
  let before = Context.tally ctx in
  let v = Secret_share.reveal_to ctx Party.Alice x in
  let after = Context.tally ctx in
  Alcotest.check check_i64 "revealed value" 77L v;
  let d = Comm.diff after before in
  Alcotest.(check int) "bob sent one ring element" (Zn.bits ctx.Context.ring)
    d.Comm.bob_to_alice_bits;
  Alcotest.(check int) "alice sent nothing" 0 d.Comm.alice_to_bob_bits

let test_share_uniform_shares () =
  (* Alice's share of a Bob-owned constant must vary with randomness. *)
  let ctx = ctx_sim () in
  let shares = List.init 20 (fun _ -> (Secret_share.share ctx ~owner:Party.Bob 5L).Secret_share.a) in
  let distinct = List.sort_uniq compare shares in
  Alcotest.(check bool) "shares look random" true (List.length distinct > 10)

(* OT-based products: an l-bit batch of m products under one backend,
   returning the reconstructed products and the ledger delta. *)
let run_mul_batch backend ~l xs ys =
  let ctx = Context.create ~bits:l ~gc_backend:backend ~seed:11L () in
  let share owner v = Secret_share.share ctx ~owner v in
  let sx = Array.map (share Party.Alice) xs and sy = Array.map (share Party.Bob) ys in
  let before = Context.counter_totals ctx in
  let z = Secret_share.mul_batch ctx sx sy in
  let delta = Array.map2 ( - ) (Context.counter_totals ctx) before in
  (Array.map (Secret_share.reconstruct ctx) z, delta)

(* An l-bit operand: the wraparound boundaries 2^l - 1 and 2^(l-1), 0, 1,
   or uniform. *)
let mul_operand ~l st =
  let r = Zn.create l in
  match Random.State.int st 5 with
  | 0 -> Int64.sub (Zn.modulus r) 1L
  | 1 -> Int64.shift_left 1L (l - 1)
  | 2 -> 0L
  | 3 -> 1L
  | _ -> Zn.norm r (Random.State.int64 st Int64.max_int)

(* Products equal [Zn.mul] under both backends, at every width and at
   batch sizes 0, 1 and random; Real and Sim tallies are equal, the cost
   is exactly m·(l·kappa + l(l+1)/2) bits each way in 2 rounds with 2ml
   OTs and no AND gates, and a same-shape batch of other values costs the
   same. *)
let mul_batch_matches_zn =
  QCheck.Test.make ~count:150 ~name:"mul_batch = Zn.mul, exact cost"
    QCheck.(triple (int_range 1 62) (int_range 0 2) int)
    (fun (l, size, seed) ->
      let st = Random.State.make [| seed |] in
      let m = match size with 0 -> 0 | 1 -> 1 | _ -> 2 + Random.State.int st 30 in
      let operands () = Array.init m (fun _ -> mul_operand ~l st) in
      let xs = operands () and ys = operands () in
      let ring = Zn.create l in
      let expected = Array.map2 (Zn.mul ring) xs ys in
      let real, real_cost = run_mul_batch Context.Real ~l xs ys in
      let sim, sim_cost = run_mul_batch Context.Sim ~l xs ys in
      let _, twin_cost = run_mul_batch Context.Real ~l (operands ()) (operands ()) in
      let count c cost = cost.(Trace_sink.counter_index c) in
      let bits = m * ((l * 128) + (l * (l + 1) / 2)) in
      real = expected && sim = expected && real_cost = sim_cost && twin_cost = real_cost
      && count Trace_sink.Alice_to_bob_bits real_cost = bits
      && count Trace_sink.Bob_to_alice_bits real_cost = bits
      && count Trace_sink.Rounds real_cost = (if m = 0 then 0 else 2)
      && count Trace_sink.Sends real_cost = (if m = 0 then 0 else 4)
      && count Trace_sink.Ots real_cost = 2 * m * l
      && count Trace_sink.And_gates real_cost = 0)

let test_mul_batch_cost_model () =
  Alcotest.(check (pair int int)) "52-bit product, kappa 128" (6656, 1378)
    (Cost_model.ot_product_bits ~bits:52);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Secret_share.mul_batch: 1 left operands, 0 right") (fun () ->
      ignore (Secret_share.mul_batch (ctx_sim ()) [| Secret_share.zero |] [||]))

(* ------------------------------------------------------------------ *)
(* Word circuits vs int64 reference semantics *)

let eval_word_circuit ~bits ~n_inputs f values =
  (* Build a circuit over [n_inputs] words, evaluate in the clear, and
     return the single output word as an int64. *)
  let module Bb = Boolean_circuit.Builder in
  let b = Bb.create () in
  let words = Array.init n_inputs (fun _ -> Circuits.input_word b bits) in
  let out = f b words in
  let out = Circuits.materialize_word b 0 out in
  let circuit = Bb.finalize b ~outputs:out in
  let input_bits =
    Array.concat (List.map (fun v -> Circuits.bool_array_of_int64 ~bits v) (Array.to_list values))
  in
  Circuits.int64_of_bool_array (Boolean_circuit.eval circuit input_bits)

let mask32 v = Int64.logand v 0xFFFFFFFFL

let qcheck_word2 name f_circuit f_ref =
  QCheck.Test.make ~count:200 ~name
    QCheck.(pair (map Int64.abs int64) (map Int64.abs int64))
    (fun (x, y) ->
      let x = mask32 x and y = mask32 y in
      let got = eval_word_circuit ~bits:32 ~n_inputs:2 (fun b w -> f_circuit b w.(0) w.(1)) [| x; y |] in
      Int64.equal got (mask32 (f_ref x y)))

let circuit_add = qcheck_word2 "circuit add = int64 add" Circuits.add_word Int64.add
let circuit_sub = qcheck_word2 "circuit sub = int64 sub" Circuits.sub_word Int64.sub
let circuit_mul = qcheck_word2 "circuit mul = int64 mul" Circuits.mul_word Int64.mul

let circuit_eq =
  QCheck.Test.make ~count:200 ~name:"circuit eq"
    QCheck.(pair (int_bound 1000) (int_bound 1000))
    (fun (x, y) ->
      let x = Int64.of_int x and y = Int64.of_int y in
      let got =
        eval_word_circuit ~bits:32 ~n_inputs:2
          (fun b w -> [| Circuits.eq_word b w.(0) w.(1) |])
          [| x; y |]
      in
      Int64.equal got (if Int64.equal x y then 1L else 0L))

let circuit_lt =
  QCheck.Test.make ~count:200 ~name:"circuit lt (unsigned)"
    QCheck.(pair (map Int64.abs int64) (map Int64.abs int64))
    (fun (x, y) ->
      let x = mask32 x and y = mask32 y in
      let got =
        eval_word_circuit ~bits:32 ~n_inputs:2
          (fun b w -> [| Circuits.lt_word b w.(0) w.(1) |])
          [| x; y |]
      in
      Int64.equal got (if Int64.unsigned_compare x y < 0 then 1L else 0L))

let circuit_divmod =
  QCheck.Test.make ~count:100 ~name:"circuit divmod"
    QCheck.(pair (int_bound 1_000_000) (int_range 1 5000))
    (fun (x, y) ->
      let x64 = Int64.of_int x and y64 = Int64.of_int y in
      let q =
        eval_word_circuit ~bits:32 ~n_inputs:2 (fun b w -> Circuits.div_word b w.(0) w.(1))
          [| x64; y64 |]
      in
      let r =
        eval_word_circuit ~bits:32 ~n_inputs:2
          (fun b w -> snd (Circuits.divmod_word b w.(0) w.(1)))
          [| x64; y64 |]
      in
      Int64.equal q (Int64.of_int (x / y)) && Int64.equal r (Int64.of_int (x mod y)))

let circuit_mux =
  QCheck.Test.make ~count:100 ~name:"circuit mux"
    QCheck.(triple bool (int_bound 100000) (int_bound 100000))
    (fun (sel, x, y) ->
      let x = Int64.of_int x and y = Int64.of_int y in
      let got =
        eval_word_circuit ~bits:32 ~n_inputs:3
          (fun b w -> Circuits.mux_word b ~sel:w.(0).(0) w.(1) w.(2))
          [| (if sel then 1L else 0L); x; y |]
      in
      Int64.equal got (if sel then x else y))

let circuit_nonzero =
  QCheck.Test.make ~count:100 ~name:"circuit nonzero"
    QCheck.(int_bound 1000)
    (fun x ->
      let got =
        eval_word_circuit ~bits:32 ~n_inputs:1
          (fun b w -> [| Circuits.nonzero_word b w.(0) |])
          [| Int64.of_int x |]
      in
      Int64.equal got (if x <> 0 then 1L else 0L))

let test_and_count_add () =
  (* Ripple-carry add over n bits uses n-1 AND gates. *)
  let module Bb = Boolean_circuit.Builder in
  let b = Bb.create () in
  let x = Circuits.input_word b 32 and y = Circuits.input_word b 32 in
  let s = Circuits.add_word b x y in
  let c = Bb.finalize b ~outputs:(Circuits.materialize_word b 0 s) in
  Alcotest.(check int) "adder AND count" 31 (Boolean_circuit.and_count c)

(* Clear evaluation runs over a one-byte-per-wire plane: on the
   8,009-gate x * y + z circuit it allocates the output array and the
   plane, never a word per gate. *)
let test_eval_no_per_gate_alloc () =
  let module Bb = Boolean_circuit.Builder in
  let b = Bb.create () in
  let word () = Circuits.input_word b 52 in
  let x = word () and y = word () and z = word () in
  let out = Circuits.add_word b (Circuits.mul_word b x y) z in
  let circuit = Bb.finalize b ~outputs:(Circuits.materialize_word b 0 out) in
  Alcotest.(check bool) "at least 8k gates" true (Boolean_circuit.n_gates circuit >= 8000);
  let inputs = Array.init circuit.Boolean_circuit.n_inputs (fun i -> i mod 3 = 0) in
  ignore (Boolean_circuit.eval circuit inputs : bool array);
  let before = Gc.minor_words () in
  ignore (Boolean_circuit.eval circuit inputs : bool array);
  let words = Gc.minor_words () -. before in
  let bound =
    (Boolean_circuit.n_outputs circuit + 1)
    + ((Boolean_circuit.n_wires circuit / 8) + 2)
    + 16
  in
  if words > float_of_int bound then
    Alcotest.failf "eval allocated %.0f minor words (bound %d)" words bound

(* ------------------------------------------------------------------ *)
(* Garbling: random circuits decode to the clear evaluation *)

let random_circuit prg ~n_inputs ~n_gates =
  let module Bb = Boolean_circuit.Builder in
  let b = Bb.create () in
  let wires = ref (Array.to_list (Bb.inputs b n_inputs)) in
  let pick () =
    let l = !wires in
    List.nth l (Prg.below prg (List.length l))
  in
  for _ = 1 to n_gates do
    let w =
      match Prg.below prg 3 with
      | 0 -> Bb.band b (pick ()) (pick ())
      | 1 -> Bb.bxor b (pick ()) (pick ())
      | _ -> Bb.bnot b (pick ())
    in
    wires := w :: !wires
  done;
  let outputs =
    Array.of_list (List.filteri (fun i _ -> i < 8) !wires)
    |> Array.map (fun v -> Bb.materialize b 0 v)
  in
  Bb.finalize b ~outputs

let test_garbling_matches_clear () =
  let arena = Garbling.Arena.create () in
  let prg = Prg.create 99L in
  for _trial = 1 to 50 do
    let circuit = random_circuit prg ~n_inputs:6 ~n_gates:40 in
    let inputs = Array.init 6 (fun _ -> Prg.bool prg) in
    let expected = Boolean_circuit.eval circuit inputs in
    let g = Garbling.garble ~arena prg circuit in
    let labels = Array.mapi (fun i b -> Garbling.encode_input g i b) inputs in
    let out_labels = Garbling.eval_labels ~arena g labels in
    let got = Array.mapi (fun i l -> Garbling.decode_output g ~out_index:i l) out_labels in
    Alcotest.(check (array bool)) "garbling = clear" expected got
  done

let test_garbling_label_privacy () =
  (* The two labels of an input wire differ and have opposite colors. *)
  let prg = Prg.create 5L in
  let circuit = random_circuit prg ~n_inputs:4 ~n_gates:10 in
  let g = Garbling.garble ~arena:(Garbling.Arena.create ()) prg circuit in
  for i = 0 to 3 do
    let l0 = Garbling.encode_input g i false and l1 = Garbling.encode_input g i true in
    Alcotest.(check bool) "labels differ" false (Garbling.Label.equal l0 l1);
    Alcotest.(check bool) "colors differ" true
      (Garbling.Label.color l0 <> Garbling.Label.color l1)
  done

(* The unboxed Bytes-plane implementation is bit-identical to the boxed
   reference it replaced: same labels at the protocol boundary, same
   decode bits, same evaluation — on random circuits. *)
let test_garbling_unboxed_matches_reference () =
  let prg = Prg.create 123L in
  let arena = Garbling.Arena.create () in
  for _trial = 1 to 20 do
    let circuit = random_circuit prg ~n_inputs:6 ~n_gates:40 in
    let inputs = Array.init 6 (fun _ -> Prg.bool prg) in
    let seed = Prg.next_int64 prg in
    let g = Garbling.garble ~arena (Prg.create seed) circuit in
    let r = Garbling_reference.garble (Prg.create seed) circuit in
    for i = 0 to 5 do
      List.iter
        (fun b ->
          Alcotest.(check bool) "input labels identical" true
            (Garbling.Label.equal (Garbling.encode_input g i b)
               (Garbling_reference.encode_input r i b)))
        [ false; true ]
    done;
    let labels = Array.mapi (fun i b -> Garbling.encode_input g i b) inputs in
    let out = Garbling.eval_labels ~arena g labels in
    let out_ref = Garbling_reference.eval_labels r labels in
    Array.iteri
      (fun i l ->
        Alcotest.(check bool) "output labels identical" true
          (Garbling.Label.equal l out_ref.(i));
        Alcotest.(check bool) "decode identical"
          (Garbling_reference.decode_output r ~out_index:i out_ref.(i))
          (Garbling.decode_output g ~out_index:i l))
      out;
    let expected = Boolean_circuit.eval circuit inputs in
    Alcotest.(check (array bool)) "unboxed = clear" expected
      (Array.mapi (fun i l -> Garbling.decode_output g ~out_index:i l) out)
  done

(* One arena across interleaved garble/eval of circuits of different
   shapes: the planes grow on the big circuit, then get reused (with
   stale tail bytes) on the small ones; every result must match the
   clear evaluation and a garbling on a second, fresh arena. *)
let test_garbling_arena_reuse () =
  let prg = Prg.create 321L in
  let arena = Garbling.Arena.create () in
  for _round = 1 to 6 do
    List.iter
      (fun (n_inputs, n_gates) ->
        let circuit = random_circuit prg ~n_inputs ~n_gates in
        let inputs = Array.init n_inputs (fun _ -> Prg.bool prg) in
        let seed = Prg.next_int64 prg in
        let g = Garbling.garble ~arena (Prg.create seed) circuit in
        let colors = Garbling.eval_colors ~arena g (fun i -> inputs.(i)) in
        let got =
          Array.init (Boolean_circuit.n_outputs circuit) (fun i ->
              Bytes.get colors i = '\001' <> Garbling.decode_bit g i)
        in
        Alcotest.(check (array bool)) "arena garble/eval = clear"
          (Boolean_circuit.eval circuit inputs)
          got;
        let fresh = Garbling.Arena.create () in
        let g2 = Garbling.garble ~arena:fresh (Prg.create seed) circuit in
        let labels = Array.mapi (fun i b -> Garbling.encode_input g2 i b) inputs in
        let out = Garbling.eval_labels ~arena:fresh g2 labels in
        Alcotest.(check (array bool)) "fresh buffers agree" got
          (Array.mapi (fun i l -> Garbling.decode_output g2 ~out_index:i l) out))
      [ (6, 40); (4, 200); (8, 12) ]
  done

(* DESIGN.md §14's allocation-free garbling kernels: garble + evaluate of
   the 32-bit multiplier through the unboxed arena path allocates at least
   10x fewer minor words per AND gate than the boxed reference, and at
   most 1 word per AND gate outright. The 52-bit equality test (the
   reveal's nonzero test: 104 input labels for 51 ANDs, so the input
   labels dominate) stays within 16 words per AND. Counts, not timings:
   the figures are deterministic for a given compiler. *)
let test_garbling_alloc_per_and () =
  let module Bb = Boolean_circuit.Builder in
  let circuit_of build =
    let b = Bb.create () in
    Bb.finalize b ~outputs:(build b)
  in
  let multiplier =
    circuit_of (fun b ->
        let x = Circuits.input_word b 32 and y = Circuits.input_word b 32 in
        Circuits.materialize_word b 0 (Circuits.mul_word b x y))
  in
  let equality =
    circuit_of (fun b ->
        let x = Circuits.input_word b 52 and y = Circuits.input_word b 52 in
        [| Circuits.eq_word b x y |])
  in
  let input_bit i = i land 1 = 1 in
  let reps = 32 in
  let minor_words_per_and circuit f =
    (* warm up first: arenas grown, lazy state forced *)
    f ();
    let before = Gc.minor_words () in
    for _ = 1 to reps do
      f ()
    done;
    (Gc.minor_words () -. before) /. float_of_int (reps * Boolean_circuit.and_count circuit)
  in
  let boxed_prg = Prg.create 9L in
  let boxed =
    minor_words_per_and multiplier (fun () ->
        let g = Garbling_reference.garble boxed_prg multiplier in
        let labels =
          Array.init multiplier.Boolean_circuit.n_inputs (fun i ->
              Garbling_reference.encode_input g i (input_bit i))
        in
        ignore (Garbling_reference.eval_labels g labels : Garbling.Label.t array))
  in
  let arena = Garbling.Arena.create () in
  let unboxed_prg = Prg.create 9L in
  let unboxed circuit =
    minor_words_per_and circuit (fun () ->
        let g = Garbling.garble ~arena unboxed_prg circuit in
        ignore (Garbling.eval_colors ~arena g input_bit : Bytes.t))
  in
  Alcotest.(check int) "32-bit multiplier AND gates" 993 (Boolean_circuit.and_count multiplier);
  Alcotest.(check int) "52-bit equality AND gates" 51 (Boolean_circuit.and_count equality);
  let mul_words = unboxed multiplier and eq_words = unboxed equality in
  if mul_words > 1. then
    Alcotest.failf "unboxed garble+eval allocates %.2f minor words per AND (bound 1)" mul_words;
  if eq_words > 16. then
    Alcotest.failf "52-bit equality garble+eval allocates %.2f minor words per AND (bound 16)"
      eq_words;
  if boxed < 10. *. mul_words then
    Alcotest.failf "boxed/unboxed minor words per AND = %.2f / %.2f < 10x" boxed mul_words

(* ------------------------------------------------------------------ *)
(* GC protocol: Real and Sim agree on values and on communication *)

let run_gc ctx =
  (* (x + y) * z with x, y private and z shared *)
  let z = Secret_share.share ctx ~owner:Party.Alice 7L in
  let shares =
    Gc_protocol.eval_to_shares ctx
      ~inputs:
        [
          Gc_protocol.Priv { owner = Party.Alice; value = 10L; bits = 32 };
          Gc_protocol.Priv { owner = Party.Bob; value = 32L; bits = 32 };
          Gc_protocol.Shared z;
        ]
      ~build:(fun b words ->
        let s = Circuits.add_word b words.(0) words.(1) in
        [ Circuits.mul_word b s words.(2) ])
  in
  Secret_share.reconstruct ctx shares.(0)

let test_gc_real () =
  Alcotest.check check_i64 "(10+32)*7 (real)" 294L (run_gc (ctx_real ()))

let test_gc_sim () = Alcotest.check check_i64 "(10+32)*7 (sim)" 294L (run_gc (ctx_sim ()))

let test_gc_backends_same_cost () =
  let cost ctx =
    let _ = run_gc ctx in
    Context.tally ctx
  in
  let real = cost (ctx_real ()) and sim = cost (ctx_sim ()) in
  Alcotest.(check bool) "identical tallies" true (Comm.equal real sim)

let test_gc_reveal () =
  List.iter
    (fun ctx ->
      let got =
        Gc_protocol.eval_reveal ctx ~to_:Party.Alice
          ~inputs:
            [
              Gc_protocol.Priv { owner = Party.Alice; value = 100L; bits = 32 };
              Gc_protocol.Priv { owner = Party.Bob; value = 42L; bits = 32 };
            ]
          ~build:(fun b words -> [ Circuits.sub_word b words.(0) words.(1) ])
      in
      Alcotest.check check_i64 "100-42 revealed" 58L got.(0))
    [ ctx_real (); ctx_sim () ]

(* Every item of a batch runs on the circuit built from the first item's
   shape, so both batch entry points reject an item of a different input
   width before anything is evaluated or accounted. *)
let test_gc_batch_shape_mismatch () =
  let item bits = [ Gc_protocol.Priv { owner = Party.Bob; value = 5L; bits } ] in
  let items = [| item 8; item 16 |] in
  let build _ (words : Circuits.word array) = [ words.(0) ] in
  List.iter
    (fun (backend, ctx) ->
      let rejects entry f =
        let before = Context.tally ctx in
        (match f () with
        | () -> Alcotest.failf "%s %s accepted a mismatched batch" backend entry
        | exception Invalid_argument _ -> ());
        Alcotest.(check bool)
          (Printf.sprintf "%s %s accounts nothing" backend entry)
          true
          (Comm.equal before (Context.tally ctx))
      in
      rejects "eval_to_shares_batch" (fun () ->
          ignore (Gc_protocol.eval_to_shares_batch ctx ~items ~build));
      rejects "eval_reveal_batch" (fun () ->
          ignore (Gc_protocol.eval_reveal_batch ctx ~to_:Party.Alice ~items ~build)))
    [ ("sim", ctx_sim ()); ("real", ctx_real ()) ]

let gc_random_agreement =
  QCheck.Test.make ~count:50 ~name:"gc real/sim agree on random mul-add"
    QCheck.(triple (int_bound 10000) (int_bound 10000) (int_bound 10000))
    (fun (x, y, z) ->
      let run ctx =
        let zs = Secret_share.share ctx ~owner:Party.Bob (Int64.of_int z) in
        let shares =
          Gc_protocol.eval_to_shares ctx
            ~inputs:
              [
                Gc_protocol.Priv { owner = Party.Alice; value = Int64.of_int x; bits = 32 };
                Gc_protocol.Priv { owner = Party.Bob; value = Int64.of_int y; bits = 32 };
                Gc_protocol.Shared zs;
              ]
            ~build:(fun b words ->
              [ Circuits.add_word b (Circuits.mul_word b words.(0) words.(1)) words.(2) ])
        in
        Secret_share.reconstruct ctx shares.(0)
      in
      let expect = mask32 (Int64.of_int ((x * y) + z)) in
      Int64.equal (run (ctx_real ())) expect && Int64.equal (run (ctx_sim ())) expect)

(* ------------------------------------------------------------------ *)
(* Domain pool *)

let test_pool_covers_indices () =
  List.iter
    (fun (size, hang_timeout_s) ->
      let pool = Domain_pool.create ?hang_timeout_s size in
      let n = 1000 in
      let hits = Array.make n 0 in
      Domain_pool.run pool ~n ~f:(fun i -> hits.(i) <- hits.(i) + 1);
      Domain_pool.shutdown pool;
      Alcotest.(check bool)
        (Printf.sprintf "each index exactly once (size %d%s)" size
           (if hang_timeout_s = None then "" else ", watched"))
        true
        (Array.for_all (fun h -> h = 1) hits))
    [ (1, None); (2, None); (4, None); (1, Some 10.); (2, Some 10.) ]

(* A failing item surfaces as the typed [Item_raised]. Items that do
   not fail take 0.5 ms so the fail-fast abort reliably lands first. *)
let check_item_raised ~msg ?item f =
  match f () with
  | () -> Alcotest.fail "the item exception must fail the batch"
  | exception Domain_pool.Pool_failure (Domain_pool.Item_raised { item = i; exn }) ->
      Option.iter (fun item -> Alcotest.(check int) "faulting item named" item i) item;
      Alcotest.(check bool) "original exception carried" true (exn = Failure msg)
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)

let test_pool_propagates_exn () =
  let pool = Domain_pool.create 3 in
  let ran = Atomic.make 0 in
  check_item_raised ~msg:"boom" ~item:17 (fun () ->
      Domain_pool.run pool ~n:64 ~f:(fun i ->
          Atomic.incr ran;
          if i = 17 then failwith "boom" else Unix.sleepf 0.0005));
  Alcotest.(check bool) "fail-fast skipped the tail" true (Atomic.get ran < 64);
  Alcotest.(check bool) "an item fault does not poison" false (Domain_pool.poisoned pool);
  (* the pool survives a failed batch *)
  let total = Atomic.make 0 in
  Domain_pool.run pool ~n:10 ~f:(fun i -> ignore (Atomic.fetch_and_add total i));
  Domain_pool.shutdown pool;
  Alcotest.(check int) "usable after a failure" 45 (Atomic.get total)

let test_pool_shutdown_after_worker_exn () =
  (* Every item raises, so exceptions surface inside worker domains too
     (not only on the calling domain); the pool must neither wedge on
     shutdown nor leak its domains. *)
  let pool = Domain_pool.create 4 in
  check_item_raised ~msg:"every item dies" (fun () ->
      Domain_pool.run pool ~n:128 ~f:(fun _ -> failwith "every item dies"));
  Domain_pool.shutdown pool;
  (* domains were joined, not leaked: a fresh full-size pool spawns and
     runs immediately *)
  let pool2 = Domain_pool.create 4 in
  let total = Atomic.make 0 in
  Domain_pool.run pool2 ~n:100 ~f:(fun i -> ignore (Atomic.fetch_and_add total i));
  Domain_pool.shutdown pool2;
  Alcotest.(check int) "fresh pool fully functional" 4950 (Atomic.get total)

let test_context_shutdown_pool_after_failing_batch () =
  let ctx = Context.create ~domains:3 ~seed:11L () in
  let pool = Context.pool ctx in
  check_item_raised ~msg:"batch dies" (fun () ->
      Domain_pool.run pool ~n:32 ~f:(fun i -> if i land 1 = 0 then failwith "batch dies"));
  (* the failed batch left no job pending: shutdown joins promptly *)
  Context.shutdown_pool ctx;
  Context.shutdown_pool ctx;
  (* and the context still runs (sequentially) after its pool is gone *)
  Domain_pool.run pool ~n:4 ~f:(fun _ -> ())

let test_pool_shutdown_idempotent () =
  let pool = Domain_pool.create 2 in
  Domain_pool.run pool ~n:4 ~f:(fun _ -> ());
  Domain_pool.shutdown pool;
  Domain_pool.shutdown pool;
  (* runs after shutdown degrade to the sequential loop, still correct *)
  let hits = Array.make 8 false in
  Domain_pool.run pool ~n:8 ~f:(fun i -> hits.(i) <- true);
  Alcotest.(check bool) "sequential fallback after shutdown" true (Array.for_all Fun.id hits)

(* Every participant's busy + waits accounts for its wall clock, for
   both caller roles and the sequential loop: an unwatched pool (the
   caller claims), a watched pool of size k (k claiming workers plus the
   watching caller, which claims nothing), and an unwatched size-1 pool
   (sequential, all on the caller). *)
let test_pool_timelines_account_wall () =
  List.iter
    (fun (size, hang_timeout_s, participants) ->
      let label =
        Printf.sprintf "size %d%s" size (if hang_timeout_s = None then "" else " watched")
      in
      let pool = Domain_pool.create ?hang_timeout_s size in
      Alcotest.(check int) (label ^ ": size counts claimants") size (Domain_pool.size pool);
      Domain_pool.run pool ~n:12 ~f:(fun i ->
          ignore (Sys.opaque_identity (Array.init ((i * 53 mod 400) + 100) Fun.id)));
      (* the workers park between batches: a snapshot taken then counts
         the park so far *)
      Unix.sleepf 0.05;
      let tls = Domain_pool.timelines pool in
      Alcotest.(check int) (label ^ ": one timeline per participant") participants
        (List.length tls);
      Alcotest.(check int) (label ^ ": every item accounted") 12
        (List.fold_left (fun acc tl -> acc + tl.Domain_pool.items) 0 tls);
      let caller = List.hd tls in
      Alcotest.(check bool) (label ^ ": caller wall recorded") true
        (caller.Domain_pool.wall_ns > 0.);
      if hang_timeout_s <> None then
        Alcotest.(check int) (label ^ ": watching caller claims nothing") 0
          caller.Domain_pool.items;
      List.iter
        (fun tl ->
          let accounted =
            tl.Domain_pool.busy_ns +. tl.Domain_pool.queue_wait_ns
            +. tl.Domain_pool.lock_wait_ns
          in
          (* busy + waits accounts for the wall clock (5% slack plus 1ms of
             clock-read noise on very short runs) *)
          Alcotest.(check bool)
            (Printf.sprintf "%s: domain %d accounted <= wall" label tl.Domain_pool.domain)
            true
            (accounted <= (tl.Domain_pool.wall_ns *. 1.05) +. 1e6);
          Alcotest.(check bool)
            (Printf.sprintf "%s: domain %d accounted >= 90%% of wall" label
               tl.Domain_pool.domain)
            true
            (accounted >= (tl.Domain_pool.wall_ns *. 0.9) -. 1e6);
          if tl.Domain_pool.items > 0 then begin
            Alcotest.(check bool) "claimed at least one batch" true
              (tl.Domain_pool.batches >= 1);
            Alcotest.(check bool) "busy time recorded" true (tl.Domain_pool.busy_ns > 0.)
          end)
        tls;
      Domain_pool.reset_timelines pool;
      List.iter
        (fun tl ->
          Alcotest.(check int) "items zeroed" 0 tl.Domain_pool.items;
          Alcotest.(check int) "batches zeroed" 0 tl.Domain_pool.batches;
          Alcotest.(check (float 0.)) "busy zeroed" 0. tl.Domain_pool.busy_ns)
        (Domain_pool.timelines pool);
      Domain_pool.shutdown pool)
    [ (2, None, 2); (2, Some 10., 3); (1, Some 10., 2); (1, None, 1) ]

(* ------------------------------------------------------------------ *)
(* Parallel batches: determinism across pool sizes, agreement across
   KDFs and backends *)

(* One randomized batch through both batch entry points. The input values
   come from a PRG independent of the context, so every run over the same
   [seed] sees the same items. *)
let gc_batch_fixture ctx ~n_items =
  let prg = Prg.create 2024L in
  let items =
    Array.init n_items (fun _ ->
        [
          Gc_protocol.Priv { owner = Party.Alice; value = Prg.bits prg 16; bits = 32 };
          Gc_protocol.Priv { owner = Party.Bob; value = Prg.bits prg 16; bits = 32 };
        ])
  in
  let build b words =
    [ Circuits.mul_word b words.(0) words.(1); Circuits.add_word b words.(0) words.(1) ]
  in
  let shares = Gc_protocol.eval_to_shares_batch ctx ~items ~build in
  let revealed = Gc_protocol.eval_reveal_batch ctx ~to_:Party.Bob ~items ~build in
  (shares, revealed)

let gc_batch_expected ~n_items =
  let prg = Prg.create 2024L in
  Array.init n_items (fun _ ->
      let x = Prg.bits prg 16 and y = Prg.bits prg 16 in
      [| mask32 (Int64.mul x y); mask32 (Int64.add x y) |])

let gc_run_instrumented ~domains ~backend =
  let ctx = Context.create ~gc_backend:backend ~domains ~seed:42L () in
  let shares, revealed = gc_batch_fixture ctx ~n_items:17 in
  let tally = Context.tally ctx in
  let counts = Context.counter_totals ctx in
  Context.shutdown_pool ctx;
  (shares, revealed, tally, counts)

let test_gc_parallel_deterministic () =
  List.iter
    (fun backend ->
      let s0, r0, t0, c0 = gc_run_instrumented ~domains:1 ~backend in
      Alcotest.(check bool) "values correct" true (r0 = gc_batch_expected ~n_items:17);
      List.iter
        (fun domains ->
          let s1, r1, t1, c1 = gc_run_instrumented ~domains ~backend in
          Alcotest.(check bool) "shares bit-identical" true (s0 = s1);
          Alcotest.(check bool) "revealed values identical" true (r0 = r1);
          Alcotest.(check bool) "comm tally identical" true (Comm.equal t0 t1);
          Alcotest.(check (array int)) "primitive counters identical" c0 c1)
        [ 2; 4; 8 ])
    [ Context.Real; Context.Sim ]

(* One context through batches of changing widths: the per-item context
   cache grows, gets reused as a prefix, and regrows; every batch must
   still reveal the right values. *)
let test_gc_batch_cache_reuse () =
  let ctx = Context.create ~gc_backend:Context.Real ~domains:2 ~seed:42L () in
  List.iter
    (fun n_items ->
      let _, revealed = gc_batch_fixture ctx ~n_items in
      Alcotest.(check bool)
        (Printf.sprintf "batch of %d correct" n_items)
        true
        (revealed = gc_batch_expected ~n_items))
    [ 5; 17; 3; 17; 1; 8 ];
  Context.shutdown_pool ctx

(* The two backends agree on everything the protocol exposes: Real
   garbles and evaluates with the default fixed-key AES KDF, Sim
   evaluates in the clear, and both yield the same outputs and the same
   accounted communication. *)
let gc_run_with ~gc_backend =
  let ctx = Context.create ~gc_backend ~seed:42L () in
  let shares, revealed = gc_batch_fixture ctx ~n_items:13 in
  let reconstructed = Array.map (Array.map (Secret_share.reconstruct ctx)) shares in
  let tally = Context.tally ctx in
  (reconstructed, revealed, tally)

let test_gc_backend_agreement () =
  let r_real, v_real, t_real = gc_run_with ~gc_backend:Context.Real in
  let r_sim, v_sim, t_sim = gc_run_with ~gc_backend:Context.Sim in
  Alcotest.(check bool) "revealed outputs correct" true
    (v_real = gc_batch_expected ~n_items:13);
  Alcotest.(check bool) "reconstructed outputs agree" true (r_real = r_sim);
  Alcotest.(check bool) "revealed outputs agree" true (v_real = v_sim);
  Alcotest.(check bool) "comm tallies agree" true (Comm.equal t_real t_sim)

(* ------------------------------------------------------------------ *)
(* Permutation networks *)

let perm_network_correct =
  QCheck.Test.make ~count:200 ~name:"AS-Waksman realizes its permutation"
    QCheck.(oneof [ int_range 1 64; int_range 65 5000 ])
    (fun n ->
      let prg = Prg.create (Int64.of_int (n * 31)) in
      let perm = Prg.permutation prg n in
      let net = Permutation_network.build perm in
      let out = Permutation_network.apply net (Array.init n (fun i -> i)) in
      Permutation_network.n_switches net = Permutation_network.switch_count_for n
      && Array.for_all (fun j -> out.(j) = perm.(j)) (Array.init n (fun j -> j)))

(* Every permutation of every width 0..7, then one seeded random
   permutation of every width up to 600: odd and even widths at every
   depth, bypass wires and fixed output pairs included. *)
let test_perm_network_realizes_all () =
  let check perm =
    let n = Array.length perm in
    let net = Permutation_network.build perm in
    if Permutation_network.apply net (Array.init n Fun.id) <> perm then
      Alcotest.failf "width %d: network does not realize [%s]" n
        (String.concat "; " (Array.to_list (Array.map string_of_int perm)))
  in
  let rec perms = function
    | [] -> [ [] ]
    | xs -> List.concat_map (fun x -> List.map (List.cons x) (perms (List.filter (( <> ) x) xs))) xs
  in
  for n = 0 to 7 do
    List.iter (fun p -> check (Array.of_list p)) (perms (List.init n Fun.id))
  done;
  for n = 8 to 600 do
    check (Prg.permutation (Prg.create (Int64.of_int n)) n)
  done

let test_perm_network_switch_count () =
  (* AS-Waksman over w wires has Σᵢ₌₁..w ⌈log₂ i⌉ switches, and its
     recursion S(w) = w - 1 + S(⌊w/2⌋) + S(⌈w/2⌉) agrees. *)
  Alcotest.(check int) "n=8" 17 (Permutation_network.switch_count_for 8);
  Alcotest.(check int) "n=16" 49 (Permutation_network.switch_count_for 16);
  Alcotest.(check int) "n=2" 1 (Permutation_network.switch_count_for 2);
  let s = Permutation_network.switch_count_for in
  let rec ceil_log2 i = if i <= 1 then 0 else 1 + ceil_log2 ((i + 1) / 2) in
  let sum = ref 0 in
  for w = 0 to 2048 do
    if w >= 1 then sum := !sum + ceil_log2 w;
    if s w <> !sum then Alcotest.failf "w=%d: %d switches, expected %d" w (s w) !sum;
    if w >= 2 && s w <> w - 1 + s (w / 2) + s (w - (w / 2)) then
      Alcotest.failf "w=%d: %d switches break the recursion" w (s w)
  done;
  (* 0 or 1 wires: no switch, data passes through *)
  List.iter
    (fun n ->
      let name = Printf.sprintf "n=%d" n in
      let net = Permutation_network.build (Array.init n (fun i -> i)) in
      Alcotest.(check int) name 0 (Permutation_network.switch_count_for n);
      Alcotest.(check int) (name ^ " built") 0 (Permutation_network.n_switches net);
      Alcotest.(check (array string)) (name ^ " passes through")
        (Array.make n "x") (Permutation_network.apply net (Array.make n "x")))
    [ 0; 1 ]

let hex_digest s = Sha256.to_hex (Sha256.digest_string s)

(* Golden programs, captured from the AS-Waksman router when it
   replaced the padded Beneš one. The control digest is a SHA-256 over
   each switch's swap byte in switch order; the endpoint digest is a
   SHA-256 over each switch's [(a, b)] as two 64-bit little-endian ints,
   which pins the implicit layout that [iter_switches] derives. The
   widths cover odd and even subnetworks at every depth. *)
let test_perm_network_golden () =
  let endpoint_digest net =
    let buf = Buffer.create (16 * Permutation_network.n_switches net) in
    Permutation_network.iter_switches net (fun a b _ ->
        Buffer.add_int64_le buf (Int64.of_int a);
        Buffer.add_int64_le buf (Int64.of_int b));
    hex_digest (Buffer.contents buf)
  in
  List.iter
    (fun (n, switches, controls, endpoints) ->
      let net = Permutation_network.build (Prg.permutation (Prg.create (Int64.of_int n)) n) in
      let name = Printf.sprintf "width %d" n in
      Alcotest.(check int) (name ^ " switches") switches (Permutation_network.n_switches net);
      Alcotest.(check string) (name ^ " controls") controls
        (hex_digest (Bytes.to_string net.Permutation_network.controls));
      Alcotest.(check string) (name ^ " endpoints") endpoints (endpoint_digest net))
    [
      ( 2, 1, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db" );
      ( 3, 3, "75c8fd04ad916aec3e3d5cb76a452b116b3d4d0912a0a485e9fb8e3d240e210c",
        "eb564e99fde497c42107aff53ccdf5850364af69e43621bca815d2a8b5471e50" );
      ( 5, 8, "167c3d8afd33c12b73b8110418ff82d7e5261628697e47707e9c18ded3dc79f6",
        "5ee09dc53fb474eaa86b1ee2e4601cf5f71b46563ff08d4e96d2d8c62d6d1b4a" );
      ( 8, 17, "91037e7d326ce8f62cca30f47108552b310c95f74b229d3a11cbcd9eaa8bb2f6",
        "d9c9fe3b651a78a33cdb1c86ad687b813f983af26090f4212d157a646c10c7a6" );
      ( 13, 37, "4a2c506e24cf7f76a5e9574d49e8e5480624e72bc468294182ab029ddcb8e588",
        "b087ed0d0cf031ca15d7317b9ec16e442c8a3ba5510e6e41bd94e0634129b8b6" );
      ( 100, 573, "857e2899e889f41895b26788f71600792da06e0cd3975d9c99d6686d24233e36",
        "428e7b11ba1216f8868c6bc307142bfd42d92bdf9944dedeaef65d3b23bcbd4b" );
      ( 1000, 8977, "ce63a93978a1c1c67aab8c8e035c8a5aeb782275343a1c01daab8b5f48d83c94",
        "87cfab6302348164bb2a7e95d85be408f89dc6dbceb6d1c04cb19ad16deb4aa9" );
      ( 4097, 45070, "7244d4877ff6c6a2eff6c0f27e36d81d4a11e90008f9fdbbe19c116318192fb5",
        "f5170b0e39025a1cc66cc9afec42b32142f997223698fcb83efeb7a7e036888c" );
    ]

(* Routing scratch is a few words per wire, allocated once per build: on
   n wires the whole build allocates the per-depth sub-permutations
   below the top one (about n words), the inverse (n), the route plane
   and the control string (one byte per switch), never a word per
   switch. Checked at a power-of-two width and at one that is not. The
   count starts after a full major collection: a major cycle that ends
   inside the measured build makes [Gc.allocated_bytes] report several
   times the words the build allocated (seen on OCaml 5.1), depending on
   what earlier tests left on the heap. *)
let test_perm_network_build_alloc () =
  List.iter
    (fun n ->
      let perm = Prg.permutation (Prg.create (Int64.of_int n)) n in
      ignore (Permutation_network.build perm : Permutation_network.t);
      Gc.full_major ();
      let before = Gc.allocated_bytes () in
      let net = Permutation_network.build perm in
      let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
      let bound = (3 * n) + (Permutation_network.n_switches net / 8) + 256 in
      if words > float_of_int bound then
        Alcotest.failf "build allocated %.0f words on %d wires (bound %d)" words n bound)
    [ 4096; 3000 ]

(* ------------------------------------------------------------------ *)
(* Cuckoo hashing *)

let test_cuckoo_build () =
  let prg = Prg.create 11L in
  let elements = Array.init 500 (fun i -> Int64.of_int ((i * 7919) + 13)) in
  let table = Cuckoo_hash.build prg elements in
  Alcotest.(check bool) "every element in a candidate bin" true
    (Cuckoo_hash.check_table table elements);
  let occupied =
    Array.fold_left (fun acc s -> if s = None then acc else acc + 1) 0 table.Cuckoo_hash.slots
  in
  Alcotest.(check int) "no element lost" 500 occupied

let test_cuckoo_simple_hash_covers () =
  let prg = Prg.create 13L in
  let xs = Array.init 100 (fun i -> Int64.of_int ((i * 31) + 1)) in
  let table = Cuckoo_hash.build prg xs in
  let bins = Cuckoo_hash.simple_hash table.Cuckoo_hash.keys xs in
  (* every x stored in bin b by cuckoo must appear in Bob's simple-hash of
     the same set at bin b *)
  Array.iteri
    (fun b slot ->
      match slot with
      | None -> ()
      | Some x ->
          Alcotest.(check bool) "covered" true
            (List.exists (fun j -> Int64.equal xs.(j) x) bins.(b)))
    table.Cuckoo_hash.slots

let test_cuckoo_build_error () =
  (* An under-provisioned table (more elements than bins) cannot ever be
     built; the typed error reports sizes and load factor. *)
  let prg = Prg.create 17L in
  let elements = Array.init 64 (fun i -> Int64.of_int ((i * 101) + 3)) in
  match Cuckoo_hash.build ~n_bins:16 ~context:"test" prg elements with
  | _ -> Alcotest.fail "expected Build_error for 64 elements in 16 bins"
  | exception Cuckoo_hash.Build_error { elements = m; n_bins; load_factor; attempts; context }
    ->
      Alcotest.(check int) "elements" 64 m;
      Alcotest.(check int) "n_bins" 16 n_bins;
      Alcotest.(check bool) "load factor" true (load_factor > 3.9 && load_factor < 4.1);
      Alcotest.(check bool) "attempts exhausted" true (attempts > 64);
      Alcotest.(check string) "context" "test" context

(* Golden candidate bins and OPPRF outputs, captured from the T-table
   core (Aes128.Table), so the hardware core is pinned to the fallback's
   tables. The elements include 2^60 - 1 and a receiver's empty-bin
   query (bit 62 set); k3 has bit 63 set. *)
let psi_golden_elements = [| 0L; 1L; 0x0fff_ffff_ffff_ffffL; 0x4000_0000_0000_0007L |]

let test_cuckoo_bins_golden () =
  let keys =
    { Cuckoo_hash.k1 = 0x0123456789abcdefL; k2 = -0x5a5a5a5a5a5a5a5bL; k3 = Int64.min_int;
      n_bins = 1021 }
  in
  let table_bin k x =
    Int64.to_int
      (Int64.unsigned_rem (Aes128.Table.label_hash_hi Aes128.fixed_key ~tweak:k 0L x) 1021L)
  in
  let golden = [| [| 338; 469; 859 |]; [| 348; 846; 272 |]; [| 695; 58; 190 |]; [| 134; 77; 187 |] |] in
  Array.iteri
    (fun e x ->
      List.iteri
        (fun which k ->
          let name = Printf.sprintf "element %Lx, hash %d" x which in
          Alcotest.(check int) (name ^ ", T-table") golden.(e).(which) (table_bin k x);
          Alcotest.(check int) name golden.(e).(which) (Cuckoo_hash.bin keys which x))
        [ keys.k1; keys.k2; keys.k3 ])
    psi_golden_elements

let test_oprf_outputs_golden () =
  (* The dealer's first draw on a fresh context is the instance key. *)
  let instance_key = Prg.next_int64 (ctx_sim ()).Context.dealer in
  let mask = 0xff_ffff_ffffL in
  let golden = [| 0x5d9bf7e01cL; 0x7566129f89L; 0xe483c6b9cfL; 0x80c49986e2L |] in
  (* bin 0 programs another point; bin 4 is a programmed hit *)
  let queries = Array.append psi_golden_elements [| 77L |] in
  let programming = [| [ (5L, 9L) ]; []; []; []; [ (77L, 0x1234L) ] |] in
  let got = Oprf.batch (ctx_sim ()) ~sender:Party.Bob ~out_bits:40 ~programming ~queries in
  Array.iteri
    (fun i want ->
      let q = queries.(i) in
      let name = Printf.sprintf "bin %d query %Lx" i q in
      Alcotest.check check_i64 (name ^ ", T-table") want
        (Int64.logand
           (Aes128.Table.label_hash_hi Aes128.fixed_key ~tweak:instance_key (Int64.of_int i) q)
           mask);
      Alcotest.check check_i64 name want got.(i))
    golden;
  Alcotest.check check_i64 "programmed hit" 0x1234L got.(4)

(* Distinct 60-bit elements drawn from [seed]. *)
let distinct_60bit ~seed n =
  let prg = Prg.create seed and seen = Hashtbl.create n in
  let rec draw acc k =
    if k = 0 then Array.of_list acc
    else
      let x = Int64.logand (Prg.next_int64 prg) 0x0fff_ffff_ffff_ffffL in
      if Hashtbl.mem seen x then draw acc k
      else begin
        Hashtbl.add seen x ();
        draw (x :: acc) (k - 1)
      end
  in
  draw [] n

(* Every element lands in one of its candidate bins, and simple hashing
   lists every element in each of its distinct candidate bins and
   nowhere else. *)
let cuckoo_random_sets =
  QCheck.Test.make ~count:60 ~name:"cuckoo table + simple hash on random sets"
    QCheck.(pair (int_range 1 2000) int64)
    (fun (n, seed) ->
      let xs = distinct_60bit ~seed n in
      let table = Cuckoo_hash.build (Prg.create (Int64.succ seed)) xs in
      let keys = table.Cuckoo_hash.keys in
      let bins = Cuckoo_hash.simple_hash keys xs in
      let distinct_bins y = List.sort_uniq compare (List.init 3 (fun w -> Cuckoo_hash.bin keys w y)) in
      let listed = Array.fold_left (fun acc l -> acc + List.length l) 0 bins in
      let expected = Array.fold_left (fun acc y -> acc + List.length (distinct_bins y)) 0 xs in
      Cuckoo_hash.check_table table xs
      && listed = expected
      && Array.for_all
           (fun j -> List.for_all (fun b -> List.mem j bins.(b)) (distinct_bins xs.(j)))
           (Array.init n Fun.id))

(* The bin hashes are one AES block each: building a table and simple
   hashing the same set allocate under 64 minor words per element, where
   a SHA-256 bin hash (~350 words per call) would pass 1,000. *)
let test_cuckoo_alloc_bound () =
  let n = 10_000 in
  let xs = distinct_60bit ~seed:5L n in
  let before = Gc.minor_words () in
  let table = Cuckoo_hash.build (Prg.create 6L) xs in
  let bins = Cuckoo_hash.simple_hash table.Cuckoo_hash.keys xs in
  let per_element = (Gc.minor_words () -. before) /. float_of_int n in
  ignore (Sys.opaque_identity bins);
  if per_element >= 64. then
    Alcotest.failf "build + simple_hash allocated %.1f minor words per element (bound 64)"
      per_element

(* ------------------------------------------------------------------ *)
(* OEP *)

let oep_program_correct =
  QCheck.Test.make ~count:100 ~name:"OEP networks realize xi"
    QCheck.(pair (int_range 1 30) (int_range 1 40))
    (fun (m, n) ->
      let prg = Prg.create (Int64.of_int ((m * 100) + n)) in
      let xi = Array.init n (fun _ -> Prg.below prg m) in
      let prog = Oep.program ~m xi in
      let data = Array.init m (fun i -> i * 10) in
      let out = Oep.apply_clear prog data in
      Array.length out = n && Array.for_all2 (fun o s -> o = s * 10) out xi)

(* Random non-decreasing maps at arbitrary (m, n), both m > n and n > m,
   with and without repeats, realize xi through perm1 and the
   duplication chain alone. *)
let oep_monotone_correct =
  QCheck.Test.make ~count:100 ~name:"OEP monotone network realizes xi"
    QCheck.(pair (int_range 1 300) (int_range 0 300))
    (fun (m, n) ->
      let prg = Prg.create (Int64.of_int ((m * 1000) + n)) in
      let xi = Array.init n (fun _ -> Prg.below prg m) in
      Array.sort compare xi;
      let out = Oep.apply_clear (Oep.program_monotone ~m xi) (Array.init m (fun i -> i * 10)) in
      Array.length out = n && Array.for_all2 (fun o s -> o = s * 10) out xi)

(* An unsorted map is refused at its first decrease, by name. *)
let oep_monotone_rejects_decrease =
  QCheck.Test.make ~count:100 ~name:"OEP monotone map refuses a decrease"
    QCheck.(pair (int_range 2 50) (int_range 2 50))
    (fun (m, n) ->
      let prg = Prg.create (Int64.of_int ((m * 100) + n)) in
      let xi = Array.init n (fun _ -> Prg.below prg m) in
      let first_decrease =
        let rec go i = if i >= n then None else if xi.(i) < xi.(i - 1) then Some i else go (i + 1) in
        go 1
      in
      match (first_decrease, Oep.program_monotone ~m xi) with
      | None, _ -> true
      | Some _, _ -> false
      | exception Invalid_argument msg -> (
          match first_decrease with
          | None -> false
          | Some i ->
              msg
              = Printf.sprintf "Oep.program_monotone: xi.(%d) = %d decreases from xi.(%d) = %d" i
                  xi.(i) (i - 1) xi.(i - 1)))

(* A random injection [n] -> [m]: the first n values of a permutation. *)
let random_injection prg ~m ~n = Array.sub (Prg.permutation prg m) 0 n

let oep_injective_correct =
  QCheck.Test.make ~count:100 ~name:"OEP injective network realizes xi"
    QCheck.(map (fun (m, k) -> (m, k mod (m + 1))) (pair (int_range 1 300) (int_range 0 300)))
    (fun (m, n) ->
      let xi = random_injection (Prg.create (Int64.of_int ((m * 1000) + n))) ~m ~n in
      let prog = Oep.program_injective ~m xi in
      let out = Oep.apply_clear prog (Array.init m (fun i -> i * 10)) in
      Array.length out = n && Array.for_all2 (fun o s -> o = s * 10) out xi)

let test_oep_injective_rejects_repeat () =
  let repeat i s =
    Invalid_argument (Printf.sprintf "Oep.program_injective: xi.(%d) = %d repeats an earlier value" i s)
  in
  Alcotest.check_raises "program_injective" (repeat 2 3) (fun () ->
      ignore (Oep.program_injective ~m:5 [| 0; 3; 3 |]));
  let ctx = ctx_sim () in
  let values = Array.init 5 (fun i -> Secret_share.share ctx ~owner:Party.Bob (Int64.of_int i)) in
  Alcotest.check_raises "permute_shared" (repeat 2 4) (fun () ->
      ignore (Oep.permute_shared ctx ~holder:Party.Alice ~xi:[| 4; 1; 4 |] ~m:5 values))

(* The OEP's switch count is a function of the public sizes m and n
   alone, whatever xi is: an extended map costs an AS-Waksman network
   over max(m, n) wires, an n-switch duplication chain and a network
   over n wires; a non-decreasing one the first network and the chain;
   an injective one a single network over m wires.
   m and n range independently, so both m > n and n > m occur. *)
let oep_switches_size_only =
  QCheck.Test.make ~count:100 ~name:"OEP switch count depends on sizes only"
    QCheck.(triple (int_range 1 300) (int_range 0 300) small_nat)
    (fun (m, n, seed) ->
      let prg = Prg.create (Int64.of_int seed) in
      let xi = Array.init n (fun _ -> Prg.below prg m) in
      let s = Permutation_network.switch_count_for in
      Oep.n_switches (Oep.program ~m xi) = s (max m n) + n + s n
      && Oep.n_switches (Oep.program_monotone ~m (Array.of_list (List.sort compare (Array.to_list xi))))
         = s (max m n) + n
      && (n > m
         || Oep.n_switches (Oep.program_injective ~m (random_injection prg ~m ~n)) = s m))

(* Golden OEP programs, a SHA-256 over every swap byte of the program's
   networks in evaluation order: perm1, the duplication chain and perm2
   of extended maps with duplicates (m > n and n > m), the one network
   of an injective map, and perm1 and the chain of a monotone map with
   n > m. Re-captured when the AS-Waksman router replaced the padded
   Beneš one. *)
let test_oep_program_golden () =
  let check name prog switches digest =
    Alcotest.(check int) (name ^ " switches") switches (Oep.n_switches prog);
    let controls =
      match prog with
      | Oep.Extended { perm1; dup_ctrl; perm2 } ->
          [ perm1.Permutation_network.controls; dup_ctrl; perm2.Permutation_network.controls ]
      | Oep.Monotone { perm1; dup_ctrl } -> [ perm1.Permutation_network.controls; dup_ctrl ]
      | Oep.Injective { perm; _ } -> [ perm.Permutation_network.controls ]
    in
    Alcotest.(check string) (name ^ " controls") digest
      (hex_digest (String.concat "" (List.map Bytes.to_string controls)))
  in
  check "m=10" (Oep.program ~m:10 [| 3; 3; 0; 9; 1; 1; 1 |]) 46
    "cabf40521187d637d6eac5987eb57ab50e46f7240d7f89d704f9bc8d98b1c875";
  let prg = Prg.create 1200L in
  check "m=500" (Oep.program ~m:500 (Array.init 1200 (fun _ -> Prg.below prg 500))) 23506
    "3d47fd4e7d18328a6a30a05b4dec9f44eb6df7fbbf78fe356c5adff210acff70";
  check "m=1000 injective"
    (Oep.program_injective ~m:1000 (random_injection (Prg.create 1000L) ~m:1000 ~n:700))
    8977 "7e3c0f7088541e148f9df2a0a5ebeda9942b7e030d000ccd6bf46ebf3a61b3dc";
  let prg = Prg.create 900L in
  let xi = Array.init 900 (fun _ -> Prg.below prg 301) in
  Array.sort compare xi;
  check "m=301 monotone" (Oep.program_monotone ~m:301 xi) 8877
    "f0dfa51bbe6f5e3e4e811de5766028ec214a62f6b5e1ef161c8482350d1d39f0"

(* Output i of the three shared OEPs reconstructs to source xi.(i):
   extended and monotone maps with more sources than outputs and more
   outputs than sources, and injective maps onto fewer and onto all
   sources. *)
let test_oep_shared () =
  let ctx = ctx_sim () in
  let check name oep ~m xi =
    let values =
      Array.init m (fun i -> Secret_share.share ctx ~owner:Party.Bob (Int64.of_int (i * 100)))
    in
    let out = oep ctx ~holder:Party.Alice ~xi ~m values in
    Alcotest.(check (list check_i64)) name
      (Array.to_list (Array.map (fun s -> Int64.of_int (s * 100)) xi))
      (Array.to_list (Array.map (Secret_share.reconstruct ctx) out))
  in
  check "extended m > n" Oep.apply_shared ~m:10 [| 3; 3; 0; 9; 1; 1; 1 |];
  check "extended n > m" Oep.apply_shared ~m:3 [| 2; 0; 0; 1; 2; 2; 0; 1 |];
  check "monotone m > n" Oep.map_monotone_shared ~m:10 [| 0; 1; 1; 1; 3; 3; 9 |];
  check "monotone n > m" Oep.map_monotone_shared ~m:3 [| 0; 0; 0; 1; 2; 2; 2; 2 |];
  check "injective m > n" Oep.permute_shared ~m:9 [| 8; 2; 0; 5 |];
  check "injective m = n" Oep.permute_shared ~m:6 [| 3; 0; 5; 1; 4; 2 |]

let test_oep_fresh_randomness () =
  (* Output shares must not equal input shares even when xi is identity. *)
  let ctx = ctx_sim () in
  let values = Array.init 8 (fun i -> Secret_share.share ctx ~owner:Party.Bob (Int64.of_int i)) in
  let xi = Array.init 8 (fun i -> i) in
  let out = Oep.apply_shared ctx ~holder:Party.Alice ~xi ~m:8 values in
  let same =
    Array.for_all2
      (fun a b -> Int64.equal a.Secret_share.a b.Secret_share.a)
      values out
  in
  Alcotest.(check bool) "shares re-randomized" false same

(* ------------------------------------------------------------------ *)
(* PSI *)

(* The PSI over the same payloads in the two forms the protocol hands
   it: "clear" payloads the sender knows and shares itself (a protocol
   input, as [Shared_relation.of_plain] shares it), and "shared" ones it
   does not know (an operator's output, here dealt by the receiver). *)
let psi_entries =
  let entry dealer ctx ~receiver ~alice_set ~bob_set ~payloads =
    Psi.with_shared_payloads ctx ~receiver ~alice_set ~bob_set
      ~bob_payload_shares:(Array.map (Secret_share.share ctx ~owner:(dealer receiver)) payloads)
  in
  [ ("clear", entry Party.other); ("shared", entry Fun.id) ]

let psi_payload_sum ctx (r : Psi.result) =
  Array.fold_left (fun acc s -> Int64.add acc (Secret_share.reconstruct ctx s)) 0L
    r.Psi.payload

(* Every bin carries what the callers consume: the matching element's
   payload for a member, 0 for a non-member or an empty bin. Returns the
   (member, non-member, empty) bin counts so callers can insist that
   each case occurred. *)
let check_bin_payloads ctx label ~bob_set ~payloads (r : Psi.result) =
  let hits = ref 0 and misses = ref 0 and empties = ref 0 in
  Array.iteri
    (fun i slot ->
      let expected =
        match slot with
        | None ->
            incr empties;
            0L
        | Some x -> (
            match Array.find_index (Int64.equal x) bob_set with
            | Some j ->
                incr hits;
                payloads.(j)
            | None ->
                incr misses;
                0L)
      in
      Alcotest.check check_i64 (Printf.sprintf "%s bin %d" label i) expected
        (Secret_share.reconstruct ctx r.Psi.payload.(i)))
    r.Psi.table.Cuckoo_hash.slots;
  (!hits, !misses, !empties)

let check_psi_cases label ctx ~receiver ~alice_set ~bob_set ~payloads entry =
  let r = entry ctx ~receiver ~alice_set ~bob_set ~payloads in
  let hits, misses, empties = check_bin_payloads ctx label ~bob_set ~payloads r in
  Alcotest.(check bool) (label ^ ": members, non-members and empty bins all occur") true
    (hits > 0 && misses > 0 && empties > 0)

let test_psi_clear_payloads () =
  let alice_set = Array.init 40 (fun i -> Int64.of_int ((i * 3) + 1)) in
  let bob_set = Array.init 30 (fun i -> Int64.of_int ((i * 2) + 1)) in
  check_psi_cases "clear" (ctx_sim ()) ~receiver:Party.Alice ~alice_set ~bob_set
    ~payloads:(Array.map (fun y -> Int64.mul y 100L) bob_set)
    (List.assoc "clear" psi_entries)

let test_psi_element_bounds () =
  let ctx = ctx_sim () in
  Alcotest.check_raises "element too wide"
    (Invalid_argument
       (Printf.sprintf
          "Psi.check_element: encoding %Lu does not fit in 60 bits (the top bits are \
           reserved for bin dummies)"
          (Int64.shift_left 1L 61)))
    (fun () ->
      ignore
        (Psi.with_shared_payloads ctx ~receiver:Party.Alice
           ~alice_set:[| Int64.shift_left 1L 61 |] ~bob_set:[| 1L |]
           ~bob_payload_shares:[| Secret_share.zero |]))

let test_psi_shared_payload () =
  let alice_set = Array.init 25 (fun i -> Int64.of_int ((i * 5) + 2)) in
  let bob_set = Array.init 20 (fun i -> Int64.of_int ((i * 3) + 2)) in
  List.iter
    (fun receiver ->
      check_psi_cases
        ("shared, receiver " ^ Party.to_string receiver)
        (ctx_sim ()) ~receiver ~alice_set ~bob_set
        ~payloads:(Array.map (fun y -> Int64.add y 7L) bob_set)
        (List.assoc "shared" psi_entries))
    [ Party.Alice; Party.Bob ]

let test_psi_shared_payload_narrow_ring () =
  (* regression: the protocol's revealed indices live in [0, N+B), which
     must survive a ring narrower than their width — a 1-bit boolean ring
     once truncated them to their low bit *)
  List.iter
    (fun seed ->
      let ctx = Context.create ~bits:1 ~seed () in
      let bob_set = [| 5L; 9L; 11L |] in
      let r =
        (List.assoc "shared" psi_entries) ctx ~receiver:Party.Alice
          ~alice_set:[| 2L; 5L; 9L |] ~bob_set ~payloads:[| 1L; 1L; 1L |]
      in
      ignore
        (check_bin_payloads ctx (Printf.sprintf "seed %Ld" seed) ~bob_set
           ~payloads:[| 1L; 1L; 1L |] r))
    [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L ]

(* Each entry point costs the same under both GC backends and returns the
   same payloads. *)
let test_psi_backends_same_cost () =
  let alice_set = Array.init 12 (fun i -> Int64.of_int ((i * 3) + 1)) in
  let bob_set = Array.init 10 (fun i -> Int64.of_int ((i * 2) + 1)) in
  let payloads = Array.map (fun y -> Int64.add y 3L) bob_set in
  List.iter
    (fun (name, entry) ->
      let run ctx =
        let r = entry ctx ~receiver:Party.Bob ~alice_set ~bob_set ~payloads in
        (Array.map (Secret_share.reconstruct ctx) r.Psi.payload, Context.tally ctx)
      in
      let p_sim, t_sim = run (ctx_sim ()) and p_real, t_real = run (ctx_real ()) in
      Alcotest.(check bool) (name ^ ": Sim tally = Real tally") true (Comm.equal t_sim t_real);
      Alcotest.(check (array check_i64)) (name ^ ": Sim payloads = Real payloads") p_sim p_real)
    psi_entries

(* ------------------------------------------------------------------ *)
(* AES-128 *)

(* Both AES cores, by name: the entry points (AES-NI where the CPU has
   it) and the T-table core, which is their fallback and oracle. *)
let aes_cores =
  [ ("entry point", Aes128.encrypt_block); ("T-table", Aes128.Table.encrypt_block) ]

(* The entry points run on AES-NI whenever an x86-64 CPU reports it, so
   the oracle properties below compare two cores there, not one core
   with itself. *)
let test_aes_hardware_probe () =
  let x86_flags =
    try
      let ic = open_in "/proc/cpuinfo" in
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec find () =
        let line = input_line ic in
        if String.starts_with ~prefix:"flags" line then Some (line ^ " ") else find ()
      in
      find ()
    with Sys_error _ | End_of_file -> None
  in
  let has flag s =
    let flag = " " ^ flag ^ " " in
    let n = String.length flag in
    let rec go i = i + n <= String.length s && (String.sub s i n = flag || go (i + 1)) in
    go 0
  in
  match x86_flags with
  | Some flags when has "aes" flags && has "ssse3" flags ->
      Alcotest.(check bool) "CPU reports AES-NI: hardware core runs" true Aes128.hardware
  | _ -> ()

let test_aes_fips_vector () =
  (* FIPS 197 appendix C.1 *)
  let key = Bytes.of_string "\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f" in
  let plaintext = Bytes.of_string "\x00\x11\x22\x33\x44\x55\x66\x77\x88\x99\xaa\xbb\xcc\xdd\xee\xff" in
  let sched = Aes128.expand_key key in
  List.iter
    (fun (core, encrypt) ->
      Alcotest.(check string) ("FIPS 197 C.1, " ^ core) "69c4e0d86a7b0430d8cdb78070b4c55a"
        (Sha256.to_hex (encrypt sched plaintext)))
    aes_cores

let test_aes_fips_appendix_b () =
  (* FIPS 197 appendix B: a key with no structure, so every byte lane of
     every round key is exercised *)
  let key = Bytes.of_string "\x2b\x7e\x15\x16\x28\xae\xd2\xa6\xab\xf7\x15\x88\x09\xcf\x4f\x3c" in
  let plaintext = Bytes.of_string "\x32\x43\xf6\xa8\x88\x5a\x30\x8d\x31\x31\x98\xa2\xe0\x37\x07\x34" in
  List.iter
    (fun (core, encrypt) ->
      Alcotest.(check string) ("FIPS 197 B, " ^ core) "3925841d02dc09fbdc118597196a0b32"
        (Sha256.to_hex (encrypt (Aes128.expand_key key) plaintext)))
    aes_cores

(* Golden outputs of the fixed-key label hash, captured from the
   byte-wise round function the T-table core replaced. *)
let test_aes_label_hash_golden () =
  let check name ~tweak label (hi, lo) =
    List.iter
      (fun (core, hash) ->
        let got_hi, got_lo = hash ~tweak label in
        Alcotest.check check_i64 (name ^ " hi, " ^ core) hi got_hi;
        Alcotest.check check_i64 (name ^ " lo, " ^ core) lo got_lo)
      [ ("entry point", Aes128.label_hash);
        ("T-table", Aes128.Table.label_hash_with Aes128.fixed_key) ]
  in
  let label = (0x0001020304050607L, 0x08090a0b0c0d0e0fL) in
  check "tweak 0" ~tweak:0L label (0xb3d1bb4d736f309eL, 0x565b907bfe1532a0L);
  check "tweak 1" ~tweak:1L label (0x1785220d85a1e419L, 0xba116b0462293e4dL);
  check "wide tweak" ~tweak:0x1_0000_0001L (-1L, 0x123456789abcdef0L)
    (0x886332206ab559d7L, 0x5f03317ddec65823L);
  (* bit 63 of the tweak counts (captured from the T-table core) *)
  check "tweak bit 63" ~tweak:0x8000_0000_0000_0001L (-1L, 0x123456789abcdef0L)
    (0xea567602ad4e3f8aL, 0x6960c9d32f6ac442L);
  check "tweak min_int" ~tweak:Int64.min_int label (0x48be853a3fd02159L, 0x84da31b5665cd733L)

(* The hardware core against the T-table core: single hashes on random
   labels and on every kind of int64 tweak (negative, bit 63 set), as a
   pair and as the high word alone. *)
let aes_stub_matches_table =
  QCheck.Test.make ~count:500 ~name:"hardware core = T-table core"
    QCheck.(triple int64 int64 int64)
    (fun (hi, lo, tweak) ->
      let sched = Aes128.fixed_key in
      let pair = Aes128.Table.label_hash_with sched ~tweak (hi, lo) in
      Aes128.label_hash_with sched ~tweak (hi, lo) = pair
      && Int64.equal (Aes128.label_hash_hi sched ~tweak hi lo) (fst pair)
      && Int64.equal (Aes128.Table.label_hash_hi sched ~tweak hi lo) (fst pair))

(* Each gate-shaped entry is its four (garble) or two (eval) single
   T-table hashes, tweaks j and j + 1 as int64s. *)
let aes_gate_hashes_match_singles =
  QCheck.Test.make ~count:300 ~name:"gate-shaped hashes = single T-table hashes"
    QCheck.(pair (array_of_size (Gen.return 6) int64) int)
    (fun (w, tweak) ->
      let sched = Aes128.fixed_key in
      (* labels A at 3 and B at 19 of an unaligned plane; Δ at 7 of the
         output plane, the digests after it *)
      let src = Bytes.make 40 '\x00' and dst = Bytes.make 90 '\x00' in
      Bytes.set_int64_ne src 3 w.(0);
      Bytes.set_int64_ne src 11 w.(1);
      Bytes.set_int64_ne src 19 w.(2);
      Bytes.set_int64_ne src 27 w.(3);
      Bytes.set_int64_ne dst 7 w.(4);
      Bytes.set_int64_ne dst 15 w.(5);
      let j = Int64.of_int tweak in
      let j1 = Int64.succ j in
      let a = (w.(0), w.(1)) and b = (w.(2), w.(3)) in
      let xd (hi, lo) = (Int64.logxor hi w.(4), Int64.logxor lo w.(5)) in
      let single ~tweak l = Aes128.Table.label_hash_with sched ~tweak l in
      let at buf off = (Bytes.get_int64_ne buf off, Bytes.get_int64_ne buf (off + 8)) in
      Aes128.garble_and_hashes sched ~tweak src 3 19 dst 7;
      let garble_ok =
        at dst 23 = single ~tweak:j a
        && at dst 39 = single ~tweak:j (xd a)
        && at dst 55 = single ~tweak:j1 b
        && at dst 71 = single ~tweak:j1 (xd b)
        && at dst 7 = (w.(4), w.(5))
      in
      let out = Bytes.make 37 '\x00' in
      Aes128.eval_and_hashes sched ~tweak src 3 19 out 5;
      garble_ok && at out 5 = single ~tweak:j a && at out 21 = single ~tweak:j1 b)

(* DESIGN.md §14's allocation-free property, checked at the AES boundary:
   the gate-shaped hashes allocate nothing at all. *)
let test_aes_gate_hashes_no_alloc () =
  let src = Bytes.make 32 '\x5a' and dst = Bytes.make 80 '\x00' in
  let sched = Aes128.fixed_key in
  let count name f =
    f 0;
    let before = Gc.minor_words () in
    for tweak = 1 to 10_000 do
      f tweak
    done;
    let words = Gc.minor_words () -. before in
    Alcotest.(check (float 0.)) (name ^ ": minor words over 10k hashes") 0. words
  in
  count "garble_and_hashes" (fun tweak ->
      Aes128.garble_and_hashes sched ~tweak src 0 16 dst 0);
  count "eval_and_hashes" (fun tweak -> Aes128.eval_and_hashes sched ~tweak src 0 16 dst 0)

(* Pins the whole garbling path: the SHA-256 of [tables ‖ decode] for a
   fixed-seed garbling of the 52-bit x * y + z circuit. The arena planes
   grow geometrically, so only their circuit-sized prefixes count:
   32 bytes per AND gate and one decode byte per output. *)
let test_aes_garbled_tables_golden () =
  let module Bb = Boolean_circuit.Builder in
  let b = Bb.create () in
  let word () = Circuits.input_word b 52 in
  let x = word () and y = word () and z = word () in
  let out = Circuits.add_word b (Circuits.mul_word b x y) z in
  let circuit = Bb.finalize b ~outputs:(Circuits.materialize_word b 0 out) in
  let g = Garbling.garble ~arena:(Garbling.Arena.create ()) (Prg.create 52L) circuit in
  let tables = Bytes.sub g.Garbling.tables 0 (32 * Boolean_circuit.and_count circuit) in
  let decode = Bytes.sub g.Garbling.decode 0 (Boolean_circuit.n_outputs circuit) in
  Alcotest.(check string) "tables ‖ decode digest"
    "87d56f9eeeeb3f457284ca9a4b8c39547581b8183600addcc5f3b90b4687c3da"
    (Sha256.to_hex (Sha256.digest_bytes (Bytes.cat tables decode)))

let test_aes_sbox () =
  let sbox = Aes128.sbox () in
  Alcotest.(check int) "sbox(0)" 0x63 sbox.(0);
  Alcotest.(check int) "sbox(0x53)" 0xed sbox.(0x53);
  (* writing to the copy leaves the core's table intact *)
  sbox.(0) <- 1 lsl 40;
  Alcotest.(check int) "sbox is a copy" 0x63 (Aes128.sbox ()).(0);
  (* S-box is a permutation *)
  let sorted = Aes128.sbox () in
  Array.sort compare sorted;
  Alcotest.(check bool) "bijective" true (Array.to_list sorted = List.init 256 Fun.id)

(* The explicit [~kdf:Aes128_kdf] argument, which callers may still pass,
   garbles exactly as the default: same input labels, and the evaluation
   decodes to the clear result. *)
let test_garbling_aes_kdf () =
  let prg = Prg.create 77L in
  let arena = Garbling.Arena.create () and default_arena = Garbling.Arena.create () in
  for _trial = 1 to 20 do
    let circuit = random_circuit prg ~n_inputs:6 ~n_gates:40 in
    let inputs = Array.init 6 (fun _ -> Prg.bool prg) in
    let expected = Boolean_circuit.eval circuit inputs in
    let seed = Prg.next_int64 prg in
    let g = Garbling.garble ~kdf:Garbling.Aes128_kdf ~arena (Prg.create seed) circuit in
    let d = Garbling.garble ~arena:default_arena (Prg.create seed) circuit in
    Array.iteri
      (fun i b ->
        Alcotest.(check bool) "same input label as the default" true
          (Garbling.Label.equal (Garbling.encode_input g i b) (Garbling.encode_input d i b)))
      inputs;
    let labels = Array.mapi (fun i b -> Garbling.encode_input g i b) inputs in
    let out_labels = Garbling.eval_labels ~arena g labels in
    let got = Array.mapi (fun i l -> Garbling.decode_output g ~out_index:i l) out_labels in
    Alcotest.(check (array bool)) "AES-kdf garbling = clear" expected got
  done

(* ------------------------------------------------------------------ *)
(* IKNP OT extension *)

let test_ot_extension_correct () =
  let ctx = ctx_sim () in
  let prg = Prg.create 31L in
  let m = 300 in
  let messages =
    Array.init m (fun _ ->
        ((Prg.next_int64 prg, Prg.next_int64 prg), (Prg.next_int64 prg, Prg.next_int64 prg)))
  in
  let choices = Array.init m (fun _ -> Prg.bool prg) in
  let got = Ot_extension.extend ctx ~sender:Party.Alice ~messages ~choices in
  Array.iteri
    (fun j blk ->
      let m0, m1 = messages.(j) in
      let expect = if choices.(j) then m1 else m0 in
      Alcotest.(check bool) "chosen block" true (blk = expect);
      (* and the other message stays hidden behind an unknown pad *)
      Alcotest.(check bool) "other differs" true (blk <> if choices.(j) then m0 else m1))
    got

let test_ot_extension_accounts_comm () =
  let ctx = ctx_sim () in
  let before = Context.tally ctx in
  let messages = Array.make 64 ((1L, 2L), (3L, 4L)) in
  let choices = Array.make 64 false in
  let _ = Ot_extension.extend ctx ~sender:Party.Bob ~messages ~choices in
  let d = Comm.diff (Context.tally ctx) before in
  (* matrix columns one way, masked message pairs the other *)
  Alcotest.(check int) "receiver bits" (128 * 64) d.Comm.alice_to_bob_bits;
  Alcotest.(check int) "sender bits" (64 * 256) d.Comm.bob_to_alice_bits;
  Alcotest.(check int) "two rounds" 2 d.Comm.rounds

(* Any batch size, including ones that leave a partial byte in each
   matrix column, and either sender: the receiver gets exactly its chosen
   block, and the tally is one matrix column bit per OT one way and two
   masked blocks the other, in two rounds. *)
let ot_extension_any_size =
  QCheck.Test.make ~count:40 ~name:"extend delivers the chosen blocks at any size"
    QCheck.(triple (int_range 1 600) bool (int_bound 100000))
    (fun (m, alice_sends, seed) ->
      let sender = if alice_sends then Party.Alice else Party.Bob in
      let prg = Prg.create (Int64.of_int seed) in
      let block () = (Prg.next_int64 prg, Prg.next_int64 prg) in
      let messages = Array.init m (fun _ ->
          let m0 = block () in
          (m0, block ())) in
      let choices = Array.init m (fun _ -> Prg.bool prg) in
      let ctx = ctx_sim () in
      let before = Context.tally ctx in
      let got = Ot_extension.extend ctx ~sender ~messages ~choices in
      let d = Comm.diff (Context.tally ctx) before in
      let from_sender, from_receiver =
        if alice_sends then (d.Comm.alice_to_bob_bits, d.Comm.bob_to_alice_bits)
        else (d.Comm.bob_to_alice_bits, d.Comm.alice_to_bob_bits)
      in
      Array.length got = m
      && Array.for_all Fun.id
           (Array.mapi
              (fun j blk ->
                let m0, m1 = messages.(j) in
                blk = if choices.(j) then m1 else m0)
              got)
      && from_receiver = 128 * m
      && from_sender = 256 * m
      && d.Comm.rounds = 2)

(* ------------------------------------------------------------------ *)
(* Sorting networks *)

let sorting_network_sorts =
  QCheck.Test.make ~count:100 ~name:"bitonic network sorts any input"
    QCheck.(pair (int_range 1 50) (int_bound 100000))
    (fun (n, seed) ->
      let prg = Prg.create (Int64.of_int seed) in
      let data = Array.init n (fun _ -> Prg.below prg 100) in
      let net = Sorting_network.build n in
      let sorted = Sorting_network.apply net data in
      let expected = Array.copy data in
      Array.sort compare expected;
      sorted = expected)

let test_sorting_network_size () =
  (* Theta(n log^2 n): for n = 16, bitonic uses 80 comparators *)
  Alcotest.(check int) "n=16" 80 (Sorting_network.comparator_count (Sorting_network.build 16));
  Alcotest.(check int) "n=2" 1 (Sorting_network.comparator_count (Sorting_network.build 2))

(* [apply] agrees with [List.sort] on anything: non-power-of-two sizes,
   heavy duplicate ranges, and a custom (descending) comparator *)
let sorting_network_vs_list_sort =
  QCheck.Test.make ~count:200 ~name:"bitonic apply = List.sort"
    QCheck.(triple (int_range 1 70) (int_range 1 8) (int_bound 100000))
    (fun (n, range, seed) ->
      let prg = Prg.create (Int64.of_int (seed + (n * 1000))) in
      let data = Array.init n (fun _ -> Prg.below prg range) in
      let sorted = Sorting_network.apply (Sorting_network.build n) data in
      Array.to_list sorted = List.sort compare (Array.to_list data))

let sorting_network_descending =
  QCheck.Test.make ~count:100 ~name:"bitonic apply with descending comparator"
    QCheck.(pair (int_range 1 50) (int_bound 100000))
    (fun (n, seed) ->
      let prg = Prg.create (Int64.of_int seed) in
      let data = Array.init n (fun _ -> Prg.below prg 100) in
      let desc a b = compare b a in
      let sorted = Sorting_network.apply ~compare:desc (Sorting_network.build n) data in
      Array.to_list sorted = List.sort desc (Array.to_list data))

let test_sorting_network_edges () =
  Alcotest.(check (array int)) "empty" [||]
    (Sorting_network.apply (Sorting_network.build 0) [||]);
  Alcotest.(check (array int)) "singleton" [| 7 |]
    (Sorting_network.apply (Sorting_network.build 1) [| 7 |]);
  (* sentinel regression: padding sentinels must never surface among the
     first n outputs, even when the data equals max_int (the sentinel is
     Option-None, strictly greater than any payload) *)
  let data = [| max_int; max_int; max_int |] in
  Alcotest.(check (array int)) "max_int inputs survive padding" data
    (Sorting_network.apply (Sorting_network.build 3) data)

let sorting_network_structure =
  (* the closed form and the pass grouping: [comparator_count = expected_count n],
     each pass touches disjoint wires *)
  QCheck.Test.make ~count:100 ~name:"bitonic structure invariants"
    QCheck.(int_range 0 130)
    (fun n ->
      let net = Sorting_network.build n in
      let m =
        let rec log2 acc p = if p >= net.Sorting_network.padded then acc else log2 (acc + 1) (p * 2) in
        log2 0 1
      in
      Sorting_network.comparator_count net = Sorting_network.expected_count n
      && Sorting_network.expected_count n = net.Sorting_network.padded / 2 * (m * (m + 1) / 2)
      && Sorting_network.pass_count net = m * (m + 1) / 2
      && Array.for_all
           (fun pass ->
             let touched = Hashtbl.create 16 in
             Array.for_all
               (fun { Sorting_network.lo; hi } ->
                 (* [lo] is where the min lands; in the descending regions
                    of the bitonic merge lo > hi, so only distinctness and
                    per-pass wire-disjointness are invariant *)
                 let fresh w =
                   (not (Hashtbl.mem touched w)) && (Hashtbl.add touched w (); true)
                 in
                 lo <> hi
                 && lo >= 0 && hi >= 0
                 && lo < net.Sorting_network.padded
                 && hi < net.Sorting_network.padded
                 && fresh lo && fresh hi)
               pass)
           net.Sorting_network.passes)

(* ------------------------------------------------------------------ *)
(* Oblivious sort / top-k (DESIGN.md §17) *)

(* one unsigned key, payload = row index; mirrors the engine's order
   phase in miniature *)
let obl_rows ctx ?(key_bits = 8) ?(descending = false) ?(idx_bits = 8) ?(payload_bits = 16)
    ?(valid = fun _ -> true) keys =
  Array.mapi
    (fun i key ->
      {
        Oblivious_sort.valid =
          Gc_protocol.Priv
            { owner = Party.Alice; value = (if valid i then 1L else 0L); bits = 1 };
        valid_if_nonzero = None;
        keys =
          [
            {
              Oblivious_sort.word =
                {
                  Oblivious_sort.input =
                    Gc_protocol.Priv
                      { owner = Party.Alice; value = Int64.of_int key; bits = key_bits };
                  width = key_bits;
                };
              descending;
              signed = false;
            };
          ];
        payload =
          [
            {
              Oblivious_sort.input =
                Gc_protocol.Priv { owner = Party.Alice; value = Int64.of_int i; bits = idx_bits };
              width = idx_bits;
            };
            {
              Oblivious_sort.input =
                Gc_protocol.Shared (Secret_share.of_public ctx (Int64.of_int (100 + i)));
              width = payload_bits;
            };
          ];
      })
    keys

let oblivious_sort_matches_clear =
  QCheck.Test.make ~count:30 ~name:"oblivious top-k = clear sort"
    QCheck.(triple (int_range 1 20) (int_range 0 22) (int_bound 100000))
    (fun (n, k, seed) ->
      let prg = Prg.create (Int64.of_int seed) in
      let keys = Array.init n (fun _ -> Prg.below prg 6) in
      let ctx = ctx_sim () in
      let revealed =
        Oblivious_sort.top_k_reveal ctx ~k ~to_:Party.Alice (obl_rows ctx keys)
      in
      (* clear reference: stable index tagging then sort by (key, idx)?
         The network is unstable, but with the index in the payload the
         revealed (key order, then arbitrary among equals) rows must be a
         permutation of some ascending-key prefix. Compare multisets of
         keys position-by-position instead: the i-th revealed key rank
         must equal the i-th smallest key. *)
      let sorted_keys = List.sort compare (Array.to_list keys) in
      let expect = List.filteri (fun i _ -> i < min k n) sorted_keys in
      let got =
        Array.to_list revealed
        |> List.filter (fun (invalid, _) -> not invalid)
        |> List.map (fun (_, payload) ->
               let idx = Int64.to_int payload.(0) in
               (* the shared annotation must ride along unharmed *)
               if payload.(1) <> Int64.of_int (100 + idx) then (-1) else keys.(idx))
      in
      Array.length revealed = min k n && got = expect)

(* Exact cost of [top_k_reveal] at n = 16..256 (k = min n 10): AND gates,
   bits both ways summed, rounds. Rows carry one descending 16-bit key, a
   16-bit private index and a 32-bit shared payload. Cost depends on the
   public shape alone, so a moved pin is a protocol change. n = 128 is
   rerun on a 2-domain pool: reveal and tally must not move. *)
let test_top_k_cost_pins () =
  let rows ctx n =
    let prg = Prg.create (Int64.of_int (0x5017 + n)) in
    Array.init n (fun _ -> Int64.to_int (Int64.logand (Prg.next_int64 prg) 0xFFFFL))
    |> obl_rows ctx ~key_bits:16 ~descending:true ~idx_bits:16 ~payload_bits:32
  in
  let and_gates ctx =
    (Context.counter_totals ctx).(Trace_sink.counter_index Trace_sink.And_gates)
  in
  let run ~domains n =
    let ctx = Context.create ~bits:32 ~domains ~seed:20210618L () in
    let rows = rows ctx n in
    let before = Context.tally ctx and ands_before = and_gates ctx in
    let revealed = Oblivious_sort.top_k_reveal ctx ~k:(min n 10) ~to_:Party.Alice rows in
    let t = Comm.diff (Context.tally ctx) before in
    let ands = and_gates ctx - ands_before in
    Context.shutdown_pool ctx;
    (revealed, t, (ands, t.Comm.alice_to_bob_bits + t.Comm.bob_to_alice_bits, t.Comm.rounds))
  in
  let cost = Alcotest.(triple int int int) in
  List.iter
    (fun (n, pin) ->
      let revealed, _, got = run ~domains:1 n in
      Alcotest.check cost (Printf.sprintf "n=%d (AND gates, bits, rounds)" n) pin got;
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: every revealed row valid" n)
        true
        (Array.for_all (fun (invalid, _) -> not invalid) revealed))
    [
      (16, (32096, 21038368, 34));
      (32, (95792, 62474176, 49));
      (64, (267424, 173903552, 67));
      (128, (711808, 462037184, 88));
      (256, (1828096, 1185172928, 112));
    ];
  let seq_revealed, seq_tally, _ = run ~domains:1 128 in
  let par_revealed, par_tally, _ = run ~domains:2 128 in
  Alcotest.(check bool) "n=128: 2-domain reveal identical" true (seq_revealed = par_revealed);
  Alcotest.(check bool) "n=128: 2-domain tally identical" true (Comm.equal seq_tally par_tally)

let test_oblivious_sort_validity () =
  (* invalid rows sink below every valid row and never surface in top-k *)
  let ctx = ctx_sim () in
  let keys = [| 5; 1; 4; 2; 3 |] in
  let rows = obl_rows ctx ~valid:(fun i -> i <> 1 && i <> 3) keys in
  let revealed = Oblivious_sort.top_k_reveal ctx ~k:5 ~to_:Party.Alice rows in
  let valid_rows =
    Array.to_list revealed
    |> List.filter (fun (invalid, _) -> not invalid)
    |> List.map (fun (_, p) -> keys.(Int64.to_int p.(0)))
  in
  Alcotest.(check (list int)) "only valid rows, in key order" [ 3; 4; 5 ] valid_rows;
  (* the invalid tail is marked *)
  Alcotest.(check int) "5 positions revealed" 5 (Array.length revealed);
  Alcotest.(check bool) "tail marked invalid" true (fst revealed.(3) && fst revealed.(4))

let test_oblivious_sort_shape_mismatch () =
  let ctx = ctx_sim () in
  let rows = obl_rows ctx [| 1; 2 |] in
  let bad =
    [| rows.(0); { rows.(1) with Oblivious_sort.payload = [ List.hd rows.(1).Oblivious_sort.payload ] } |]
  in
  (match Oblivious_sort.top_k_reveal ctx ~k:2 ~to_:Party.Alice bad with
  | _ -> Alcotest.fail "mixed shapes must be rejected"
  | exception Invalid_argument _ -> ());
  (* width violation: private input wider than the declared width *)
  let too_wide =
    [|
      {
        (rows.(0)) with
        Oblivious_sort.keys =
          [
            {
              Oblivious_sort.word =
                {
                  Oblivious_sort.input =
                    Gc_protocol.Priv { owner = Party.Alice; value = 1L; bits = 9 };
                  width = 8;
                };
              descending = false;
              signed = false;
            };
          ];
      };
    |]
  in
  match Oblivious_sort.top_k_reveal ctx ~k:1 ~to_:Party.Alice too_wide with
  | _ -> Alcotest.fail "width violation must be rejected"
  | exception Invalid_argument _ -> ()

let test_oblivious_sort_narrow_ring () =
  (* regression (fuzz campaign seed 12345, case 19): every normalized
     sort word becomes an arithmetic share in the context ring, so with a
     1-bit (boolean) ring a multi-bit rank or index word used to crash
     exchange_build with Array.sub. Wide words are now rejected up front
     and callers supply ring-width limbs, most significant first — the
     composite key concatenation makes limb sequences compare exactly
     like the wide word. *)
  let ctx = Context.create ~bits:1 ~gc_backend:Context.Sim ~seed:5L () in
  let limb bit value =
    {
      Oblivious_sort.input =
        Gc_protocol.Priv
          { owner = Party.Alice; value = Int64.of_int ((value lsr bit) land 1); bits = 1 };
      width = 1;
    }
  in
  let key_limb bit value =
    { Oblivious_sort.word = limb bit value; descending = false; signed = false }
  in
  let keys = [| 5; 1; 7; 2; 6; 3 |] in
  let rows =
    Array.mapi
      (fun i key ->
        {
          Oblivious_sort.valid =
            Gc_protocol.Priv { owner = Party.Alice; value = 1L; bits = 1 };
          valid_if_nonzero = None;
          keys = [ key_limb 2 key; key_limb 1 key; key_limb 0 key ];
          payload = [ limb 2 i; limb 1 i; limb 0 i ];
        })
      keys
  in
  let revealed = Oblivious_sort.top_k_reveal ctx ~k:4 ~to_:Party.Alice rows in
  let got =
    Array.to_list revealed
    |> List.map (fun (invalid, p) ->
           Alcotest.(check bool) "row valid" false invalid;
           let idx =
             Int64.to_int
               (Array.fold_left (fun acc b -> Int64.logor (Int64.shift_left acc 1) b) 0L p)
           in
           keys.(idx))
  in
  Alcotest.(check (list int)) "limb keys sort in the 1-bit ring" [ 1; 2; 3; 5 ] got;
  (* a word wider than the ring is rejected before any circuit runs *)
  let wide =
    [|
      {
        (rows.(0)) with
        Oblivious_sort.keys =
          [
            {
              Oblivious_sort.word =
                {
                  Oblivious_sort.input =
                    Gc_protocol.Priv { owner = Party.Alice; value = 5L; bits = 3 };
                  width = 3;
                };
              descending = false;
              signed = false;
            };
          ];
      };
    |]
  in
  match Oblivious_sort.top_k_reveal ctx ~k:1 ~to_:Party.Alice wide with
  | _ -> Alcotest.fail "ring-exceeding width must be rejected"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "message points at limb splitting" true
        (String.length msg > 0
        && (let contains ~sub s =
              let n = String.length sub and m = String.length s in
              let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
              go 0
            in
            contains ~sub:"limb" msg))

let test_psi_boundary_sizes () =
  (* empty and singleton sets must not break the hashing or the circuits *)
  List.iter
    (fun (name, entry) ->
      List.iter
        (fun (case, alice_set, bob_set, payloads, expected) ->
          let ctx = ctx_sim () in
          let r = entry ctx ~receiver:Party.Alice ~alice_set ~bob_set ~payloads in
          Alcotest.check check_i64 (Printf.sprintf "%s, %s" name case) expected
            (psi_payload_sum ctx r))
        [
          ("empty X: all zero", [||], [| 5L |], [| 7L |], 0L);
          ("empty Y: all zero", [| 5L |], [||], [||], 0L);
          ("singleton match", [| 5L |], [| 5L |], [| 9L |], 9L);
        ])
    psi_entries

(* All payloads are 1, so each bin's payload is its membership indicator.
   The clear entry keeps the property's original name. *)
let psi_random_sets (entry_name, entry) =
  let name =
    match entry_name with
    | "clear" -> "PSI indicator sum = intersection size"
    | n -> Printf.sprintf "PSI %s indicator sum = intersection size" n
  in
  QCheck.Test.make ~count:20 ~name
    QCheck.(pair (int_bound 100000) (pair (int_range 1 60) (int_range 1 60)))
    (fun (seed, (m, n)) ->
      let prg = Prg.create (Int64.of_int seed) in
      let set k = Array.of_list (List.sort_uniq compare
          (List.init k (fun _ -> Int64.of_int (1 + Prg.below prg 80)))) in
      let xs = set m and ys = set n in
      let ctx = Context.create ~gc_backend:Context.Sim ~seed:(Int64.of_int (seed + 9)) () in
      let r =
        entry ctx ~receiver:Party.Bob ~alice_set:xs ~bob_set:ys
          ~payloads:(Array.map (fun _ -> 1L) ys)
      in
      let expected =
        Array.fold_left
          (fun acc x -> if Array.exists (Int64.equal x) ys then acc + 1 else acc)
          0 xs
      in
      Int64.equal (psi_payload_sum ctx r) (Int64.of_int expected))

(* ------------------------------------------------------------------ *)
(* Obliviousness: same-size inputs yield identical transcript sizes *)

let test_transcript_oblivious () =
  List.iter
    (fun (name, entry) ->
      let run seed data =
        let ctx = Context.create ~gc_backend:Context.Sim ~seed () in
        let bob_set = [| 2L; 4L; 6L; 8L |] in
        ignore
          (entry ctx ~receiver:Party.Alice ~alice_set:(Array.map Int64.of_int data) ~bob_set
             ~payloads:(Array.map (fun _ -> 1L) bob_set));
        Context.tally ctx
      in
      let t1 = run 1L [| 2; 4; 6; 8; 10 |] (* big intersection *) in
      let t2 = run 2L [| 101; 103; 105; 107; 109 |] (* empty intersection *) in
      Alcotest.(check bool) (name ^ ": identical transcript sizes") true (Comm.equal t1 t2))
    psi_entries

(* ------------------------------------------------------------------ *)
(* Ledger traffic accounting (Context.send / bump_rounds / tally) *)

let check_tally = Alcotest.testable Comm.pp Comm.equal

let sends ctx = (Context.counter_totals ctx).(Trace_sink.counter_index Trace_sink.Sends)

let test_comm_send_zero () =
  let c = Context.create ~seed:1L () in
  Context.send c ~from:Party.Alice ~bits:0;
  Context.send c ~from:Party.Bob ~bits:0;
  Alcotest.check check_tally "zero-bit sends leave the tally empty" Comm.empty_tally
    (Context.tally c);
  Alcotest.(check int) "both sends counted" 2 (sends c)

let test_comm_send_negative () =
  let c = Context.create ~seed:1L () in
  Alcotest.check_raises "negative count rejected"
    (Invalid_argument "Context.send: bit count -1 is negative (expected >= 0)") (fun () ->
      Context.send c ~from:Party.Alice ~bits:(-1))

let test_comm_tally_arithmetic () =
  let c = Context.create ~seed:1L () in
  Context.send c ~from:Party.Alice ~bits:100;
  Context.bump_rounds c 1;
  let mid = Context.tally c in
  Context.send c ~from:Party.Bob ~bits:40;
  Context.send c ~from:Party.Alice ~bits:7;
  Context.bump_rounds c 2;
  let final = Context.tally c in
  let delta = Comm.diff final mid in
  Alcotest.(check int) "delta a->b" 7 delta.Comm.alice_to_bob_bits;
  Alcotest.(check int) "delta b->a" 40 delta.Comm.bob_to_alice_bits;
  Alcotest.(check int) "delta rounds" 2 delta.Comm.rounds;
  Alcotest.check check_tally "diff then add round-trips" final (Comm.add mid delta);
  Alcotest.(check int) "total bits" 147 (Comm.total_bits final);
  Alcotest.(check bool) "equal is structural" true
    (Comm.equal final { Comm.alice_to_bob_bits = 107; bob_to_alice_bits = 40; rounds = 3 })

(* Traffic reaches the attached sink as typed ledger bumps — bits, then
   the send event — and a detached sink hears nothing more; the ledger
   counts regardless of what is attached. *)
let test_comm_listeners () =
  let c = Context.create ~seed:1L () in
  let events = ref [] in
  Context.set_sink c
    { Trace_sink.noop with Trace_sink.bump = (fun k n -> events := (k, n) :: !events) };
  Context.send c ~from:Party.Alice ~bits:5;
  Context.send c ~from:Party.Bob ~bits:0;
  Context.bump_rounds c 3;
  Alcotest.(check bool) "every event observed in order (even zero-bit)" true
    (List.rev !events
    = Trace_sink.
        [
          (Alice_to_bob_bits, 5); (Sends, 1); (Bob_to_alice_bits, 0); (Sends, 1); (Rounds, 3);
        ]);
  Context.set_sink c Trace_sink.noop;
  Context.send c ~from:Party.Alice ~bits:9;
  Context.bump_rounds c 1;
  Alcotest.(check int) "detached sink silent" 5 (List.length !events);
  Alcotest.(check int) "tally still complete" 14 (Context.tally c).Comm.alice_to_bob_bits;
  Alcotest.(check int) "sends still counted" 3 (sends c)

let test_comm_listener_detach_during_send () =
  (* a sink may detach itself from inside its own callback: each ledger
     write reads the context's sink afresh *)
  let c = Context.create ~seed:1L () in
  let calls = ref 0 in
  Context.set_sink c
    {
      Trace_sink.noop with
      Trace_sink.bump =
        (fun _ _ ->
          incr calls;
          Context.set_sink c Trace_sink.noop);
    };
  Context.send c ~from:Party.Alice ~bits:8;
  Context.send c ~from:Party.Alice ~bits:8;
  Alcotest.(check int) "self-detaching sink fired exactly once" 1 !calls;
  Alcotest.(check int) "tally unaffected" 16 (Context.tally c).Comm.alice_to_bob_bits

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "secyan_crypto"
    [
      ( "comm",
        [
          Alcotest.test_case "zero-bit send" `Quick test_comm_send_zero;
          Alcotest.test_case "negative send rejected" `Quick test_comm_send_negative;
          Alcotest.test_case "tally arithmetic" `Quick test_comm_tally_arithmetic;
          Alcotest.test_case "listeners" `Quick test_comm_listeners;
          Alcotest.test_case "listener detach during send" `Quick
            test_comm_listener_detach_during_send;
        ] );
      ( "prg",
        [
          Alcotest.test_case "deterministic" `Quick test_prg_deterministic;
          Alcotest.test_case "draws allocate nothing" `Quick test_prg_no_alloc;
          Alcotest.test_case "below in range" `Quick test_prg_below_in_range;
          Alcotest.test_case "below allocates nothing" `Quick test_prg_below_no_alloc;
          Alcotest.test_case "permutation" `Quick test_prg_permutation;
          Alcotest.test_case "bits width" `Quick test_prg_bits_width;
        ] );
      ( "zn",
        [
          Alcotest.test_case "ops" `Quick test_zn_ops;
          Alcotest.test_case "signed" `Quick test_zn_signed;
          Alcotest.test_case "bounds" `Quick test_zn_bounds;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "incremental" `Quick test_sha256_incremental;
        ] );
      ( "secret-share",
        [
          Alcotest.test_case "roundtrip" `Quick test_share_roundtrip;
          Alcotest.test_case "linear ops" `Quick test_share_linear_ops;
          Alcotest.test_case "reveal costs" `Quick test_share_reveal_costs;
          Alcotest.test_case "uniform shares" `Quick test_share_uniform_shares;
          Alcotest.test_case "product cost model" `Quick test_mul_batch_cost_model;
        ]
        @ qsuite [ mul_batch_matches_zn ] );
      ( "circuits",
        Alcotest.test_case "adder AND count" `Quick test_and_count_add
        :: Alcotest.test_case "clear eval allocates no per-gate words" `Quick
             test_eval_no_per_gate_alloc
        :: qsuite
             [
               circuit_add; circuit_sub; circuit_mul; circuit_eq; circuit_lt;
               circuit_divmod; circuit_mux; circuit_nonzero;
             ] );
      ( "garbling",
        [
          Alcotest.test_case "matches clear eval" `Quick test_garbling_matches_clear;
          Alcotest.test_case "label privacy" `Quick test_garbling_label_privacy;
          Alcotest.test_case "unboxed matches boxed reference" `Quick
            test_garbling_unboxed_matches_reference;
          Alcotest.test_case "arena reuse interleaved" `Quick test_garbling_arena_reuse;
          Alcotest.test_case "unboxed allocates 10x fewer words per AND" `Quick
            test_garbling_alloc_per_and;
        ] );
      ( "gc-protocol",
        [
          Alcotest.test_case "real backend" `Quick test_gc_real;
          Alcotest.test_case "sim backend" `Quick test_gc_sim;
          Alcotest.test_case "backends same cost" `Quick test_gc_backends_same_cost;
          Alcotest.test_case "reveal" `Quick test_gc_reveal;
          Alcotest.test_case "real/sim backend agreement" `Quick test_gc_backend_agreement;
          Alcotest.test_case "mismatched batch rejected" `Quick test_gc_batch_shape_mismatch;
        ]
        @ qsuite [ gc_random_agreement ] );
      ( "domain-pool",
        [
          Alcotest.test_case "covers all indices" `Quick test_pool_covers_indices;
          Alcotest.test_case "propagates exceptions" `Quick test_pool_propagates_exn;
          Alcotest.test_case "shutdown idempotent" `Quick test_pool_shutdown_idempotent;
          Alcotest.test_case "shutdown after worker exception" `Quick
            test_pool_shutdown_after_worker_exn;
          Alcotest.test_case "context shutdown after failing batch" `Quick
            test_context_shutdown_pool_after_failing_batch;
          Alcotest.test_case "timelines account wall clock" `Quick
            test_pool_timelines_account_wall;
          Alcotest.test_case "parallel batches deterministic" `Quick
            test_gc_parallel_deterministic;
          Alcotest.test_case "batch context cache reuse" `Quick test_gc_batch_cache_reuse;
        ] );
      ( "permutation-network",
        Alcotest.test_case "switch counts" `Quick test_perm_network_switch_count
        :: Alcotest.test_case "realizes every small permutation" `Quick
             test_perm_network_realizes_all
        :: Alcotest.test_case "golden controls" `Quick test_perm_network_golden
        :: Alcotest.test_case "build allocates no per-switch words" `Quick
             test_perm_network_build_alloc
        :: qsuite [ perm_network_correct ] );
      ( "cuckoo",
        [
          Alcotest.test_case "build" `Quick test_cuckoo_build;
          Alcotest.test_case "simple hash covers" `Quick test_cuckoo_simple_hash_covers;
          Alcotest.test_case "build error" `Quick test_cuckoo_build_error;
          Alcotest.test_case "golden bins" `Quick test_cuckoo_bins_golden;
          Alcotest.test_case "allocation per element" `Quick test_cuckoo_alloc_bound;
        ]
        @ qsuite [ cuckoo_random_sets ] );
      ( "oep",
        Alcotest.test_case "shared" `Quick test_oep_shared
        :: Alcotest.test_case "fresh randomness" `Quick test_oep_fresh_randomness
        :: Alcotest.test_case "golden controls" `Quick test_oep_program_golden
        :: Alcotest.test_case "injective rejects a repeated index" `Quick
             test_oep_injective_rejects_repeat
        :: qsuite
             [
               oep_program_correct;
               oep_injective_correct;
               oep_monotone_correct;
               oep_monotone_rejects_decrease;
               oep_switches_size_only;
             ] );
      ( "aes",
        [
          Alcotest.test_case "hardware probe" `Quick test_aes_hardware_probe;
          Alcotest.test_case "FIPS vector" `Quick test_aes_fips_vector;
          Alcotest.test_case "FIPS appendix B vector" `Quick test_aes_fips_appendix_b;
          Alcotest.test_case "sbox" `Quick test_aes_sbox;
          Alcotest.test_case "label hash golden" `Quick test_aes_label_hash_golden;
          Alcotest.test_case "gate hashes allocate nothing" `Quick
            test_aes_gate_hashes_no_alloc;
          Alcotest.test_case "garbled tables golden" `Quick test_aes_garbled_tables_golden;
          Alcotest.test_case "AES-kdf garbling" `Quick test_garbling_aes_kdf;
        ]
        @ qsuite
            [
              aes_stub_matches_table;
              aes_gate_hashes_match_singles;
            ] );
      ( "ot-extension",
        [
          Alcotest.test_case "correctness" `Quick test_ot_extension_correct;
          Alcotest.test_case "communication" `Quick test_ot_extension_accounts_comm;
        ]
        @ qsuite [ ot_extension_any_size ] );
      ( "sorting-network",
        Alcotest.test_case "comparator counts" `Quick test_sorting_network_size
        :: Alcotest.test_case "edge sizes + sentinel regression" `Quick
             test_sorting_network_edges
        :: qsuite
             [
               sorting_network_sorts; sorting_network_vs_list_sort;
               sorting_network_descending; sorting_network_structure;
             ] );
      ( "oblivious-sort",
        Alcotest.test_case "validity guard" `Quick test_oblivious_sort_validity
        :: Alcotest.test_case "top-k cost pins" `Quick test_top_k_cost_pins
        :: Alcotest.test_case "shape errors" `Quick test_oblivious_sort_shape_mismatch
        :: Alcotest.test_case "narrow ring limbs" `Quick test_oblivious_sort_narrow_ring
        :: qsuite [ oblivious_sort_matches_clear ] );
      ( "psi",
        [
          Alcotest.test_case "with payloads" `Quick test_psi_clear_payloads;
          Alcotest.test_case "element bounds" `Quick test_psi_element_bounds;
          Alcotest.test_case "shared payloads" `Quick test_psi_shared_payload;
          Alcotest.test_case "shared payloads in a narrow ring" `Quick
            test_psi_shared_payload_narrow_ring;
          Alcotest.test_case "boundary sizes" `Quick test_psi_boundary_sizes;
          Alcotest.test_case "transcript oblivious" `Quick test_transcript_oblivious;
          Alcotest.test_case "backends same cost" `Quick test_psi_backends_same_cost;
          Alcotest.test_case "OPPRF outputs golden" `Quick test_oprf_outputs_golden;
        ]
        @ qsuite (List.map psi_random_sets psi_entries) );
    ]
