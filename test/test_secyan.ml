(* Tests for the secure Yannakakis core: shared relations, the oblivious
   operators of §6.1-6.3 against their plaintext reference semantics, and
   the full protocol of §6.4 against the plaintext Yannakakis algorithm,
   under both GC backends and all ownership assignments. *)

open Secyan_crypto
open Secyan_relational
open Secyan

let check_i64 = Alcotest.testable (fun fmt v -> Fmt.pf fmt "%Ld" v) Int64.equal
let ring32 = Semiring.ring ~bits:32

let ctx_sim ?(seed = 7L) () = Context.create ~gc_backend:Context.Sim ~seed ()
let ctx_real ?(seed = 7L) () = Context.create ~gc_backend:Context.Real ~seed ()

let v i = Value.Int i

let rel name schema rows =
  Relation.of_list ~name ~schema:(Schema.of_list schema)
    (List.map (fun (vs, a) -> (Array.of_list (List.map v vs), Int64.of_int a)) rows)

(* Semantic content of an annotated relation: its nonzero non-dummy rows. *)
let content (r : Relation.t) =
  Relation.nonzero r
  |> List.filter (fun (t, _) -> not (Tuple.is_dummy t))
  |> List.map (fun (t, a) -> (Tuple.repr t, a))
  |> List.sort compare

let shared ctx ~owner r = Shared_relation.of_plain ctx ~owner r

(* ------------------------------------------------------------------ *)
(* Shared relations *)

let test_shared_roundtrip () =
  let ctx = ctx_sim () in
  let r = rel "R" [ "a" ] [ ([ 1 ], 5); ([ 2 ], 0); ([ 3 ], 7) ] in
  let sr = shared ctx ~owner:Party.Bob r in
  Alcotest.(check (list (pair string check_i64))) "reconstructs" (content r)
    (content (Shared_relation.reconstruct ctx sr))

let test_shared_reveal () =
  let ctx = ctx_sim () in
  let r = rel "R" [ "a" ] [ ([ 1 ], 5); ([ 2 ], 9) ] in
  let sr = shared ctx ~owner:Party.Alice r in
  let revealed = Shared_relation.reveal_annots ctx ~to_:Party.Alice sr in
  Alcotest.(check (list (pair string check_i64))) "revealed" (content r) (content revealed)

(* ------------------------------------------------------------------ *)
(* Oblivious projection-aggregation (§6.1) *)

let agg_case ctx ~owner rows ~attrs () =
  let r = rel "R" [ "g"; "x" ] rows in
  let attrs = Schema.of_list attrs in
  let sr = shared ctx ~owner r in
  let out = Oblivious_agg.aggregate ctx ring32 sr ~attrs in
  (* size must be preserved (obliviousness) *)
  Alcotest.(check int) "size preserved" (Relation.cardinality r) (Shared_relation.cardinality out);
  let expected = Operators.aggregate ring32 ~attrs r in
  Alcotest.(check (list (pair string check_i64))) "semantics" (content expected)
    (content (Shared_relation.reconstruct ctx out))

let test_oblivious_agg_basic () =
  agg_case (ctx_sim ()) ~owner:Party.Alice
    [ ([ 1; 10 ], 5); ([ 1; 20 ], 7); ([ 2; 30 ], 9); ([ 2; 40 ], 1); ([ 3; 50 ], 2) ]
    ~attrs:[ "g" ] ()

let test_oblivious_agg_real_backend () =
  agg_case (ctx_real ()) ~owner:Party.Bob
    [ ([ 1; 10 ], 5); ([ 1; 20 ], 7); ([ 2; 30 ], 9) ]
    ~attrs:[ "g" ] ()

let test_oblivious_agg_empty_group () =
  agg_case (ctx_sim ()) ~owner:Party.Alice
    [ ([ 1; 10 ], 3); ([ 2; 20 ], 4) ]
    ~attrs:[] ()

let test_oblivious_agg_single () =
  agg_case (ctx_sim ()) ~owner:Party.Bob [ ([ 5; 1 ], 42) ] ~attrs:[ "g" ] ()

let test_oblivious_agg_with_dummies () =
  let ctx = ctx_sim () in
  let r = Relation.pad_to ~size:8 (rel "R" [ "g" ] [ ([ 1 ], 5); ([ 1 ], 0); ([ 2 ], 3) ]) in
  let sr = shared ctx ~owner:Party.Alice r in
  let out = Oblivious_agg.aggregate ctx ring32 sr ~attrs:(Schema.of_list [ "g" ]) in
  Alcotest.(check int) "size preserved" 8 (Shared_relation.cardinality out);
  Alcotest.(check (list (pair string check_i64))) "dummies ignored"
    (content (Operators.aggregate ring32 ~attrs:(Schema.of_list [ "g" ]) r))
    (content (Shared_relation.reconstruct ctx out))

let oblivious_agg_random =
  QCheck.Test.make ~count:30 ~name:"oblivious aggregate = plaintext aggregate"
    QCheck.(pair (int_bound 100000) (int_range 1 20))
    (fun (seed, n) ->
      let prg = Prg.create (Int64.of_int seed) in
      let rows =
        List.init n (fun _ ->
            ([ Prg.below prg 5; Prg.below prg 50 ], Prg.below prg 10))
      in
      (* deduplicate tuples to respect set semantics *)
      let rows =
        List.sort_uniq compare (List.map (fun (vs, a) -> (vs, a)) rows)
        |> List.map (fun (vs, a) -> (vs, a))
      in
      let ctx = ctx_sim ~seed:(Int64.of_int (seed + 1)) () in
      let r = rel "R" [ "g"; "x" ] rows in
      let owner = if seed mod 2 = 0 then Party.Alice else Party.Bob in
      let sr = shared ctx ~owner r in
      let attrs = Schema.of_list [ "g" ] in
      let out = Oblivious_agg.aggregate ctx ring32 sr ~attrs in
      content (Operators.aggregate ring32 ~attrs r)
      = content (Shared_relation.reconstruct ctx out))

(* A relation over (g, x) whose sorted runs of equal g follow [layout]
   (one run, all singletons, or random groups): [real] tuples with
   annotations drawn over the whole [width]-bit ring, and [dummies]
   zero-annotated dummies, all in a random order. *)
let run_layout_relation prg ~layout ~width ~real ~dummies =
  let schema = Schema.of_list [ "g"; "x" ] in
  let group i =
    match layout with
    | `One_run -> 0
    | `Singletons -> i
    | `Random -> Prg.below prg (1 + (real / 2))
  in
  let rows =
    Array.append
      (Array.init real (fun i -> ([| v (group i); v i |], Prg.bits prg width)))
      (Array.make dummies (Tuple.dummy schema, 0L))
  in
  let order = Prg.permutation prg (Array.length rows) in
  Relation.of_list ~name:"R" ~schema (Array.to_list (Array.map (fun i -> rows.(i)) order))

(* The Ring aggregate (a segmented sum through one OEP, DESIGN.md §2
   item 11) against the plaintext aggregate, over ring widths 16/32/52
   and both backends. *)
let ring_agg_matches ~seed ~layout ~width ~backend ~real ~dummies =
  let prg = Prg.create (Int64.of_int seed) in
  let r = run_layout_relation prg ~layout ~width ~real ~dummies in
  let semiring = Semiring.ring ~bits:width in
  let ctx = Context.create ~bits:width ~gc_backend:backend ~seed:(Int64.of_int (seed + 1)) () in
  let owner = if seed mod 2 = 0 then Party.Alice else Party.Bob in
  let attrs = Schema.of_list [ "g" ] in
  let out = Oblivious_agg.aggregate ctx semiring (shared ctx ~owner r) ~attrs in
  Shared_relation.cardinality out = real + dummies
  && content (Operators.aggregate semiring ~attrs r)
     = content (Shared_relation.reconstruct ctx out)

let layouts = [| `One_run; `Singletons; `Random |]
let widths = [| 16; 32; 52 |]
let backends = [| Context.Sim; Context.Real |]

let ring_agg_random =
  QCheck.Test.make ~count:60 ~name:"ring aggregate = plaintext aggregate"
    QCheck.(quad (int_bound 100000) (int_range 0 12) (int_range 0 3) (int_bound 17))
    (fun (seed, real, dummies, shape) ->
      ring_agg_matches ~seed ~layout:layouts.(shape mod 3) ~width:widths.(shape / 3 mod 3)
        ~backend:backends.(shape / 9) ~real ~dummies)

(* The edge layouts the random property may miss, for every width and
   backend: n = 0, a lone tuple, a lone dummy, one run, all singletons,
   and dummies between runs. *)
let test_ring_agg_edges () =
  Array.iteri
    (fun b backend ->
      Array.iteri
        (fun w width ->
          List.iteri
            (fun i (layout, real, dummies) ->
              if not (ring_agg_matches ~seed:(i + (10 * w) + (100 * b)) ~layout ~width ~backend
                        ~real ~dummies)
              then Alcotest.failf "width %d, backend %d, edge case %d" width b i)
            [ (`Random, 0, 0); (`One_run, 1, 0); (`One_run, 0, 1); (`One_run, 6, 0);
              (`Singletons, 6, 0); (`Random, 9, 3); (`One_run, 5, 2) ])
        widths)
    backends

(* Cost is a function of public sizes alone: the same n under different
   run layouts gives the same ledger, counter for counter. *)
let test_ring_agg_cost_public () =
  let totals layout =
    let prg = Prg.create 3L in
    let r = run_layout_relation prg ~layout ~width:32 ~real:10 ~dummies:2 in
    let ctx = ctx_sim ~seed:11L () in
    ignore
      (Oblivious_agg.aggregate ctx ring32 (shared ctx ~owner:Party.Bob r)
         ~attrs:(Schema.of_list [ "g" ]));
    Context.counter_totals ctx
  in
  let one_run = totals `One_run in
  Alcotest.(check (array int)) "one run = singletons" one_run (totals `Singletons);
  Alcotest.(check (array int)) "one run = random groups" one_run (totals `Random)

let test_oblivious_project_nonzero () =
  let ctx = ctx_sim () in
  let r =
    rel "R" [ "g"; "x" ]
      [ ([ 1; 10 ], 5); ([ 1; 20 ], 0); ([ 2; 30 ], 0); ([ 3; 40 ], 2); ([ 3; 50 ], 1) ]
  in
  let attrs = Schema.of_list [ "g" ] in
  let sr = shared ctx ~owner:Party.Bob r in
  let out = Oblivious_agg.project_nonzero ctx ring32 sr ~attrs in
  Alcotest.(check int) "size preserved" 5 (Shared_relation.cardinality out);
  Alcotest.(check (list (pair string check_i64))) "pi^1 semantics"
    (content (Operators.project_nonzero ring32 ~attrs r))
    (content (Shared_relation.reconstruct ctx out))

(* pi^1 over random (g, x) relations against the plaintext operator:
   annotations zero, one, all-ones, the top bit alone or uniform over the
   [width]-bit ring, zero-annotated dummies mixed in, either owner, both
   backends. Every indicator is the adder-free nonzero test. *)
let project_nonzero_random =
  QCheck.Test.make ~count:40 ~name:"oblivious project-nonzero = plaintext"
    QCheck.(quad (int_bound 100000) (int_range 0 12) (int_range 0 3) (int_bound 5))
    (fun (seed, real, dummies, shape) ->
      let width = widths.(shape mod 3) and backend = backends.(shape / 3) in
      let prg = Prg.create (Int64.of_int seed) in
      let mask = Int64.sub (Int64.shift_left 1L width) 1L in
      let annot () =
        match Prg.below prg 5 with
        | 0 -> 0L
        | 1 -> 1L
        | 2 -> mask
        | 3 -> Int64.shift_left 1L (width - 1)
        | _ -> Prg.bits prg width
      in
      let schema = Schema.of_list [ "g"; "x" ] in
      let rows =
        List.init real (fun i -> ([| v (Prg.below prg (1 + (real / 2))); v i |], annot ()))
        @ List.init dummies (fun _ -> (Tuple.dummy schema, 0L))
      in
      let r = Relation.of_list ~name:"R" ~schema rows in
      let semiring = Semiring.ring ~bits:width in
      let ctx =
        Context.create ~bits:width ~gc_backend:backend ~seed:(Int64.of_int (seed + 1)) ()
      in
      let owner = if seed mod 2 = 0 then Party.Alice else Party.Bob in
      let attrs = Schema.of_list [ "g" ] in
      let out = Oblivious_agg.project_nonzero ctx semiring (shared ctx ~owner r) ~attrs in
      Shared_relation.cardinality out = real + dummies
      && content (Operators.project_nonzero semiring ~attrs r)
         = content (Shared_relation.reconstruct ctx out))

(* The reveal's nonzero test compares Alice's share a with the negation
   of Bob's b. Over one relation whose tuple i carries the shares
   [pairs.(i)], the oblivious join keeps exactly the tuples with
   a + b <> 0 mod 2^bits, each with annotation a + b, under Real and Sim
   alike and with equal ledgers. *)
let nonzero_reveal_matches ~bits ~owner pairs =
  let zn = Zn.create bits in
  let pairs = List.map (fun (a, b) -> (Zn.norm zn a, Zn.norm zn b)) pairs in
  let r = rel "R" [ "i" ] (List.mapi (fun i _ -> ([ i ], 0)) pairs) in
  let shares = Array.of_list (List.map (fun (a, b) -> { Secret_share.a; b }) pairs) in
  let run backend =
    let ctx = Context.create ~bits ~gc_backend:backend ~seed:5L () in
    let out =
      Oblivious_join.run ctx (Semiring.ring ~bits)
        [ Shared_relation.of_shares ~owner r shares ]
    in
    let annot i = Secret_share.reconstruct ctx out.Oblivious_join.annots.(i) in
    let kept =
      List.sort compare
        (Array.to_list
           (Array.mapi
              (fun i t -> (Tuple.repr t, annot i))
              out.Oblivious_join.joined.Relation.tuples))
    in
    (kept, Context.counter_totals ctx)
  in
  let expected =
    List.sort compare
      (List.concat
         (List.mapi
            (fun i (a, b) ->
              let x = Zn.add zn a b in
              if Int64.equal x 0L then [] else [ (Tuple.repr [| v i |], x) ])
            pairs))
  in
  let sim, sim_ledger = run Context.Sim and real, real_ledger = run Context.Real in
  sim = expected && real = expected && sim_ledger = real_ledger

let nonzero_bits = [| 1; 8; 52 |]

let nonzero_reveal_random =
  QCheck.Test.make ~count:40 ~name:"reveal nonzero test = reconstruct <> 0"
    QCheck.(triple (int_bound 100000) (int_range 1 12) (int_bound 5))
    (fun (seed, n, shape) ->
      let bits = nonzero_bits.(shape mod 3) in
      let owner = if shape < 3 then Party.Alice else Party.Bob in
      let prg = Prg.create (Int64.of_int seed) in
      let zn = Zn.create bits in
      (* half the pairs share zero: b = -a *)
      let pairs =
        List.init n (fun _ ->
            let a = Zn.random zn prg in
            (a, if Prg.bool prg then Zn.neg zn a else Zn.random zn prg))
      in
      nonzero_reveal_matches ~bits ~owner pairs)

(* The edges the random pairs may miss, at every width: x = 0 with
   a <> 0, a = 0, b = 0, and a = 2^bits - 1. *)
let test_nonzero_reveal_edges () =
  Array.iter
    (fun bits ->
      let m = Int64.sub (Int64.shift_left 1L bits) 1L in
      let pairs =
        [ (1L, m); (m, 1L); (0L, 0L); (0L, 1L); (0L, m); (1L, 0L); (m, 0L); (m, m) ]
      in
      List.iter
        (fun owner ->
          if not (nonzero_reveal_matches ~bits ~owner pairs) then
            Alcotest.failf "nonzero test edges at %d bits, %s-owned" bits
              (Party.to_string owner))
        [ Party.Alice; Party.Bob ])
    nonzero_bits

(* Gate-for-gate identity of the circuits the builder emits: a SHA-256
   over a canonical per-gate encoding (opcode byte, then lhs and rhs as
   64-bit little-endian ints, a NOT repeating its operand), then every
   output wire. The kernel pin was taken from the boxed circuit
   representation this flat format replaced; the PSI bin and tropical
   merge-chain pins from this format; the nonzero-chain pin when its
   nonzero tests dropped the reconstruct adder (DESIGN.md §2 item 13). *)
let circuit_digest (c : Boolean_circuit.t) =
  let buf = Buffer.create (17 * Boolean_circuit.n_gates c) in
  let int x = Buffer.add_int64_le buf (Int64.of_int x) in
  for i = 0 to Boolean_circuit.n_gates c - 1 do
    Buffer.add_char buf (Bytes.get c.Boolean_circuit.ops i);
    int c.Boolean_circuit.lhs.(i);
    int c.Boolean_circuit.rhs.(i)
  done;
  Array.iter int c.Boolean_circuit.outputs;
  Sha256.to_hex (Sha256.digest_string (Buffer.contents buf))

let test_circuit_digests () =
  let module Bb = Boolean_circuit.Builder in
  let ring_bits = 52 in
  let semiring = Semiring.ring ~bits:ring_bits in
  let kernel =
    let b = Bb.create () in
    let word () = Circuits.input_word b ring_bits in
    let x = word () and y = word () and z = word () in
    let out = Circuits.add_word b (Circuits.mul_word b x y) z in
    Bb.finalize b ~outputs:(Circuits.materialize_word b 0 out)
  in
  let n = 17 in
  let ctx = Context.create ~bits:ring_bits ~gc_backend:Context.Sim ~seed:7L () in
  (* the chains over a context whose ring is the semiring's width, as a
     query runs them; [merge_chain] serves only the non-Ring semirings *)
  let chain ?(per_tuple = fun _ s -> [ Gc_protocol.Shared s ]) semiring build =
    let ctx =
      Context.create ~bits:(Semiring.bits semiring) ~gc_backend:Context.Sim ~seed:7L ()
    in
    let inputs =
      List.init (n - 1) (fun _ ->
          Gc_protocol.Priv { owner = Party.Bob; value = 0L; bits = 1 })
      @ List.concat (List.init n (fun _ -> per_tuple ctx Secret_share.zero))
    in
    Gc_protocol.circuit ctx ~inputs ~build:(build semiring ~n)
  in
  (* PSI's per-bin circuit: receiver's (a_i, w_i), sender's (r_i, m_i)
     and dummy index d_i *)
  let index_bits = 9 in
  let psi_bin =
    let priv owner bits = Gc_protocol.Priv { owner; value = 0L; bits } in
    let cmp = Psi.cmp_bits in
    Gc_protocol.circuit ctx ~build:Psi.index_bin
      ~inputs:
        [ priv Party.Alice cmp; priv Party.Alice index_bits; priv Party.Bob cmp;
          priv Party.Bob index_bits; priv Party.Bob index_bits ]
  in
  List.iter
    (fun (name, c, ands, digest) ->
      Alcotest.(check int) (name ^ " AND count") ands (Boolean_circuit.and_count c);
      Alcotest.(check string) (name ^ " digest") digest (circuit_digest c))
    [
      ( "x*y+z", kernel, 2704,
        "fcdec7b79ad25a95baa18065d5ea5da75c95f0d0e287f11a50d8d31df3a7c73e" );
      ( "merge chain (tropical min)",
        chain (Semiring.tropical_min ~bits:32) Oblivious_agg.merge_chain, 2575,
        "5594c344086812761be25a33808f5269b24cbb14d618a4eb2a95551d8b6686d8" );
      ( "nonzero chain",
        chain ~per_tuple:Gc_protocol.nonzero_inputs semiring Oblivious_agg.nonzero_chain,
        966, "986c9c2f572aa63a96a9e40ef3c928b179db739123bfda84d5f4144c148ce3a4" );
      ( "PSI index-reveal bin", psi_bin, 55 + index_bits,
        "579ee2f6a9186c92febfc4780d501a5cbc1606773b5b446273da04127f29f89e" );
    ]

(* ------------------------------------------------------------------ *)
(* Oblivious semijoin / constrained join (§6.2) *)

(* expected semantics of join_constrained: left tuples, annotation
   multiplied by the matching right annotation (or zeroed) *)
let expected_join_constrained semiring (left : Relation.t) (right : Relation.t) =
  let key_attrs = right.Relation.schema in
  let right_map = Hashtbl.create 16 in
  Array.iteri
    (fun j t ->
      if not (Tuple.is_dummy t) then
        Hashtbl.replace right_map
          (Tuple.repr (Tuple.project right.Relation.schema key_attrs t))
          right.Relation.annots.(j))
    right.Relation.tuples;
  Relation.with_annots left
    (Array.mapi
       (fun i t ->
         if Tuple.is_dummy t then 0L
         else
           match
             Hashtbl.find_opt right_map
               (Tuple.repr (Tuple.project left.Relation.schema key_attrs t))
           with
           | Some z -> Semiring.mul semiring left.Relation.annots.(i) z
           | None -> 0L)
       left.Relation.tuples)

let join_constrained_case ctx ~left_owner ~right_owner () =
  let left =
    rel "L" [ "a"; "b" ]
      [ ([ 1; 10 ], 2); ([ 2; 20 ], 3); ([ 3; 30 ], 4); ([ 4; 20 ], 5) ]
  in
  let right = rel "R" [ "b" ] [ ([ 10 ], 7); ([ 20 ], 0); ([ 40 ], 9) ] in
  let sl = shared ctx ~owner:left_owner left in
  let sr = shared ctx ~owner:right_owner right in
  let out = Oblivious_semijoin.join_constrained ctx ring32 ~left:sl ~right:sr in
  Alcotest.(check int) "size preserved" 4 (Shared_relation.cardinality out);
  Alcotest.(check bool) "tuples unchanged" true
    (Array.for_all2 Tuple.equal out.Shared_relation.rel.Relation.tuples left.Relation.tuples);
  Alcotest.(check (list (pair string check_i64))) "join semantics"
    (content (expected_join_constrained ring32 left right))
    (content (Shared_relation.reconstruct ctx out))

let test_join_constrained_cross () =
  join_constrained_case (ctx_sim ()) ~left_owner:Party.Alice ~right_owner:Party.Bob ()

let test_join_constrained_cross_flipped () =
  join_constrained_case (ctx_sim ()) ~left_owner:Party.Bob ~right_owner:Party.Alice ()

let test_join_constrained_same_owner () =
  join_constrained_case (ctx_sim ()) ~left_owner:Party.Bob ~right_owner:Party.Bob ()

let test_join_constrained_real () =
  join_constrained_case (ctx_real ()) ~left_owner:Party.Alice ~right_owner:Party.Bob ()

(* Every cross-party constrained join takes the §5.5 shared-payload PSI:
   a right relation whose owner still knows its annotations (of_plain)
   gives the same answer at the same cost as the same shares without them
   (of_shares), under both backends. *)
let test_join_constrained_ignores_clear () =
  let left =
    rel "L" [ "a"; "b" ]
      [ ([ 1; 10 ], 2); ([ 2; 20 ], 3); ([ 3; 30 ], 4); ([ 4; 20 ], 5) ]
  in
  let right = rel "R" [ "b" ] [ ([ 10 ], 7); ([ 20 ], 0); ([ 40 ], 9) ] in
  List.iter
    (fun (backend, make_ctx) ->
      let run ~keep_clear =
        let ctx = make_ctx () in
        let sl = shared ctx ~owner:Party.Alice left in
        let sr = shared ctx ~owner:Party.Bob right in
        let sr =
          if keep_clear then sr
          else
            Shared_relation.of_shares ~owner:Party.Bob sr.Shared_relation.rel
              sr.Shared_relation.annots
        in
        Alcotest.(check bool) (backend ^ ": right annotations clear") keep_clear
          (Option.is_some sr.Shared_relation.clear_annots);
        let out = Oblivious_semijoin.join_constrained ctx ring32 ~left:sl ~right:sr in
        (content (Shared_relation.reconstruct ctx out), Context.counter_totals ctx)
      in
      let clear_answer, clear_cost = run ~keep_clear:true in
      let shared_answer, shared_cost = run ~keep_clear:false in
      Alcotest.(check (list (pair string check_i64))) (backend ^ ": join semantics")
        (content (expected_join_constrained ring32 left right))
        clear_answer;
      Alcotest.(check (list (pair string check_i64))) (backend ^ ": same answer")
        clear_answer shared_answer;
      Alcotest.(check (array int)) (backend ^ ": same counters") clear_cost shared_cost)
    [ ("Sim", ctx_sim ?seed:None); ("Real", ctx_real ?seed:None) ]

let join_constrained_random =
  QCheck.Test.make ~count:25 ~name:"oblivious constrained join = reference"
    QCheck.(int_bound 100000)
    (fun seed ->
      let prg = Prg.create (Int64.of_int seed) in
      let nl = 1 + Prg.below prg 15 and nr = 1 + Prg.below prg 8 in
      let left_rows =
        List.sort_uniq compare
          (List.init nl (fun _ -> [ Prg.below prg 20; Prg.below prg 6 ]))
        |> List.map (fun vs -> (vs, 1 + Prg.below prg 9))
      in
      let right_rows =
        List.sort_uniq compare (List.init nr (fun _ -> [ Prg.below prg 6 ]))
        |> List.map (fun vs -> (vs, Prg.below prg 5))
      in
      let left = rel "L" [ "a"; "b" ] left_rows in
      let right = rel "R" [ "b" ] right_rows in
      let ctx = ctx_sim ~seed:(Int64.of_int (seed + 3)) () in
      let owners =
        match seed mod 3 with
        | 0 -> (Party.Alice, Party.Bob)
        | 1 -> (Party.Bob, Party.Alice)
        | _ -> (Party.Alice, Party.Alice)
      in
      let sl = shared ctx ~owner:(fst owners) left in
      let sr = shared ctx ~owner:(snd owners) right in
      let out = Oblivious_semijoin.join_constrained ctx ring32 ~left:sl ~right:sr in
      content (expected_join_constrained ring32 left right)
      = content (Shared_relation.reconstruct ctx out))

let test_oblivious_semijoin () =
  let ctx = ctx_sim () in
  let left = rel "L" [ "a"; "b" ] [ ([ 1; 10 ], 2); ([ 2; 20 ], 3); ([ 3; 30 ], 4) ] in
  let right = rel "R" [ "b"; "c" ] [ ([ 10; 1 ], 6); ([ 30; 2 ], 0) ] in
  let sl = shared ctx ~owner:Party.Alice left in
  let sr = shared ctx ~owner:Party.Bob right in
  let out = Oblivious_semijoin.semijoin ctx ring32 ~left:sl ~right:sr in
  (* b=10 survives with annotation preserved; b=20 has no partner; b=30's
     partner is zero-annotated *)
  Alcotest.(check (list (pair string check_i64))) "semijoin semantics"
    [ ("i1|i10", 2L) ]
    (content (Shared_relation.reconstruct ctx out));
  Alcotest.(check int) "size preserved" 3 (Shared_relation.cardinality out)

let test_oblivious_semijoin_shared_right () =
  (* force the expensive path: right annotations already shared-only *)
  let ctx = ctx_sim () in
  let left = rel "L" [ "a"; "b" ] [ ([ 1; 10 ], 2); ([ 2; 20 ], 3) ] in
  let right = rel "R" [ "b"; "c" ] [ ([ 10; 1 ], 6); ([ 20; 2 ], 0) ] in
  let sl = shared ctx ~owner:Party.Alice left in
  let sr0 = shared ctx ~owner:Party.Bob right in
  let sr = Shared_relation.of_shares ~owner:Party.Bob sr0.Shared_relation.rel sr0.Shared_relation.annots in
  let out = Oblivious_semijoin.semijoin ctx ring32 ~left:sl ~right:sr in
  Alcotest.(check (list (pair string check_i64))) "semijoin via shared payloads"
    [ ("i1|i10", 2L) ]
    (content (Shared_relation.reconstruct ctx out))

(* ------------------------------------------------------------------ *)
(* Oblivious join (§6.3) *)

let test_oblivious_join () =
  let ctx = ctx_sim () in
  let r1 = rel "R1" [ "a"; "b" ] [ ([ 1; 10 ], 2); ([ 2; 20 ], 3); ([ 9; 90 ], 0) ] in
  let r2 = rel "R2" [ "b"; "c" ] [ ([ 10; 5 ], 7); ([ 20; 6 ], 1); ([ 90; 7 ], 0) ] in
  let s1 = shared ctx ~owner:Party.Alice r1 in
  let s2 = shared ctx ~owner:Party.Bob r2 in
  let out = Oblivious_join.run ctx ring32 [ s1; s2 ] in
  let expected = Operators.join ring32 r1 r2 in
  let got =
    Relation.with_annots out.Oblivious_join.joined
      (Array.map (Secret_share.reconstruct ctx) out.Oblivious_join.annots)
  in
  Alcotest.(check (list (pair string check_i64))) "join results" (content expected) (content got)

(* The k-way product is a balanced tree of OT-based product batches; with
   duplicate tuples every J* copy must still get a distinct combination.
   Both backends agree with the plaintext join and account equally. *)
let test_oblivious_join_k_way () =
  let rels =
    [
      rel "R1" [ "a"; "b" ] [ ([ 1; 10 ], 2); ([ 1; 10 ], 5); ([ 2; 20 ], 3); ([ 9; 90 ], 0) ];
      rel "R2" [ "b"; "c" ] [ ([ 10; 5 ], 7); ([ 20; 6 ], 1); ([ 20; 6 ], 4) ];
      rel "R3" [ "c"; "d" ] [ ([ 5; 1 ], -1); ([ 6; 2 ], 9) ];
      rel "R4" [ "d" ] [ ([ 1 ], 3); ([ 2 ], 11); ([ 2 ], 1) ];
    ]
  in
  List.iter
    (fun k ->
      let rs = List.filteri (fun i _ -> i < k) rels in
      let expected =
        List.fold_left (Operators.join ring32) (List.hd rs) (List.tl rs) |> content
      in
      let run backend =
        let ctx = Context.create ~gc_backend:backend ~seed:7L () in
        let srs =
          List.mapi
            (fun i r -> shared ctx ~owner:(if i mod 2 = 0 then Party.Alice else Party.Bob) r)
            rs
        in
        let out, _, cost =
          Secyan_obs.Trace.measure ctx (fun () -> Oblivious_join.run ctx ring32 srs)
        in
        ( content
            (Relation.with_annots out.Oblivious_join.joined
               (Array.map (Secret_share.reconstruct ctx) out.Oblivious_join.annots)),
          cost )
      in
      let sim, sim_cost = run Context.Sim and real, real_cost = run Context.Real in
      let name = Printf.sprintf "k = %d" k in
      Alcotest.(check (list (pair string check_i64))) (name ^ " sim") expected sim;
      Alcotest.(check (list (pair string check_i64))) (name ^ " real") expected real;
      Alcotest.(check bool) (name ^ " real/sim same cost") true (Comm.equal sim_cost real_cost))
    [ 2; 3; 4 ]

let test_oblivious_join_single_relation () =
  let ctx = ctx_sim () in
  let r = rel "R" [ "a" ] [ ([ 1 ], 5); ([ 2 ], 0); ([ 3 ], 7) ] in
  let s = shared ctx ~owner:Party.Bob r in
  let out = Oblivious_join.run ctx ring32 [ s ] in
  let got =
    Relation.with_annots out.Oblivious_join.joined
      (Array.map (Secret_share.reconstruct ctx) out.Oblivious_join.annots)
  in
  Alcotest.(check (list (pair string check_i64))) "reveal-only" (content r) (content got)

(* ------------------------------------------------------------------ *)
(* Full protocol (§6.4) vs plaintext Yannakakis *)

let fig1_query seed owners =
  let prg = Prg.create (Int64.of_int seed) in
  let mk name schema n domain =
    let rows =
      List.sort_uniq compare
        (List.init n (fun _ -> List.map (fun _ -> Prg.below prg domain) schema))
      |> List.map (fun vs -> (Array.of_list (List.map v vs), Int64.of_int (1 + Prg.below prg 9)))
    in
    Relation.of_list ~name ~schema:(Schema.of_list schema) rows
  in
  let r1 = mk "R1" [ "A"; "B" ] 8 4 in
  let r2 = mk "R2" [ "A"; "C" ] 8 4 in
  let r3 = mk "R3" [ "B"; "D" ] 8 4 in
  let r4 = mk "R4" [ "D"; "F"; "G" ] 10 4 in
  let r5 = mk "R5" [ "D"; "E" ] 8 4 in
  let o1, o2, o3, o4, o5 = owners in
  Query.prepare ~name:"fig1" ~semiring:ring32 ~output:[ "B"; "D"; "E"; "F" ]
    ~inputs:
      [
        ("R1", { Query.relation = r1; owner = o1 });
        ("R2", { Query.relation = r2; owner = o2 });
        ("R3", { Query.relation = r3; owner = o3 });
        ("R4", { Query.relation = r4; owner = o4 });
        ("R5", { Query.relation = r5; owner = o5 });
      ]

let project_content output (r : Relation.t) =
  Relation.nonzero r
  |> List.filter (fun (t, _) -> not (Tuple.is_dummy t))
  |> List.map (fun (t, a) -> (Tuple.repr (Tuple.project r.Relation.schema output t), a))
  |> List.sort compare

let check_protocol ctx q =
  let revealed, _stats = Secure_yannakakis.run ctx q in
  let expected = Query.plaintext q in
  let output = q.Query.output in
  Alcotest.(check (list (pair string check_i64))) "secure = plaintext"
    (project_content output expected)
    (project_content output revealed)

let test_protocol_fig1 () =
  check_protocol (ctx_sim ())
    (fig1_query 11 (Party.Alice, Party.Bob, Party.Alice, Party.Bob, Party.Alice))

let test_protocol_fig1_real () =
  check_protocol (ctx_real ())
    (fig1_query 12 (Party.Bob, Party.Alice, Party.Bob, Party.Alice, Party.Bob))

let test_protocol_all_bob () =
  check_protocol (ctx_sim ())
    (fig1_query 13 (Party.Bob, Party.Bob, Party.Bob, Party.Bob, Party.Bob))

let protocol_random =
  QCheck.Test.make ~count:15 ~name:"secure yannakakis = plaintext (random data/owners)"
    QCheck.(int_bound 100000)
    (fun seed ->
      let owner b = if b then Party.Alice else Party.Bob in
      let prg = Prg.create (Int64.of_int (seed * 7)) in
      let owners =
        ( owner (Prg.bool prg), owner (Prg.bool prg), owner (Prg.bool prg),
          owner (Prg.bool prg), owner (Prg.bool prg) )
      in
      let q = fig1_query seed owners in
      let ctx = ctx_sim ~seed:(Int64.of_int (seed + 17)) () in
      let revealed, _ = Secure_yannakakis.run ctx q in
      let expected = Query.plaintext q in
      project_content q.Query.output expected = project_content q.Query.output revealed)

let test_protocol_example_11 () =
  let ctx = ctx_sim () in
  let r1 = rel "R1" [ "person"; "coins" ] [ ([ 1; 20 ], 80); ([ 2; 50 ], 50); ([ 3; 0 ], 100) ] in
  let r2 =
    rel "R2" [ "person"; "disease" ] [ ([ 1; 7 ], 1000); ([ 2; 7 ], 2000); ([ 2; 8 ], 500) ]
  in
  let r3 = rel "R3" [ "disease"; "class" ] [ ([ 7; 1 ], 1); ([ 8; 2 ], 1); ([ 9; 3 ], 1) ] in
  let q =
    Query.prepare ~name:"insurance" ~semiring:ring32 ~output:[ "class" ]
      ~inputs:
        [
          ("R1", { Query.relation = r1; owner = Party.Alice });
          ("R2", { Query.relation = r2; owner = Party.Bob });
          ("R3", { Query.relation = r3; owner = Party.Alice });
        ]
  in
  let revealed, _ = Secure_yannakakis.run ctx q in
  Alcotest.(check (list (pair string check_i64))) "payout by class"
    [ ("i1", 180000L); ("i2", 25000L) ]
    (project_content q.Query.output revealed)

(* MIN-aggregate over a join via the tropical (min,+) semiring: the
   cheapest total price per region, where item base prices live with
   Alice and per-region shipping surcharges with Bob. *)
let test_protocol_tropical_min () =
  let t = Semiring.tropical_min ~bits:32 in
  let e v = Semiring.of_value t (Int64.of_int v) in
  let items =
    Relation.of_list ~name:"items"
      ~schema:(Schema.of_list [ "item"; "region" ])
      [
        ([| v 1; v 10 |], e 500);
        ([| v 2; v 10 |], e 300);
        ([| v 3; v 20 |], e 800);
        ([| v 4; v 30 |], e 100);
      ]
  in
  let shipping =
    Relation.of_list ~name:"shipping"
      ~schema:(Schema.of_list [ "item" ])
      [ ([| v 1 |], e 50); ([| v 2 |], e 400); ([| v 3 |], e 20) ]
  in
  let q =
    Query.prepare ~name:"cheapest" ~semiring:t ~output:[ "region" ]
      ~inputs:
        [
          ("items", { Query.relation = items; owner = Party.Alice });
          ("shipping", { Query.relation = shipping; owner = Party.Bob });
        ]
  in
  let ctx = ctx_sim () in
  let revealed, _ = Secure_yannakakis.run ctx q in
  let decoded =
    Relation.nonzero revealed
    |> List.map (fun (tp, a) -> (Tuple.repr tp, Semiring.to_value t a))
    |> List.sort compare
  in
  (* region 10: min(500+50, 300+400) = 550; region 20: 820; region 30:
     item 4 has no shipping row -> dangling, absent from the result *)
  Alcotest.(check (list (pair string (option check_i64)))) "min per region"
    [ ("i10", Some 550L); ("i20", Some 820L) ]
    decoded;
  (* and it matches the plaintext algorithm *)
  let plain = Query.plaintext q in
  Alcotest.(check (list (pair string check_i64))) "matches plaintext"
    (project_content q.Query.output plain)
    (project_content q.Query.output revealed)

(* the run with shared output (for composition) must agree with run *)
let test_run_shared_consistent () =
  let ctx = ctx_sim () in
  let q = fig1_query 21 (Party.Alice, Party.Bob, Party.Alice, Party.Bob, Party.Alice) in
  let r = Secure_yannakakis.run_shared ctx q in
  let reconstructed =
    Relation.with_annots r.Secure_yannakakis.joined
      (Array.map (Secret_share.reconstruct ctx) r.Secure_yannakakis.annots)
  in
  Alcotest.(check (list (pair string check_i64))) "shared = plaintext"
    (project_content q.Query.output (Query.plaintext q))
    (project_content q.Query.output reconstructed)

(* A context whose ring is narrower than the query's semiring would wrap
   every share: the run is refused before any traffic, naming both
   widths. *)
let test_ring_width_mismatch_rejected () =
  let q = fig1_query 21 (Party.Alice, Party.Bob, Party.Alice, Party.Bob, Party.Alice) in
  let ctx = Context.create ~bits:16 ~seed:7L () in
  let bits = Semiring.bits q.Query.semiring in
  match Secure_yannakakis.run ctx q with
  | _ -> Alcotest.fail "a ring-width mismatch must be rejected"
  | exception Invalid_argument msg ->
      let contains sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "names the context's width" true (contains "16 bits");
      Alcotest.(check bool) "names the semiring's width" true
        (contains (Printf.sprintf "%d bits" bits));
      Alcotest.(check bool) "nothing sent" true
        (Comm.equal Comm.empty_tally (Context.tally ctx))

(* Fully random free-connex queries: a random tree shape, one fresh join
   attribute per tree edge plus private per-node attributes, output = the
   attributes of a random root-containing subtree (which always satisfies
   the free-connex condition (2)), random data and random owners. *)
let random_query_random_tree seed =
  let prg = Prg.create (Int64.of_int ((seed * 131) + 7)) in
  let k = 2 + Prg.below prg 4 in
  (* random tree: parent of node i>0 is a random earlier node *)
  let parent = Array.init k (fun i -> if i = 0 then -1 else Prg.below prg i) in
  let edge_attr = Array.init k (fun i -> Printf.sprintf "j%d" i) in
  (* node attrs: the edge to the parent, edges to children, an own attr *)
  let attrs_of i =
    let own = [ Printf.sprintf "x%d" i ] in
    let up = if i = 0 then [] else [ edge_attr.(i) ] in
    let down =
      List.filter_map
        (fun c -> if parent.(c) = i then Some edge_attr.(c) else None)
        (List.init k Fun.id)
    in
    up @ down @ own
  in
  (* output: attributes of a random connected subtree containing the root *)
  let in_top = Array.make k false in
  in_top.(0) <- true;
  for i = 1 to k - 1 do
    if in_top.(parent.(i)) && Prg.bool prg then in_top.(i) <- true
  done;
  let output =
    List.concat_map (fun i -> if in_top.(i) then attrs_of i else []) (List.init k Fun.id)
    |> List.sort_uniq compare
  in
  let relations =
    List.init k (fun i ->
        let attrs = attrs_of i in
        let n = 2 + Prg.below prg 8 in
        let rows =
          List.sort_uniq compare
            (List.init n (fun _ -> List.map (fun _ -> Prg.below prg 3) attrs))
          |> List.map (fun vs ->
                 ( Array.of_list (List.map v vs),
                   Int64.of_int (1 + Prg.below prg 5) ))
        in
        ( Printf.sprintf "R%d" i,
          {
            Query.relation =
              Relation.of_list ~name:(Printf.sprintf "R%d" i)
                ~schema:(Schema.of_list attrs) rows;
            owner = (if Prg.bool prg then Party.Alice else Party.Bob);
          } ))
  in
  Query.prepare ~name:"random" ~semiring:ring32 ~output ~inputs:relations

let protocol_random_trees =
  QCheck.Test.make ~count:25 ~name:"secure = plaintext on random tree queries"
    QCheck.(int_bound 100000)
    (fun seed ->
      let q = random_query_random_tree seed in
      let ctx = ctx_sim ~seed:(Int64.of_int (seed + 23)) () in
      let revealed, _ = Secure_yannakakis.run ctx q in
      let expected = Query.plaintext q in
      project_content q.Query.output expected = project_content q.Query.output revealed)

(* ------------------------------------------------------------------ *)
(* Edge cases *)

let test_protocol_empty_result () =
  (* no join partners at all: J* is empty, the protocol must not fail *)
  let ctx = ctx_sim () in
  let r1 = rel "R1" [ "a"; "b" ] [ ([ 1; 10 ], 2); ([ 2; 20 ], 3) ] in
  let r2 = rel "R2" [ "b" ] [ ([ 99 ], 5) ] in
  let q =
    Query.prepare ~name:"empty" ~semiring:ring32 ~output:[ "a" ]
      ~inputs:
        [
          ("R1", { Query.relation = r1; owner = Party.Alice });
          ("R2", { Query.relation = r2; owner = Party.Bob });
        ]
  in
  let revealed, _ = Secure_yannakakis.run ctx q in
  Alcotest.(check int) "no results" 0 (List.length (Relation.nonzero revealed))

let test_protocol_all_dummies () =
  (* a relation that is pure padding *)
  let ctx = ctx_sim () in
  let r1 = rel "R1" [ "a"; "b" ] [ ([ 1; 10 ], 2) ] in
  let r2 =
    Relation.pad_to ~size:4 (Relation.of_list ~name:"R2" ~schema:(Schema.of_list [ "b" ]) [])
  in
  let q =
    Query.prepare ~name:"dummies" ~semiring:ring32 ~output:[ "a" ]
      ~inputs:
        [
          ("R1", { Query.relation = r1; owner = Party.Alice });
          ("R2", { Query.relation = r2; owner = Party.Bob });
        ]
  in
  let revealed, _ = Secure_yannakakis.run ctx q in
  Alcotest.(check int) "no results" 0 (List.length (Relation.nonzero revealed))

let test_protocol_singletons () =
  let ctx = ctx_sim () in
  let r1 = rel "R1" [ "a"; "b" ] [ ([ 7; 10 ], 3) ] in
  let r2 = rel "R2" [ "b" ] [ ([ 10 ], 5) ] in
  let q =
    Query.prepare ~name:"single" ~semiring:ring32 ~output:[ "a" ]
      ~inputs:
        [
          ("R1", { Query.relation = r1; owner = Party.Bob });
          ("R2", { Query.relation = r2; owner = Party.Alice });
        ]
  in
  let revealed, _ = Secure_yannakakis.run ctx q in
  Alcotest.(check (list (pair string check_i64))) "single row" [ ("i7", 15L) ]
    (project_content q.Query.output revealed)

(* A one-relation query is the degenerate join tree: the plan is the
   reduce to the output attributes and the reveal, with no semijoin or
   join between parties. Duplicate output keys aggregate, dummies and
   zero annotations (so the all-zero group 4) drop out, and the result
   matches the plaintext evaluation for the ring (both backends) and a
   tropical semiring. *)
let single_relation_query semiring ~owner =
  let e x = Semiring.of_value semiring (Int64.of_int x) in
  let r =
    Relation.pad_to ~size:8
      (Relation.of_list ~name:"R"
         ~schema:(Schema.of_list [ "flag"; "item" ])
         [
           ([| v 1; v 10 |], e 5);
           ([| v 1; v 11 |], e 7);
           ([| v 2; v 12 |], e 3);
           ([| v 2; v 13 |], Semiring.zero);
           ([| v 3; v 14 |], e 9);
           ([| v 4; v 15 |], Semiring.zero);
         ])
  in
  Query.prepare ~name:"single-relation" ~semiring ~output:[ "flag" ]
    ~inputs:[ ("R", { Query.relation = r; owner }) ]

let test_protocol_single_relation () =
  let check name ctx semiring ~owner expected =
    let q = single_relation_query semiring ~owner in
    let revealed, stats = Secure_yannakakis.run ctx q in
    let decoded =
      project_content q.Query.output revealed
      |> List.map (fun (k, a) -> (k, Semiring.to_value semiring a))
    in
    Alcotest.(check (list (pair string (option check_i64)))) (name ^ ": result") expected decoded;
    Alcotest.(check (list (pair string check_i64))) (name ^ ": secure = plaintext")
      (project_content q.Query.output (Query.plaintext q))
      (project_content q.Query.output revealed);
    Alcotest.(check bool) (name ^ ": reduce + reveal only, few rounds") true
      (stats.Secure_yannakakis.tally.Comm.rounds < 30)
  in
  check "ring, sim" (ctx_sim ()) ring32 ~owner:Party.Bob
    [ ("i1", Some 12L); ("i2", Some 3L); ("i3", Some 9L) ];
  check "ring, real" (ctx_real ()) ring32 ~owner:Party.Alice
    [ ("i1", Some 12L); ("i2", Some 3L); ("i3", Some 9L) ];
  check "tropical max" (ctx_sim ()) (Semiring.tropical_max ~bits:32) ~owner:Party.Bob
    [ ("i1", Some 7L); ("i2", Some 3L); ("i3", Some 9L) ]

(* tropical operators against plaintext semantics on random instances *)
let tropical_operators_random =
  QCheck.Test.make ~count:20 ~name:"oblivious ops = plaintext (tropical min)"
    QCheck.(int_bound 100000)
    (fun seed ->
      let t = Semiring.tropical_min ~bits:32 in
      let prg = Prg.create (Int64.of_int seed) in
      let rows n =
        List.sort_uniq compare
          (List.init n (fun _ -> [ Prg.below prg 6; Prg.below prg 40 ]))
        |> List.map (fun vs ->
               ( Array.of_list (List.map v vs),
                 Semiring.of_value t (Int64.of_int (Prg.below prg 500)) ))
      in
      let left =
        Relation.of_list ~name:"L" ~schema:(Schema.of_list [ "g"; "b" ]) (rows 12)
      in
      let right_rows =
        List.sort_uniq compare (List.init 5 (fun _ -> Prg.below prg 6))
        |> List.map (fun b ->
               ([| v b |], Semiring.of_value t (Int64.of_int (Prg.below prg 100))))
      in
      let right = Relation.of_list ~name:"R" ~schema:(Schema.of_list [ "b" ]) right_rows in
      (* wait: left joins right on "b" which ranges over 40 values vs right 6 *)
      let left =
        Relation.of_list ~name:"L" ~schema:(Schema.of_list [ "g"; "b" ])
          (List.map
             (fun (tup, a) -> ([| tup.(0); v (Prg.below prg 6) |], a))
             (Array.to_list left.Relation.tuples
             |> List.mapi (fun i tp -> (tp, left.Relation.annots.(i)))))
      in
      let ctx = ctx_sim ~seed:(Int64.of_int (seed + 5)) () in
      let sl = shared ctx ~owner:Party.Alice left in
      let sr = shared ctx ~owner:Party.Bob right in
      (* aggregate *)
      let attrs = Schema.of_list [ "g" ] in
      let agg_ok =
        content (Operators.aggregate t ~attrs left)
        = content (Shared_relation.reconstruct ctx (Oblivious_agg.aggregate ctx t sl ~attrs))
      in
      (* constrained join *)
      let jc = Oblivious_semijoin.join_constrained ctx t ~left:sl ~right:sr in
      let jc_ok =
        content (expected_join_constrained t left right)
        = content (Shared_relation.reconstruct ctx jc)
      in
      agg_ok && jc_ok)

(* ------------------------------------------------------------------ *)
(* Obliviousness of the full protocol: isomorphic instances (same IN,
   same OUT) must generate byte-identical transcript sizes. *)

let test_protocol_transcript_oblivious () =
  let run_with_shift shift =
    let ctx = ctx_sim ~seed:5L () in
    let r1 =
      rel "R1" [ "A"; "B" ] [ ([ 1 + shift; 10 + shift ], 2); ([ 2 + shift; 20 + shift ], 3) ]
    in
    let r2 = rel "R2" [ "B" ] [ ([ 10 + shift ], 5); ([ 30 + shift ], 1) ] in
    let q =
      Query.prepare ~name:"iso" ~semiring:ring32 ~output:[ "A" ]
        ~inputs:
          [
            ("R1", { Query.relation = r1; owner = Party.Alice });
            ("R2", { Query.relation = r2; owner = Party.Bob });
          ]
    in
    let _, stats = Secure_yannakakis.run ctx q in
    stats.Secure_yannakakis.tally
  in
  let t1 = run_with_shift 0 and t2 = run_with_shift 1000 in
  Alcotest.(check bool) "identical transcript sizes" true (Comm.equal t1 t2)

(* Real and Sim backends must account identical communication. *)
let test_protocol_backend_cost_parity () =
  let run backend =
    let ctx = Context.create ~gc_backend:backend ~seed:9L () in
    let q = fig1_query 31 (Party.Alice, Party.Bob, Party.Alice, Party.Bob, Party.Alice) in
    let _, stats = Secure_yannakakis.run ctx q in
    stats.Secure_yannakakis.tally
  in
  Alcotest.(check bool) "real/sim same cost" true
    (Comm.equal (run Context.Real) (run Context.Sim))

(* ------------------------------------------------------------------ *)
(* The oblivious ORDER BY / top-k phase (DESIGN.md §17) *)

(* Rows of the revealed relation in their physical (= query) order. *)
let ordered_content (r : Relation.t) =
  Relation.nonzero r |> List.map (fun (t, a) -> (Tuple.repr t, a))

let expected_ordered q =
  Query.ordered_rows q (Query.plaintext q) |> List.map (fun (t, a) -> (Tuple.repr t, a))

let order_query ?order_by ?limit () =
  let r1 =
    rel "R1" [ "a"; "b" ]
      [ ([ 1; 10 ], 2); ([ 2; 10 ], 7); ([ 3; 20 ], 1); ([ 4; 20 ], 7); ([ 5; 30 ], 4) ]
  in
  let r2 = rel "R2" [ "b" ] [ ([ 10 ], 3); ([ 20 ], 1); ([ 30 ], 2) ] in
  Query.with_order ?order_by ?limit
    (Query.prepare ~name:"order" ~semiring:ring32 ~output:[ "a"; "b" ]
       ~inputs:
         [
           ("R1", { Query.relation = r1; owner = Party.Alice });
           ("R2", { Query.relation = r2; owner = Party.Bob });
         ])

let check_ordered ?(ctx = ctx_sim ()) q =
  let revealed, _ = Secure_yannakakis.run ctx q in
  Alcotest.(check (list (pair string check_i64)))
    "ordered result" (expected_ordered q) (ordered_content revealed)

let test_order_by_agg_desc () =
  check_ordered (order_query ~order_by:[ (Query.By_agg, Query.Desc) ] ())

let test_order_by_attr_asc_limit () =
  check_ordered
    (order_query
       ~order_by:[ (Query.By_attr "b", Query.Asc); (Query.By_agg, Query.Desc) ]
       ~limit:3 ())

let test_order_limit_edges () =
  (* k = 0, k = 1, k = n, k > n *)
  List.iter
    (fun k -> check_ordered (order_query ~order_by:[ (Query.By_agg, Query.Desc) ] ~limit:k ()))
    [ 0; 1; 5; 42 ]

let test_order_limit_only () =
  (* LIMIT without ORDER BY: the implicit repr tiebreak still makes the
     truncation deterministic and equal to the plaintext reference *)
  check_ordered (order_query ~limit:2 ())

let test_order_scalar_output () =
  let r1 = rel "R1" [ "a" ] [ ([ 1 ], 2); ([ 2 ], 3) ] in
  let r2 = rel "R2" [ "a" ] [ ([ 1 ], 5); ([ 2 ], 1) ] in
  let q =
    Query.with_order ~limit:1
      (Query.prepare ~name:"scalar" ~semiring:ring32 ~output:[]
         ~inputs:
           [
             ("R1", { Query.relation = r1; owner = Party.Alice });
             ("R2", { Query.relation = r2; owner = Party.Bob });
           ])
  in
  check_ordered q

let test_order_empty_result () =
  let r1 = rel "R1" [ "a"; "b" ] [ ([ 1; 10 ], 2) ] in
  let r2 = rel "R2" [ "b" ] [ ([ 99 ], 5) ] in
  let q =
    Query.with_order ~order_by:[ (Query.By_agg, Query.Desc) ] ~limit:3
      (Query.prepare ~name:"empty-order" ~semiring:ring32 ~output:[ "a" ]
         ~inputs:
           [
             ("R1", { Query.relation = r1; owner = Party.Alice });
             ("R2", { Query.relation = r2; owner = Party.Bob });
           ])
  in
  check_ordered q

let test_order_real_backend () =
  check_ordered ~ctx:(ctx_real ())
    (order_query ~order_by:[ (Query.By_agg, Query.Desc) ] ~limit:2 ())

let test_order_domains_bit_identical () =
  let q = order_query ~order_by:[ (Query.By_agg, Query.Desc) ] ~limit:3 () in
  let run domains =
    let ctx = Context.create ~gc_backend:Context.Sim ~domains ~seed:7L () in
    let revealed, stats = Secure_yannakakis.run ctx q in
    Context.shutdown_pool ctx;
    (ordered_content revealed, stats.Secure_yannakakis.tally)
  in
  let r1, t1 = run 1 and r2, t2 = run 2 and r4, t4 = run 4 in
  Alcotest.(check (list (pair string check_i64))) "domains 2 = 1" r1 r2;
  Alcotest.(check (list (pair string check_i64))) "domains 4 = 1" r1 r4;
  Alcotest.(check bool) "tallies identical" true (Comm.equal t1 t2 && Comm.equal t1 t4)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "secyan_core"
    [
      ( "shared-relation",
        [
          Alcotest.test_case "roundtrip" `Quick test_shared_roundtrip;
          Alcotest.test_case "reveal" `Quick test_shared_reveal;
        ] );
      ( "oblivious-agg",
        [
          Alcotest.test_case "basic" `Quick test_oblivious_agg_basic;
          Alcotest.test_case "real backend" `Quick test_oblivious_agg_real_backend;
          Alcotest.test_case "empty group-by" `Quick test_oblivious_agg_empty_group;
          Alcotest.test_case "single tuple" `Quick test_oblivious_agg_single;
          Alcotest.test_case "with dummies" `Quick test_oblivious_agg_with_dummies;
          Alcotest.test_case "project nonzero" `Quick test_oblivious_project_nonzero;
          Alcotest.test_case "circuit digests" `Quick test_circuit_digests;
          Alcotest.test_case "ring aggregate edge layouts" `Quick test_ring_agg_edges;
          Alcotest.test_case "ring aggregate cost from public sizes" `Quick
            test_ring_agg_cost_public;
        ]
        @ qsuite [ oblivious_agg_random; ring_agg_random; project_nonzero_random ] );
      ( "oblivious-semijoin",
        [
          Alcotest.test_case "cross-party" `Quick test_join_constrained_cross;
          Alcotest.test_case "cross-party flipped" `Quick test_join_constrained_cross_flipped;
          Alcotest.test_case "same owner" `Quick test_join_constrained_same_owner;
          Alcotest.test_case "real backend" `Quick test_join_constrained_real;
          Alcotest.test_case "constrained join cost ignores clear annotations" `Quick
            test_join_constrained_ignores_clear;
          Alcotest.test_case "semijoin" `Quick test_oblivious_semijoin;
          Alcotest.test_case "semijoin shared right" `Quick test_oblivious_semijoin_shared_right;
        ]
        @ qsuite [ join_constrained_random ] );
      ( "oblivious-join",
        [
          Alcotest.test_case "two relations" `Quick test_oblivious_join;
          Alcotest.test_case "single relation" `Quick test_oblivious_join_single_relation;
          Alcotest.test_case "k-way product tree" `Quick test_oblivious_join_k_way;
          Alcotest.test_case "nonzero test edges" `Quick test_nonzero_reveal_edges;
        ]
        @ qsuite [ nonzero_reveal_random ] );
      ( "protocol",
        [
          Alcotest.test_case "fig1" `Quick test_protocol_fig1;
          Alcotest.test_case "fig1 real backend" `Quick test_protocol_fig1_real;
          Alcotest.test_case "all relations at Bob" `Quick test_protocol_all_bob;
          Alcotest.test_case "Example 1.1" `Quick test_protocol_example_11;
          Alcotest.test_case "run_shared consistent" `Quick test_run_shared_consistent;
          Alcotest.test_case "ring width mismatch rejected" `Quick
            test_ring_width_mismatch_rejected;
          Alcotest.test_case "tropical min aggregate" `Quick test_protocol_tropical_min;
        ]
        @ qsuite [ protocol_random ] );
      ( "edge-cases",
        [
          Alcotest.test_case "empty result" `Quick test_protocol_empty_result;
          Alcotest.test_case "all dummies" `Quick test_protocol_all_dummies;
          Alcotest.test_case "singletons" `Quick test_protocol_singletons;
          Alcotest.test_case "single relation" `Quick test_protocol_single_relation;
          Alcotest.test_case "order by agg desc" `Quick test_order_by_agg_desc;
          Alcotest.test_case "order by attr + limit" `Quick test_order_by_attr_asc_limit;
          Alcotest.test_case "limit edge cases" `Quick test_order_limit_edges;
          Alcotest.test_case "limit without order by" `Quick test_order_limit_only;
          Alcotest.test_case "order on scalar output" `Quick test_order_scalar_output;
          Alcotest.test_case "order on empty result" `Quick test_order_empty_result;
          Alcotest.test_case "order real backend" `Quick test_order_real_backend;
          Alcotest.test_case "order domains bit-identical" `Quick test_order_domains_bit_identical;
        ]
        @ qsuite [ tropical_operators_random; protocol_random_trees ] );
      ( "obliviousness",
        [
          Alcotest.test_case "transcript" `Quick test_protocol_transcript_oblivious;
          Alcotest.test_case "backend cost parity" `Quick test_protocol_backend_cost_parity;
        ] );
    ]
