(* The fuzz subsystem under test: generator determinism, the differential
   oracle on a fixed-seed corpus, the obliviousness auditor, seed-file
   corpus roundtrips, the shrinker, and deterministic edge-case instances
   that past campaigns surfaced (empty leaves, single tuples, all-dummy
   inputs, boundary annotations, duplicate tuples, the 1-bit boolean
   cross-party fold). *)

open Secyan_fuzz
open Secyan_relational
module Query = Secyan.Query
module Party = Secyan_crypto.Party

let instance_of_query query = { Gen.seed = 7L; case = 0; query }

let check_oracle name query =
  Value.reset_dummies ();
  let o = Oracle.check (instance_of_query query) in
  Alcotest.(check (list string)) (name ^ ": no divergence") [] o.Oracle.details;
  Alcotest.(check bool) (name ^ ": ok") true o.Oracle.ok

let rel ~name ~attrs rows =
  let schema = Schema.of_list attrs in
  Relation.of_list ~name ~schema
    (List.map (fun (vs, a) -> (Array.of_list (List.map (fun v -> Value.Int v) vs), a)) rows)

let input ~owner r = (r.Relation.name, { Query.relation = r; owner })

(* ------------------------------------------------------------------ *)
(* Deterministic edge cases                                           *)

let test_empty_leaf () =
  let r0 = rel ~name:"R0" ~attrs:[ "j"; "x" ] [ ([ 1; 10 ], 3L); ([ 2; 20 ], 5L) ] in
  let r1 = rel ~name:"R1" ~attrs:[ "j" ] [] in
  let q =
    Query.prepare ~name:"empty-leaf" ~semiring:(Semiring.ring ~bits:32) ~output:[ "j"; "x" ]
      ~inputs:[ input ~owner:Party.Alice r0; input ~owner:Party.Bob r1 ]
  in
  check_oracle "empty leaf" q

let test_single_tuple () =
  let r0 = rel ~name:"R0" ~attrs:[ "j"; "x" ] [ ([ 1; 10 ], 3L) ] in
  let r1 = rel ~name:"R1" ~attrs:[ "j" ] [ ([ 1 ], 7L) ] in
  let q =
    Query.prepare ~name:"single-tuple" ~semiring:(Semiring.ring ~bits:32) ~output:[ "x" ]
      ~inputs:[ input ~owner:Party.Alice r0; input ~owner:Party.Bob r1 ]
  in
  check_oracle "single tuple" q

let test_all_dummy () =
  let r0 = Relation.pad_to ~size:3 (rel ~name:"R0" ~attrs:[ "j"; "x" ] []) in
  let r1 = Relation.pad_to ~size:2 (rel ~name:"R1" ~attrs:[ "j" ] []) in
  let q =
    Query.prepare ~name:"all-dummy" ~semiring:(Semiring.ring ~bits:32) ~output:[ "j" ]
      ~inputs:[ input ~owner:Party.Alice r0; input ~owner:Party.Bob r1 ]
  in
  check_oracle "all dummy" q

let test_boundary_annotations () =
  (* 2^31 is the sign boundary of the 32-bit ring: 2^31 - 1 + 1 wraps to
     the most negative representable value *)
  let semiring = Semiring.ring ~bits:32 in
  let r0 = rel ~name:"R0" ~attrs:[ "j" ] [ ([ 1 ], 0x7FFF_FFFFL); ([ 2 ], 1L) ] in
  let r1 = rel ~name:"R1" ~attrs:[ "j" ] [ ([ 1 ], 1L); ([ 2 ], 0x8000_0000L) ] in
  let q =
    Query.prepare ~name:"boundary" ~semiring ~output:[]
      ~inputs:[ input ~owner:Party.Alice r0; input ~owner:Party.Bob r1 ]
  in
  check_oracle "boundary annotations" q;
  (* the scalar is 2^31 - 1 + 2^31 = 2^32 - 1, i.e. signed -1 *)
  let result = Query.plaintext q in
  Alcotest.(check int) "cardinality" 1 (Relation.cardinality result);
  Alcotest.(check int) "signed decode" (-1)
    (Semiring.to_signed_int semiring result.Relation.annots.(0))

let test_tropical_extremes () =
  (* MIN near the top of the tropical range and MAX at the encoding floor *)
  let bits = 16 in
  let smin = Semiring.tropical_min ~bits in
  let r0 =
    rel ~name:"R0" ~attrs:[ "j" ]
      [ ([ 1 ], Semiring.of_value smin 0x7FFAL); ([ 1 ], Semiring.of_value smin 12L) ]
  in
  let r1 = rel ~name:"R1" ~attrs:[ "j" ] [ ([ 1 ], Semiring.of_value smin 0x8000L) ] in
  let qmin =
    Query.prepare ~name:"trop-min" ~semiring:smin ~output:[ "j" ]
      ~inputs:[ input ~owner:Party.Alice r0; input ~owner:Party.Bob r1 ]
  in
  check_oracle "tropical min extremes" qmin;
  let result = Query.plaintext qmin in
  Alcotest.(check (option int64)) "min decodes" (Some (Int64.of_int (12 + 0x8000)))
    (Option.map (fun (_, a) -> Option.get (Semiring.to_value smin a))
       (List.nth_opt (Relation.nonzero result) 0));
  let smax = Semiring.tropical_max ~bits in
  let r0 =
    rel ~name:"R0" ~attrs:[ "j" ]
      [ ([ 1 ], Semiring.of_value smax 0L); ([ 1 ], Semiring.of_value smax 9L) ]
  in
  let r1 = rel ~name:"R1" ~attrs:[ "j" ] [ ([ 1 ], Semiring.of_value smax 0L) ] in
  let qmax =
    Query.prepare ~name:"trop-max" ~semiring:smax ~output:[ "j" ]
      ~inputs:[ input ~owner:Party.Alice r0; input ~owner:Party.Bob r1 ]
  in
  check_oracle "tropical max at floor" qmax

let test_duplicate_tuples () =
  (* regression: identical duplicate tuples must each contribute their own
     annotation to the full-join product (the oblivious join once mapped
     every J* copy to the last duplicate) *)
  let r0 = rel ~name:"R0" ~attrs:[ "j" ] [ ([ 1 ], 102L); ([ 1 ], 933L) ] in
  let r1 = rel ~name:"R1" ~attrs:[ "j" ] [ ([ 1 ], 617L) ] in
  let q =
    Query.prepare ~name:"dups" ~semiring:(Semiring.ring ~bits:32) ~output:[]
      ~inputs:[ input ~owner:Party.Alice r0; input ~owner:Party.Bob r1 ]
  in
  check_oracle "duplicate tuples" q;
  let result = Query.plaintext q in
  Alcotest.(check int64) "sum of products" 638595L result.Relation.annots.(0)

let test_narrow_ring_topk () =
  (* regression (campaign seed 12345, case 19): ORDER BY over a boolean
     query — in the 1-bit ring every dense-rank and row-index word of the
     order phase is wider than the ring and must enter the sort as
     ring-width limbs; the wide words used to raise Array.sub inside
     Oblivious_sort.exchange_build *)
  let r0 =
    rel ~name:"R0" ~attrs:[ "j" ]
      [ ([ 0 ], 1L); ([ 1 ], 1L); ([ 2 ], 1L); ([ 3 ], 1L); ([ 1 ], 1L) ]
  in
  let r1 = rel ~name:"R1" ~attrs:[ "j" ] [ ([ 1 ], 1L); ([ 2 ], 1L); ([ 3 ], 1L) ] in
  let q =
    Query.prepare ~name:"narrow-ring-topk" ~semiring:Semiring.boolean ~output:[ "j" ]
      ~inputs:[ input ~owner:Party.Alice r0; input ~owner:Party.Bob r1 ]
  in
  let q = Query.with_order ~order_by:[ (Query.By_attr "j", Query.Desc) ] ~limit:2 q in
  check_oracle "narrow-ring top-k" q

let test_boolean_cross_party_fold () =
  (* regression: a 1-bit annotation ring must not truncate the index
     payloads inside the shared-payload PSI of the reduce-phase fold *)
  let r0 = rel ~name:"R0" ~attrs:[ "j" ] [ ([ 2 ], 1L); ([ 0 ], 1L) ] in
  let r1 = rel ~name:"R1" ~attrs:[ "j" ] [ ([ 0 ], 1L) ] in
  let q =
    Query.prepare ~name:"bool-fold" ~semiring:Semiring.boolean ~output:[ "j" ]
      ~inputs:[ input ~owner:Party.Alice r0; input ~owner:Party.Bob r1 ]
  in
  check_oracle "boolean cross-party fold" q

(* ------------------------------------------------------------------ *)
(* Generator                                                          *)

let test_gen_deterministic () =
  List.iter
    (fun case ->
      Value.reset_dummies ();
      let a = Gen.generate ~seed:42L ~case in
      Value.reset_dummies ();
      let b = Gen.generate ~seed:42L ~case in
      let sig_of (t : Gen.instance) =
        let q = t.Gen.query in
        ( q.Query.name,
          Semiring.bits q.Query.semiring,
          Schema.to_list q.Query.output,
          List.map
            (fun (label, (i : Query.input)) ->
              ( label,
                i.Query.owner,
                Schema.to_list i.Query.relation.Relation.schema,
                Relation.cardinality i.Query.relation,
                Array.to_list i.Query.relation.Relation.annots ))
            q.Query.inputs )
      in
      if sig_of a <> sig_of b then Alcotest.failf "case %d not deterministic" case)
    [ 0; 1; 7; 23 ]

(* The CI campaign (seed 42, 200 cases) must reach every Ring width the
   products run at, the figure queries' 52 bits included, with boundary
   annotations of that width; tropical rings stay at 32 bits. *)
let test_gen_ring_widths () =
  let ring = ref [] and boundary = ref [] in
  for case = 0 to 199 do
    let q = (Gen.generate ~seed:42L ~case).Gen.query in
    let s = q.Query.semiring in
    let bits = Semiring.bits s in
    match s.Semiring.kind with
    | Semiring.Ring ->
        ring := bits :: !ring;
        let top = Int64.pred (Int64.shift_left 1L bits) in
        List.iter
          (fun (_, (i : Query.input)) ->
            if Array.mem top i.Query.relation.Relation.annots then boundary := bits :: !boundary)
          q.Query.inputs
    | Semiring.Tropical_min | Semiring.Tropical_max ->
        Alcotest.(check int) "tropical width" 32 bits
    | Semiring.Boolean -> ()
  done;
  Alcotest.(check (list int)) "ring widths drawn" [ 16; 32; 52 ] (List.sort_uniq compare !ring);
  Alcotest.(check (list int)) "all-ones boundary at every width" [ 16; 32; 52 ]
    (List.sort_uniq compare !boundary)

let test_gen_masks () =
  Value.reset_dummies ();
  let t = Gen.generate ~seed:42L ~case:3 in
  let label, (i : Query.input) = List.hd t.Gen.query.Query.inputs in
  let n = Relation.cardinality i.Query.relation in
  if n > 0 then begin
    let masked = Gen.with_masks t [ (label, Array.make n false) ] in
    let _, (mi : Query.input) = List.hd masked.Gen.query.Query.inputs in
    Alcotest.(check int) "masked empty" 0 (Relation.cardinality mi.Query.relation)
  end;
  Alcotest.check_raises "length mismatch"
    (Invalid_argument
       (Printf.sprintf "Gen.with_masks: mask for %s has %d entries, relation has %d" label
          (n + 1) n))
    (fun () -> ignore (Gen.with_masks t [ (label, Array.make (n + 1) true) ]))

(* ------------------------------------------------------------------ *)
(* Fixed-seed corpus                                                  *)

let test_corpus_campaign () =
  let stats = Runner.run ~audit:true ~seed:42L ~cases:25 () in
  Alcotest.(check int) "cases" 25 stats.Runner.cases;
  Alcotest.(check int) "audits" 25 stats.Runner.audits_run;
  List.iter
    (fun (f : Runner.failure) ->
      Alcotest.failf "seed 42 case %d failed: %s" f.Runner.entry.Corpus.case
        (String.concat " | " f.Runner.details))
    stats.Runner.failures

let test_regression_seeds () =
  (* the shrunk repros of the protocol bugs past campaigns found
     (final-collapse omission / duplicate-index collision / 1-bit index
     truncation, and the order-phase ring-width crash from seed 12345);
     they must stay green *)
  let replay seed case =
    match Runner.replay ~audit:true { Corpus.seed; case; masks = [] } with
    | [] -> ()
    | details ->
        Alcotest.failf "seed %Ld case %d: %s" seed case (String.concat " | " details)
  in
  List.iter (replay 1L) [ 11; 15; 18; 29 ];
  (* ordered boolean instances whose rank/index words exceed the ring *)
  List.iter (replay 12345L) [ 19; 119 ]

(* ------------------------------------------------------------------ *)
(* Obliviousness auditor                                              *)

let test_variant_shape () =
  Value.reset_dummies ();
  let t = Gen.generate ~seed:5L ~case:2 in
  let v = Audit.variant t.Gen.query in
  let q = t.Gen.query in
  Alcotest.(check int) "same arity" (List.length q.Query.inputs) (List.length v.Query.inputs);
  List.iter2
    (fun (l1, (i1 : Query.input)) (l2, (i2 : Query.input)) ->
      Alcotest.(check string) "label" l1 l2;
      Alcotest.(check bool) "owner" true (Party.equal i1.Query.owner i2.Query.owner);
      Alcotest.(check int) "cardinality"
        (Relation.cardinality i1.Query.relation)
        (Relation.cardinality i2.Query.relation);
      Alcotest.(check (list string)) "schema"
        (Schema.to_list i1.Query.relation.Relation.schema)
        (Schema.to_list i2.Query.relation.Relation.schema))
    q.Query.inputs v.Query.inputs

let test_audit_passes () =
  Value.reset_dummies ();
  let t = Gen.generate ~seed:13L ~case:4 in
  let r = Audit.check t in
  Alcotest.(check (list string)) "no divergence" [] r.Audit.details;
  Alcotest.(check bool) "ok" true r.Audit.ok

(* ------------------------------------------------------------------ *)
(* Seed files                                                         *)

let test_corpus_roundtrip () =
  let entries =
    [
      { Corpus.seed = 42L; case = 3; masks = [] };
      {
        Corpus.seed = -7L;
        case = 0;
        masks = [ ("R0", [| true; false; true |]); ("R1", [| false |]) ];
      };
    ]
  in
  let path = Filename.temp_file "secyan-fuzz" ".seeds" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Corpus.save path entries;
      Alcotest.(check bool) "roundtrip" true (Corpus.load path = entries))

let test_corpus_malformed () =
  let check_bad name lines =
    match Corpus.parse_lines lines with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Corpus.Malformed _ -> ()
  in
  check_bad "keep outside case" [ "keep R0 101" ];
  check_bad "unterminated case" [ "case seed=1 index=2"; "keep R0 1" ];
  check_bad "bad bits" [ "case seed=1 index=2"; "keep R0 10x"; "end" ];
  check_bad "bad header" [ "case seed=banana index=2"; "end" ];
  Alcotest.(check int) "comments skipped" 1
    (List.length (Corpus.parse_lines [ "# hi"; ""; "case seed=3 index=4"; "end" ]))

(* ------------------------------------------------------------------ *)
(* Shrinker                                                           *)

let test_shrink_minimizes () =
  Value.reset_dummies ();
  let t = Gen.generate ~seed:42L ~case:1 in
  let total (i : Gen.instance) =
    List.fold_left
      (fun acc (_, (inp : Query.input)) -> acc + Relation.cardinality inp.Query.relation)
      0 i.Gen.query.Query.inputs
  in
  Alcotest.(check bool) "instance nonempty" true (total t > 0);
  (* synthetic failure: "any row survives" — the minimum is one row *)
  let failing i = total i > 0 in
  let r = Shrink.minimize ~failing t in
  Alcotest.(check int) "minimized to one row" 1 (total r.Shrink.instance);
  Alcotest.(check bool) "spent steps" true (r.Shrink.steps > 0);
  (* the entry replays to the minimized instance *)
  Value.reset_dummies ();
  let replayed = Corpus.instance r.Shrink.entry in
  Alcotest.(check int) "entry pins the shrunk instance" 1 (total replayed)

let () =
  Alcotest.run "secyan_fuzz"
    [
      ( "edge-cases",
        [
          Alcotest.test_case "empty leaf" `Quick test_empty_leaf;
          Alcotest.test_case "single tuple" `Quick test_single_tuple;
          Alcotest.test_case "all dummy" `Quick test_all_dummy;
          Alcotest.test_case "boundary annotations" `Quick test_boundary_annotations;
          Alcotest.test_case "tropical extremes" `Quick test_tropical_extremes;
          Alcotest.test_case "duplicate tuples" `Quick test_duplicate_tuples;
          Alcotest.test_case "narrow-ring top-k" `Quick test_narrow_ring_topk;
          Alcotest.test_case "boolean cross-party fold" `Quick
            test_boolean_cross_party_fold;
        ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "masks" `Quick test_gen_masks;
          Alcotest.test_case "ring widths" `Quick test_gen_ring_widths;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "fixed-seed corpus" `Slow test_corpus_campaign;
          Alcotest.test_case "regression seeds" `Quick test_regression_seeds;
        ] );
      ( "audit",
        [
          Alcotest.test_case "variant shape" `Quick test_variant_shape;
          Alcotest.test_case "audit passes" `Quick test_audit_passes;
        ] );
      ( "seeds",
        [
          Alcotest.test_case "roundtrip" `Quick test_corpus_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_corpus_malformed;
        ] );
      ("shrink", [ Alcotest.test_case "minimizes" `Quick test_shrink_minimizes ]);
    ]
