(* Tests for the relational substrate: values, schemas, tuples, semirings,
   relations, hypergraph acyclicity, free-connex detection, join trees,
   annotated operators, and the plaintext Yannakakis algorithm. *)

open Secyan_relational

let check_i64 = Alcotest.testable (fun fmt v -> Fmt.pf fmt "%Ld" v) Int64.equal

let v i = Value.Int i
let ring32 = Semiring.ring ~bits:32

(* ------------------------------------------------------------------ *)
(* Values *)

let test_value_compare () =
  Alcotest.(check bool) "ints ordered" true (Value.compare (v 1) (v 2) < 0);
  Alcotest.(check bool) "dummy is not equal to int" false (Value.equal (Value.Dummy 1) (v 1));
  Alcotest.(check bool) "distinct dummies differ" false
    (Value.equal (Value.fresh_dummy ()) (Value.fresh_dummy ()))

let test_value_dates () =
  let d = Value.date ~year:1995 ~month:3 ~day:13 in
  Alcotest.(check string) "renders" "1995-03-13" (Fmt.str "%a" Value.pp d);
  Alcotest.(check int) "year" 1995 (Value.year_of d);
  let d0 = Value.date ~year:1970 ~month:1 ~day:1 in
  (match d0 with
  | Value.Date days -> Alcotest.(check int) "epoch" 0 days
  | _ -> Alcotest.fail "not a date");
  (* ordering matches chronology *)
  Alcotest.(check bool) "ordered" true
    (Value.compare (Value.date ~year:1993 ~month:8 ~day:1) (Value.date ~year:1993 ~month:11 ~day:1)
    < 0)

(* ------------------------------------------------------------------ *)
(* Schema and tuples *)

let test_schema_ops () =
  let s1 = Schema.of_list [ "a"; "b"; "c" ] and s2 = Schema.of_list [ "b"; "c"; "d" ] in
  Alcotest.(check (list string)) "inter" [ "b"; "c" ] (Schema.to_list (Schema.inter s1 s2));
  Alcotest.(check (list string)) "diff" [ "a" ] (Schema.to_list (Schema.diff s1 s2));
  Alcotest.(check (list string)) "union" [ "a"; "b"; "c"; "d" ]
    (Schema.to_list (Schema.union s1 s2));
  Alcotest.(check bool) "subset" true (Schema.subset (Schema.of_list [ "b" ]) s1);
  Alcotest.check_raises "duplicate attr"
    (Invalid_argument "Schema.of_list: duplicate attribute a") (fun () ->
      ignore (Schema.of_list [ "a"; "a" ]))

let test_tuple_project_encode () =
  let schema = Schema.of_list [ "x"; "y"; "z" ] in
  let t = [| v 1; v 2; v 3 |] in
  let p = Tuple.project schema (Schema.of_list [ "z"; "x" ]) t in
  (* canonical order sorts attribute names *)
  Alcotest.(check bool) "projection" true (Tuple.equal p [| v 1; v 3 |]);
  (* same logical key from different source schemas encodes identically *)
  let schema2 = Schema.of_list [ "z"; "x" ] in
  let t2 = [| v 3; v 1 |] in
  Alcotest.check check_i64 "encode agree"
    (Tuple.encode_on schema (Schema.of_list [ "x"; "z" ]) t)
    (Tuple.encode_on schema2 (Schema.of_list [ "x"; "z" ]) t2);
  (* encodings stay inside the PSI element space *)
  Alcotest.(check bool) "real tuple in low region" true
    (Int64.unsigned_compare (Tuple.encode t) (Int64.shift_left 1L 59) < 0);
  let dummy_enc = Tuple.encode (Tuple.dummy schema) in
  Alcotest.(check bool) "dummy in reserved region" true
    (Int64.unsigned_compare dummy_enc (Int64.shift_left 1L 59) >= 0
    && Int64.unsigned_compare dummy_enc (Int64.shift_left 1L 60) < 0)

(* ------------------------------------------------------------------ *)
(* Semirings *)

let test_semiring_ring () =
  Alcotest.check check_i64 "sum" 6L (Semiring.sum ring32 [ 1L; 2L; 3L ]);
  Alcotest.check check_i64 "product" 24L (Semiring.product ring32 [ 2L; 3L; 4L ]);
  Alcotest.check check_i64 "identity add" 5L (Semiring.add ring32 Semiring.zero 5L);
  Alcotest.check check_i64 "identity mul" 5L (Semiring.mul ring32 (Semiring.one ring32) 5L)

let test_semiring_boolean () =
  let b = Semiring.boolean in
  Alcotest.check check_i64 "or" 1L (Semiring.add b 0L 1L);
  Alcotest.check check_i64 "and" 0L (Semiring.mul b 0L 1L);
  Alcotest.check check_i64 "and11" 1L (Semiring.mul b 1L 1L)

let test_semiring_signed () =
  let r = Semiring.ring ~bits:32 in
  let neg5 = Semiring.add r 0L (Secyan_crypto.Zn.of_int r.Semiring.zn (-5)) in
  Alcotest.(check int) "negative roundtrip" (-5) (Semiring.to_signed_int r neg5)

let check_i64_opt = Alcotest.option check_i64

let test_semiring_tropical_min () =
  let t = Semiring.tropical_min ~bits:16 in
  let e v = Semiring.of_value t v in
  (* plus = min of the decoded values *)
  Alcotest.check check_i64_opt "min(3,7) = 3" (Some 3L)
    (Semiring.to_value t (Semiring.add t (e 3L) (e 7L)));
  (* times = sum of the decoded values *)
  Alcotest.check check_i64_opt "3 (x) 7 = 10" (Some 10L)
    (Semiring.to_value t (Semiring.mul t (e 3L) (e 7L)));
  (* 0 encodes infinity: identity for plus, absorbing for times *)
  Alcotest.check check_i64_opt "inf is plus-identity" (Some 5L)
    (Semiring.to_value t (Semiring.add t Semiring.zero (e 5L)));
  Alcotest.check check_i64_opt "inf absorbs times" None
    (Semiring.to_value t (Semiring.mul t Semiring.zero (e 5L)));
  (* the times-identity is value 0 *)
  Alcotest.check check_i64_opt "one is value 0" (Some 0L)
    (Semiring.to_value t (Semiring.one t));
  Alcotest.check check_i64_opt "one (x) v = v" (Some 9L)
    (Semiring.to_value t (Semiring.mul t (Semiring.one t) (e 9L)))

let test_semiring_tropical_max () =
  let t = Semiring.tropical_max ~bits:16 in
  let e v = Semiring.of_value t v in
  Alcotest.check check_i64_opt "max(3,7) = 7" (Some 7L)
    (Semiring.to_value t (Semiring.add t (e 3L) (e 7L)));
  Alcotest.check check_i64_opt "3 (x) 7 = 10" (Some 10L)
    (Semiring.to_value t (Semiring.mul t (e 3L) (e 7L)));
  Alcotest.check check_i64_opt "-inf absorbs times" None
    (Semiring.to_value t (Semiring.mul t Semiring.zero (e 5L)))

let tropical_circuit_agree =
  QCheck.Test.make ~count:100 ~name:"tropical circuits = cleartext semantics"
    QCheck.(triple bool (int_bound 10000) (int_bound 10000))
    (fun (is_min, x, y) ->
      let t =
        if is_min then Semiring.tropical_min ~bits:32 else Semiring.tropical_max ~bits:32
      in
      let module Bb = Secyan_crypto.Boolean_circuit.Builder in
      let eval2 f ex ey =
        let b = Bb.create () in
        let wx = Secyan_crypto.Circuits.input_word b 32 in
        let wy = Secyan_crypto.Circuits.input_word b 32 in
        let out = Secyan_crypto.Circuits.materialize_word b 0 (f t b wx wy) in
        let c = Bb.finalize b ~outputs:out in
        let bits v = Secyan_crypto.Circuits.bool_array_of_int64 ~bits:32 v in
        Secyan_crypto.Circuits.int64_of_bool_array
          (Secyan_crypto.Boolean_circuit.eval c (Array.append (bits ex) (bits ey)))
      in
      let ex = Semiring.of_value t (Int64.of_int x) in
      let ey = Semiring.of_value t (Int64.of_int y) in
      Int64.equal (eval2 Semiring.circuit_add ex ey) (Semiring.add t ex ey)
      && Int64.equal (eval2 Semiring.circuit_mul ex ey) (Semiring.mul t ex ey)
      && Int64.equal (eval2 Semiring.circuit_mul 0L ey) (Semiring.mul t 0L ey))

(* ------------------------------------------------------------------ *)
(* Hypergraphs: acyclicity and free-connexity *)

let paper_fig1 () =
  (* R1(A,B), R2(A,C), R3(B,D), R4(D,F,G), R5(D,E) — acyclic (Fig. 1) *)
  Hypergraph.create
    [
      Hypergraph.edge ~label:"R1" [ "A"; "B" ];
      Hypergraph.edge ~label:"R2" [ "A"; "C" ];
      Hypergraph.edge ~label:"R3" [ "B"; "D" ];
      Hypergraph.edge ~label:"R4" [ "D"; "F"; "G" ];
      Hypergraph.edge ~label:"R5" [ "D"; "E" ];
    ]

let triangle () =
  Hypergraph.create
    [
      Hypergraph.edge ~label:"R1" [ "A"; "B" ];
      Hypergraph.edge ~label:"R2" [ "B"; "C" ];
      Hypergraph.edge ~label:"R3" [ "A"; "C" ];
    ]

let example_11 () =
  (* Example 1.1: R1(person, coins, state), R2(person, disease, cost),
     R3(disease, class) *)
  Hypergraph.create
    [
      Hypergraph.edge ~label:"R1" [ "person"; "coins"; "state" ];
      Hypergraph.edge ~label:"R2" [ "person"; "disease"; "cost" ];
      Hypergraph.edge ~label:"R3" [ "disease"; "class" ];
    ]

let test_acyclicity () =
  Alcotest.(check bool) "Fig.1 acyclic" true (Hypergraph.is_acyclic (paper_fig1 ()));
  Alcotest.(check bool) "triangle cyclic" false (Hypergraph.is_acyclic (triangle ()));
  Alcotest.(check bool) "Example 1.1 acyclic" true (Hypergraph.is_acyclic (example_11 ()))

let test_free_connex () =
  (* Fig. 1 with O = {B, D, E, F} is free-connex (tree (b) testifies). *)
  Alcotest.(check bool) "Fig1 free-connex" true
    (Hypergraph.is_free_connex (paper_fig1 ()) ~output:(Schema.of_list [ "B"; "D"; "E"; "F" ]));
  (* Example 1.1 grouped by class is free-connex... *)
  Alcotest.(check bool) "Ex1.1 class" true
    (Hypergraph.is_free_connex (example_11 ()) ~output:(Schema.of_list [ "class" ]));
  (* ... but grouped by {class, coins} it is not (paper §3.1). *)
  Alcotest.(check bool) "Ex1.1 class+coins" false
    (Hypergraph.is_free_connex (example_11 ()) ~output:(Schema.of_list [ "class"; "coins" ]));
  (* O empty is always fine for acyclic queries *)
  Alcotest.(check bool) "empty output" true
    (Hypergraph.is_free_connex (paper_fig1 ()) ~output:(Schema.of_list []))

let test_join_tree_build () =
  (* build must find a valid rooted tree for the free-connex cases *)
  let check_built hg output =
    match Join_tree.build hg ~output with
    | None -> Alcotest.fail "expected a join tree"
    | Some t ->
        Alcotest.(check bool) "witnesses free-connex" true
          (Join_tree.satisfies_free_connex t ~output)
  in
  check_built (paper_fig1 ()) (Schema.of_list [ "B"; "D"; "E"; "F" ]);
  check_built (example_11 ()) (Schema.of_list [ "class" ]);
  check_built (paper_fig1 ()) (Schema.of_list []);
  Alcotest.(check bool) "triangle has no tree" true
    (Join_tree.build (triangle ()) ~output:(Schema.of_list []) = None);
  Alcotest.(check bool) "non-free-connex rejected" true
    (Join_tree.build (example_11 ()) ~output:(Schema.of_list [ "class"; "coins" ]) = None)

let test_join_tree_of_parents () =
  let hg = example_11 () in
  let t =
    Join_tree.of_parents hg ~root:"R3" ~parents:[ ("R1", "R2"); ("R2", "R3") ]
  in
  Alcotest.(check string) "root" "R3" (Join_tree.root t);
  Alcotest.(check (list (pair string string))) "bottom-up edges"
    [ ("R1", "R2"); ("R2", "R3") ]
    (Join_tree.bottom_up_edges t);
  (* a star tree through R3 is not a join tree: person connectivity fails *)
  Alcotest.check_raises "invalid tree rejected"
    (Invalid_argument "Join_tree.of_parents: not a join tree (running intersection fails)")
    (fun () ->
      ignore (Join_tree.of_parents hg ~root:"R3" ~parents:[ ("R1", "R3"); ("R2", "R3") ]))

(* ------------------------------------------------------------------ *)
(* Operators *)

let rel name schema rows =
  Relation.of_list ~name ~schema:(Schema.of_list schema)
    (List.map (fun (vs, a) -> (Array.of_list (List.map v vs), Int64.of_int a)) rows)

let annots_by_tuple (r : Relation.t) =
  Relation.nonzero r |> List.map (fun (t, a) -> (Tuple.repr t, a))
  |> List.sort compare

let test_aggregate () =
  let r = rel "R" [ "g"; "x" ] [ ([ 1; 10 ], 5); ([ 1; 20 ], 7); ([ 2; 30 ], 9) ] in
  let agg = Operators.aggregate ring32 ~attrs:(Schema.of_list [ "g" ]) r in
  Alcotest.(check (list (pair string check_i64))) "grouped sums"
    [ ("i1", 12L); ("i2", 9L) ]
    (annots_by_tuple agg)

let test_aggregate_empty_attrs () =
  let r = rel "R" [ "x" ] [ ([ 1 ], 5); ([ 2 ], 7) ] in
  let agg = Operators.aggregate ring32 ~attrs:(Schema.of_list []) r in
  Alcotest.(check int) "single row" 1 (Relation.cardinality agg);
  Alcotest.check check_i64 "total" 12L agg.Relation.annots.(0)

let test_aggregate_ignores_dummies () =
  let r = rel "R" [ "g" ] [ ([ 1 ], 5) ] in
  let r = Relation.pad_to ~size:4 r in
  let agg = Operators.aggregate ring32 ~attrs:(Schema.of_list [ "g" ]) r in
  Alcotest.(check (list (pair string check_i64))) "dummies ignored" [ ("i1", 5L) ]
    (annots_by_tuple agg)

let test_join () =
  let r1 = rel "R1" [ "a"; "b" ] [ ([ 1; 10 ], 2); ([ 2; 20 ], 3) ] in
  let r2 = rel "R2" [ "b"; "c" ] [ ([ 10; 100 ], 5); ([ 10; 200 ], 7); ([ 30; 300 ], 11) ] in
  let j = Operators.join ring32 r1 r2 in
  Alcotest.(check int) "join size" 2 (Relation.cardinality j);
  Alcotest.(check (list (pair string check_i64))) "annotations multiply"
    [ ("i1|i10|i100", 10L); ("i1|i10|i200", 14L) ]
    (annots_by_tuple j)

let test_semijoin () =
  let r1 = rel "R1" [ "a"; "b" ] [ ([ 1; 10 ], 2); ([ 2; 20 ], 3); ([ 3; 30 ], 4) ] in
  let r2 = rel "R2" [ "b"; "c" ] [ ([ 10; 1 ], 1); ([ 30; 2 ], 0) ] in
  let sj = Operators.semijoin r1 r2 in
  (* b=30 matches only a zero-annotated tuple, so it is dangling *)
  Alcotest.(check (list (pair string check_i64))) "dangling removed"
    [ ("i1|i10", 2L) ]
    (annots_by_tuple sj)

let test_project_nonzero () =
  let r = rel "R" [ "a"; "b" ] [ ([ 1; 10 ], 2); ([ 1; 20 ], 0); ([ 2; 30 ], 3) ] in
  let p = Operators.project_nonzero ring32 ~attrs:(Schema.of_list [ "a" ]) r in
  Alcotest.(check (list (pair string check_i64))) "nonzero distinct, annot 1"
    [ ("i1", 1L); ("i2", 1L) ]
    (annots_by_tuple p)

(* ------------------------------------------------------------------ *)
(* Yannakakis = naive on random instances *)

let random_instance seed =
  let prg = Secyan_crypto.Prg.create (Int64.of_int seed) in
  let rand_rows schema_len n =
    List.init n (fun _ ->
        ( Array.init schema_len (fun _ -> v (Secyan_crypto.Prg.below prg 5)),
          Int64.of_int (1 + Secyan_crypto.Prg.below prg 9) ))
  in
  let dedup rows =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun (t, _) ->
        let k = Tuple.repr t in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      rows
  in
  let mk name schema n =
    Relation.of_list ~name ~schema:(Schema.of_list schema) (dedup (rand_rows (List.length schema) n))
  in
  [
    ("R1", mk "R1" [ "A"; "B" ] 8);
    ("R2", mk "R2" [ "A"; "C" ] 8);
    ("R3", mk "R3" [ "B"; "D" ] 8);
    ("R4", mk "R4" [ "D"; "F"; "G" ] 10);
    ("R5", mk "R5" [ "D"; "E" ] 8);
  ]

let result_map (r : Relation.t) =
  Relation.nonzero r |> List.map (fun (t, a) -> (Tuple.repr t, a)) |> List.sort compare

let yannakakis_matches_naive =
  QCheck.Test.make ~count:40 ~name:"yannakakis = naive (Fig.1 query)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let relations = random_instance seed in
      let hg = paper_fig1 () in
      let output = Schema.of_list [ "B"; "D"; "E"; "F" ] in
      match Join_tree.build hg ~output with
      | None -> false
      | Some tree ->
          let fast = Yannakakis.run ring32 tree ~output ~relations in
          let slow = Yannakakis.naive ring32 ~output ~relations in
          result_map fast = result_map slow)

let yannakakis_scalar_output =
  QCheck.Test.make ~count:40 ~name:"yannakakis = naive (no group-by)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let relations = random_instance seed in
      let hg = paper_fig1 () in
      let output = Schema.of_list [] in
      match Join_tree.build hg ~output with
      | None -> false
      | Some tree ->
          let fast = Yannakakis.run ring32 tree ~output ~relations in
          let slow = Yannakakis.naive ring32 ~output ~relations in
          result_map fast = result_map slow)

let yannakakis_boolean_semiring =
  QCheck.Test.make ~count:25 ~name:"yannakakis = naive (boolean semiring)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let relations =
        List.map
          (fun (l, r) -> (l, Relation.map_annots (fun _ -> 1L) r))
          (random_instance seed)
      in
      let hg = paper_fig1 () in
      let output = Schema.of_list [ "B"; "D" ] in
      match Join_tree.build hg ~output with
      | None -> false
      | Some tree ->
          let fast = Yannakakis.run Semiring.boolean tree ~output ~relations in
          let slow = Yannakakis.naive Semiring.boolean ~output ~relations in
          result_map fast = result_map slow)

let test_yannakakis_example_11 () =
  (* Example 1.1/3.1: expected payout by class. *)
  let r1 =
    rel "R1" [ "person"; "coins" ] [ ([ 1; 20 ], 80); ([ 2; 50 ], 50); ([ 3; 0 ], 100) ]
    (* annotation = 100 * (1 - coinsurance) *)
  in
  let r2 =
    rel "R2" [ "person"; "disease"; "cost" ]
      [ ([ 1; 7; 1000 ], 1000); ([ 2; 7; 2000 ], 2000); ([ 2; 8; 500 ], 500) ]
  in
  let r3 = rel "R3" [ "disease"; "class" ] [ ([ 7; 1 ], 1); ([ 8; 2 ], 1); ([ 9; 3 ], 1) ] in
  let hg =
    Hypergraph.create
      [
        Hypergraph.edge ~label:"R1" [ "person"; "coins" ];
        Hypergraph.edge ~label:"R2" [ "person"; "disease"; "cost" ];
        Hypergraph.edge ~label:"R3" [ "disease"; "class" ];
      ]
  in
  let output = Schema.of_list [ "class" ] in
  let tree = Option.get (Join_tree.build hg ~output) in
  let result =
    Yannakakis.run ring32 tree ~output ~relations:[ ("R1", r1); ("R2", r2); ("R3", r3) ]
  in
  (* class 1: person1 (80*1000) + person2 (50*2000) = 180000;
     class 2: person2 (50*500) = 25000; class 3: no rows *)
  Alcotest.(check (list (pair string check_i64))) "payout by class"
    [ ("i1", 180000L); ("i2", 25000L) ]
    (result_map result)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "secyan_relational"
    [
      ( "value",
        [
          Alcotest.test_case "compare" `Quick test_value_compare;
          Alcotest.test_case "dates" `Quick test_value_dates;
        ] );
      ( "schema-tuple",
        [
          Alcotest.test_case "schema ops" `Quick test_schema_ops;
          Alcotest.test_case "project/encode" `Quick test_tuple_project_encode;
        ] );
      ( "semiring",
        [
          Alcotest.test_case "ring" `Quick test_semiring_ring;
          Alcotest.test_case "boolean" `Quick test_semiring_boolean;
          Alcotest.test_case "signed" `Quick test_semiring_signed;
          Alcotest.test_case "tropical min" `Quick test_semiring_tropical_min;
          Alcotest.test_case "tropical max" `Quick test_semiring_tropical_max;
        ]
        @ qsuite [ tropical_circuit_agree ] );
      ( "hypergraph",
        [
          Alcotest.test_case "acyclicity" `Quick test_acyclicity;
          Alcotest.test_case "free-connex" `Quick test_free_connex;
        ] );
      ( "join-tree",
        [
          Alcotest.test_case "build" `Quick test_join_tree_build;
          Alcotest.test_case "of_parents" `Quick test_join_tree_of_parents;
        ] );
      ( "operators",
        [
          Alcotest.test_case "aggregate" `Quick test_aggregate;
          Alcotest.test_case "aggregate empty attrs" `Quick test_aggregate_empty_attrs;
          Alcotest.test_case "aggregate ignores dummies" `Quick test_aggregate_ignores_dummies;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "semijoin" `Quick test_semijoin;
          Alcotest.test_case "project nonzero" `Quick test_project_nonzero;
        ] );
      ( "yannakakis",
        Alcotest.test_case "Example 1.1" `Quick test_yannakakis_example_11
        :: qsuite
             [ yannakakis_matches_naive; yannakakis_scalar_output; yannakakis_boolean_semiring ]
      );
    ]
