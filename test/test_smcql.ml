(* Tests for the SMCQL-style garbled-circuit baseline (§8.2): the
   Cartesian-product circuit must compute the right aggregate, and its
   cost estimate must scale as the product of the relation sizes. *)

open Secyan_crypto
open Secyan_relational
open Secyan_smcql

let check_i64 = Alcotest.testable (fun fmt v -> Fmt.pf fmt "%Ld" v) Int64.equal
let v i = Value.Int i
let ring32 = Semiring.ring ~bits:32

let rel name schema rows =
  Relation.of_list ~name ~schema:(Schema.of_list schema)
    (List.map (fun (vs, a) -> (Array.of_list (List.map v vs), Int64.of_int a)) rows)

let small_query () =
  let r1 = rel "R1" [ "a"; "b" ] [ ([ 1; 10 ], 2); ([ 2; 20 ], 3) ] in
  let r2 = rel "R2" [ "b"; "c" ] [ ([ 10; 5 ], 7); ([ 20; 6 ], 1); ([ 30; 7 ], 4) ] in
  Secyan.Query.prepare ~name:"baseline" ~semiring:ring32 ~output:[]
    ~inputs:
      [
        ("R1", { Secyan.Query.relation = r1; owner = Party.Alice });
        ("R2", { Secyan.Query.relation = r2; owner = Party.Bob });
      ]

let test_baseline_correct_total () =
  let ctx = Context.create ~gc_backend:Context.Sim ~seed:4L () in
  let q = small_query () in
  let m = Cartesian_gc.run_small ctx q ~max_rows:1000 in
  Alcotest.(check int) "all 6 product rows" 6 m.Cartesian_gc.rows_run;
  (* total aggregate: 2*7 + 3*1 = 17 *)
  Alcotest.check check_i64 "gated product total" 17L
    (Secret_share.reconstruct ctx m.Cartesian_gc.total)

let test_baseline_real_backend () =
  let ctx = Context.create ~gc_backend:Context.Real ~seed:4L () in
  let q = small_query () in
  let m = Cartesian_gc.run_small ctx q ~max_rows:1000 in
  Alcotest.check check_i64 "real backend total" 17L
    (Secret_share.reconstruct ctx m.Cartesian_gc.total)

let test_estimate_scales_with_product () =
  let q = small_query () in
  let e = Cartesian_gc.estimate q in
  Alcotest.(check bool) "6 product rows" true (e.Cartesian_gc.product_rows = 6.);
  Alcotest.(check bool) "per-row gates positive" true (e.Cartesian_gc.and_gates_per_row > 0);
  Alcotest.(check bool) "total = rows x per-row" true
    (e.Cartesian_gc.total_and_gates
    = e.Cartesian_gc.product_rows *. float_of_int e.Cartesian_gc.and_gates_per_row);
  (* doubling one relation doubles the product *)
  let r1 =
    rel "R1" [ "a"; "b" ] [ ([ 1; 10 ], 2); ([ 2; 20 ], 3); ([ 3; 30 ], 1); ([ 4; 40 ], 1) ]
  in
  let q2 =
    Secyan.Query.prepare ~name:"baseline2" ~semiring:ring32 ~output:[]
      ~inputs:
        [
          ("R1", { Secyan.Query.relation = r1; owner = Party.Alice });
          ("R2", (List.assoc "R2" q.Secyan.Query.inputs));
        ]
  in
  let e2 = Cartesian_gc.estimate q2 in
  Alcotest.(check bool) "2x rows -> 2x gates" true
    (e2.Cartesian_gc.total_and_gates = 2. *. e.Cartesian_gc.total_and_gates)

let test_measured_comm_matches_estimate_order () =
  (* the measured communication of the real run must be within a small
     factor of the estimate's table bytes (the estimate excludes inputs) *)
  let ctx = Context.create ~gc_backend:Context.Sim ~seed:4L () in
  let q = small_query () in
  let m = Cartesian_gc.run_small ctx q ~max_rows:1000 in
  let e = Cartesian_gc.estimate q in
  let measured = float_of_int (Comm.total_bytes m.Cartesian_gc.tally) in
  Alcotest.(check bool) "same order of magnitude" true
    (measured > e.Cartesian_gc.comm_bytes *. 0.5 && measured < e.Cartesian_gc.comm_bytes *. 10.)

let test_calibrate_positive () =
  let q = small_query () in
  let lo, median, hi = Cartesian_gc.calibrate ~seed:5L q ~rows:6 in
  Alcotest.(check bool) "seconds per AND positive" true (lo > 0.);
  Alcotest.(check bool) "min <= median <= max" true (lo <= median && median <= hi)

let () =
  Alcotest.run "secyan_smcql"
    [
      ( "cartesian-gc",
        [
          Alcotest.test_case "correct total (sim)" `Quick test_baseline_correct_total;
          Alcotest.test_case "correct total (real)" `Quick test_baseline_real_backend;
          Alcotest.test_case "estimate scaling" `Quick test_estimate_scales_with_product;
          Alcotest.test_case "comm matches estimate" `Quick test_measured_comm_matches_estimate_order;
          Alcotest.test_case "calibration" `Quick test_calibrate_positive;
        ] );
    ]
