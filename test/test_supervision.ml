(* Deadline / cancellation / supervision layer (DESIGN.md §15): deadline
   arithmetic properties, cancel-token semantics under concurrent fire,
   abort-safe pool batches (cancel, shutdown, fail-fast, hang detection),
   and the acceptance fault matrix — every compute fault class against
   every single-run evaluation query terminates with the documented typed
   error, and the same context runs the query correctly afterwards. *)

open Secyan_crypto
module Queries = Secyan_tpch.Queries
module Datagen = Secyan_tpch.Datagen

let xs () = Datagen.generate ~sf:4e-5 ~seed:1L

let close ctx =
  Context.close_transport ctx;
  Context.shutdown_pool ctx

exception Case_timeout of string

(* zero hangs, enforced: fault cases run under a wall-clock watchdog that
   aborts the test instead of wedging the suite *)
let with_watchdog ~seconds name f =
  let previous =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise (Case_timeout name)))
  in
  let disarm () =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; Unix.it_value = 0.0 });
    Sys.set_signal Sys.sigalrm previous
  in
  ignore
    (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; Unix.it_value = seconds });
  Fun.protect ~finally:disarm f

(* ------------------------------------------------------------------ *)
(* Deadline arithmetic                                                *)

let test_ns_of_s_edges () =
  Alcotest.(check int64) "zero" 0L (Secyan_deadline.ns_of_s 0.);
  Alcotest.(check int64) "negative clamps to zero" 0L (Secyan_deadline.ns_of_s (-3.));
  Alcotest.(check int64) "one second" 1_000_000_000L (Secyan_deadline.ns_of_s 1.0);
  Alcotest.(check int64) "infinity saturates" Int64.max_int (Secyan_deadline.ns_of_s infinity);
  Alcotest.(check int64) "huge saturates" Int64.max_int (Secyan_deadline.ns_of_s 1e12)

let test_sat_add_near_max () =
  (* a deadline near the end of the int64 ns range must mean "never",
     not wrap into the past *)
  List.iter
    (fun b ->
      Alcotest.(check int64)
        (Printf.sprintf "max_int + %Ld saturates" b)
        Int64.max_int
        (Secyan_deadline.sat_add_ns Int64.max_int b))
    [ 0L; 1L; Int64.max_int ];
  Alcotest.(check int64) "now + infinite timeout = never" Int64.max_int
    (Secyan_deadline.sat_add_ns (Secyan_deadline.now_ns ()) (Secyan_deadline.ns_of_s infinity));
  Alcotest.(check int64) "min_int - 1 saturates" Int64.min_int
    (Secyan_deadline.sat_add_ns Int64.min_int (-1L))

(* Independent overflow spec: the exact sum, clamped. Same-signed
   operands whose two's-complement sum flipped sign overflowed. *)
let prop_sat_add_saturates =
  QCheck.Test.make ~count:2000 ~name:"sat_add_ns: exact when safe, clamped when not"
    QCheck.(pair int64 int64)
    (fun (a, b) ->
      let s = Int64.add a b in
      let expected =
        if a > 0L && b > 0L && s < 0L then Int64.max_int
        else if a < 0L && b < 0L && s >= 0L then Int64.min_int
        else s
      in
      Secyan_deadline.sat_add_ns a b = expected
      (* and therefore monotone in the second operand's sign *)
      && (if b >= 0L then Secyan_deadline.sat_add_ns a b >= a else Secyan_deadline.sat_add_ns a b <= a))

let test_remaining_monotone_decay () =
  let tok = Secyan_deadline.create ~timeout_s:60.0 () in
  let first = Secyan_deadline.remaining_ns tok in
  Alcotest.(check bool) "remaining starts at most the budget" true
    (first <= Secyan_deadline.ns_of_s 60.0);
  let prev = ref first in
  for _ = 1 to 1000 do
    let r = Secyan_deadline.remaining_ns tok in
    Alcotest.(check bool) "non-increasing" true (r <= !prev);
    Alcotest.(check bool) "non-negative" true (r >= 0L);
    prev := r
  done;
  let never = Secyan_deadline.never () in
  Alcotest.(check bool) "unconstrained token is cheap" false (Secyan_deadline.constrained never);
  Alcotest.(check int64) "never-token remaining_ns = max" Int64.max_int
    (Secyan_deadline.remaining_ns never);
  Alcotest.(check bool) "never-token remaining_s = infinity" true
    (Secyan_deadline.remaining_s never = infinity)

let test_expired_token_fires_typed () =
  let tok = Secyan_deadline.create ~timeout_s:0.0 () in
  Alcotest.(check bool) "token with a deadline is constrained" true
    (Secyan_deadline.constrained tok);
  Unix.sleepf 0.002;
  (match Secyan_deadline.poll tok with
  | Some (Secyan_deadline.Expired { budget_s }) ->
      Alcotest.(check (float 0.)) "configured budget recorded" 0.0 budget_s
  | Some r -> Alcotest.failf "wrong reason: %s" (Secyan_deadline.reason_to_string r)
  | None -> Alcotest.fail "an elapsed deadline must trip the token");
  Alcotest.(check int64) "no remaining budget" 0L (Secyan_deadline.remaining_ns tok);
  match Secyan_deadline.check ~where:"unit-test" tok with
  | () -> Alcotest.fail "check on a fired token must raise"
  | exception Secyan_deadline.Cancelled { where; reason = Secyan_deadline.Expired _ } ->
      Alcotest.(check string) "where names the check site" "unit-test" where
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)

(* Concurrent fire from several domains: exactly one caller wins, the
   recorded reason is the winner's, and it never changes afterwards. *)
let test_cancel_concurrent_first_wins () =
  for _trial = 1 to 50 do
    let tok = Secyan_deadline.never () in
    let n = 4 in
    let go = Atomic.make false in
    let wins = Array.make n false in
    let domains =
      List.init n (fun i ->
          Domain.spawn (fun () ->
              while not (Atomic.get go) do
                Domain.cpu_relax ()
              done;
              wins.(i) <- Secyan_deadline.cancel tok (Secyan_deadline.User (string_of_int i))))
    in
    Atomic.set go true;
    List.iter Domain.join domains;
    let winners = List.filter Fun.id (Array.to_list wins) in
    Alcotest.(check int) "exactly one winner" 1 (List.length winners);
    (match Secyan_deadline.cancelled tok with
    | Some (Secyan_deadline.User s) ->
        Alcotest.(check bool) "recorded reason is the winner's" true
          wins.(int_of_string s);
        Alcotest.(check bool) "late cancel is a no-op" false
          (Secyan_deadline.cancel tok (Secyan_deadline.User "late"));
        (match Secyan_deadline.cancelled tok with
        | Some (Secyan_deadline.User s') -> Alcotest.(check string) "reason immutable" s s'
        | _ -> Alcotest.fail "reason changed after losing cancel")
    | _ -> Alcotest.fail "no reason recorded");
    Alcotest.(check bool) "fired token reads as constrained" true
      (Secyan_deadline.constrained tok)
  done

(* ------------------------------------------------------------------ *)
(* Fault-injection spec parsing                                       *)

let test_fault_spec_parse () =
  (match Fault_inject.parse_spec "raise:5, hang:3:0.5 ,alloc:2:64" with
  | Ok
      [
        (5, Fault_inject.Raise); (3, Fault_inject.Hang 0.5); (2, Fault_inject.Alloc 64);
      ] ->
      ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  List.iter
    (fun bad ->
      match Fault_inject.parse_spec bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "spec %S must be rejected" bad)
    [ ""; " "; "raise"; "raise:"; "raise:x"; "raise:-1"; "hang:1"; "alloc:1:x"; "zap:3";
      "raise:1,,"; ",raise:1" ]

(* ------------------------------------------------------------------ *)
(* Pool batches: cancel, shutdown, fail-fast, hang                    *)

let fast_timeout = 0.25

let per_item_counts n = Array.init n (fun _ -> Atomic.make 0)

let check_no_item_ran_twice counts =
  Array.iteri
    (fun i c ->
      if Atomic.get c > 1 then Alcotest.failf "item %d ran %d times" i (Atomic.get c))
    counts

let test_pool_cancel_aborts_quiescently () =
  let pool = Domain_pool.create 4 in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  let n = 256 in
  let tok = Secyan_deadline.never () in
  let counts = per_item_counts n in
  (match
     Domain_pool.run ~cancel:tok pool ~n ~f:(fun i ->
         Atomic.incr counts.(i);
         ignore (Sys.opaque_identity (Bytes.create 64));
         if i = 10 then ignore (Secyan_deadline.cancel tok (Secyan_deadline.User "mid-batch")))
   with
  | () -> Alcotest.fail "a fired token must abort the batch"
  | exception Secyan_deadline.Cancelled { reason = Secyan_deadline.User "mid-batch"; _ } -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
  check_no_item_ran_twice counts;
  Alcotest.(check int) "the cancelling item itself ran" 1 (Atomic.get counts.(10));
  let ran = Array.fold_left (fun a c -> a + Atomic.get c) 0 counts in
  Alcotest.(check bool) "abort stopped further claims" true (ran < n);
  (* the pool survives a cancelled batch untouched *)
  let again = per_item_counts 64 in
  Domain_pool.run pool ~n:64 ~f:(fun i -> Atomic.incr again.(i));
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "item %d reran" i) 1 (Atomic.get c))
    again

let test_pool_shutdown_mid_batch_typed () =
  with_watchdog ~seconds:60.0 "pool-shutdown" @@ fun () ->
  let pool = Domain_pool.create 2 in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  let n = 512 in
  let counts = per_item_counts n in
  let trigger = Atomic.make false in
  let shooter =
    Domain.spawn (fun () ->
        while not (Atomic.get trigger) do
          Domain.cpu_relax ()
        done;
        Domain_pool.shutdown pool)
  in
  (match
     Domain_pool.run pool ~n ~f:(fun i ->
         Atomic.incr counts.(i);
         if i = 0 then Atomic.set trigger true;
         Unix.sleepf 0.001)
   with
  | () -> Alcotest.fail "shutdown mid-batch must raise, not return partial results"
  | exception Domain_pool.Pool_shutdown { unclaimed } ->
      Alcotest.(check bool) "unclaimed items reported" true (unclaimed > 0);
      let ran = Array.fold_left (fun a c -> a + Atomic.get c) 0 counts in
      Alcotest.(check bool) "claimed + unclaimed bounded by n" true (ran + unclaimed <= n)
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
  Domain.join shooter;
  check_no_item_ran_twice counts;
  (* a shut-down pool still accepts batches, sequentially on the caller *)
  let again = Atomic.make 0 in
  Domain_pool.run pool ~n:32 ~f:(fun _ -> Atomic.incr again);
  Alcotest.(check int) "sequential fallback ran everything" 32 (Atomic.get again)

(* Every batch is fail-fast with the typed [Item_raised], watched or
   not: the faulting item is named, the tail is skipped, the pool is not
   poisoned, and it runs later batches. Non-faulting items take 1 ms so
   the abort reliably lands before the index space is exhausted. *)
let test_supervised_fail_fast_vs_plain () =
  List.iter
    (fun (label, hang_timeout_s) ->
      let pool = Domain_pool.create ?hang_timeout_s 2 in
      Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
      let counts = per_item_counts 64 in
      (match
         Domain_pool.run pool ~n:64 ~f:(fun i ->
             Atomic.incr counts.(i);
             if i = 3 then failwith "boom" else Unix.sleepf 0.001)
       with
      | () -> Alcotest.failf "%s: the fault must fail the batch" label
      | exception Domain_pool.Pool_failure (Domain_pool.Item_raised { item; exn }) ->
          Alcotest.(check int) (label ^ ": faulting item identified") 3 item;
          Alcotest.(check bool) (label ^ ": original exception carried") true
            (match exn with Failure msg -> msg = "boom" | _ -> false)
      | exception e -> Alcotest.failf "%s: wrong exception: %s" label (Printexc.to_string e));
      check_no_item_ran_twice counts;
      Alcotest.(check bool) (label ^ ": fail-fast skipped the tail") true
        (Array.fold_left (fun a c -> a + Atomic.get c) 0 counts < 64);
      Alcotest.(check bool) (label ^ ": an item fault does not poison the pool") false
        (Domain_pool.poisoned pool);
      let again = Atomic.make 0 in
      Domain_pool.run pool ~n:16 ~f:(fun _ -> Atomic.incr again);
      Alcotest.(check int) (label ^ ": pool usable after fault") 16 (Atomic.get again))
    [ ("unwatched", None); ("watched", Some fast_timeout) ]

(* Watching adds a domain instead of removing a claimant, so a watched
   pool detects hangs at every size, including 1. *)
let test_supervised_hang_poisons_pool () =
  with_watchdog ~seconds:60.0 "hang-detection" @@ fun () ->
  List.iter
    (fun size ->
      let pool = Domain_pool.create ~hang_timeout_s:fast_timeout size in
      Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
      (match Domain_pool.run pool ~n:8 ~f:(fun i -> if i = 0 then Unix.sleepf 2.0) with
      | () -> Alcotest.failf "size %d: the hang must fail the batch" size
      | exception Domain_pool.Pool_failure (Domain_pool.Worker_hung { item; silent_s; _ }) ->
          Alcotest.(check int) "hung item identified" 0 item;
          Alcotest.(check bool) "silence at least the timeout" true (silent_s >= 0.2)
      | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
      Alcotest.(check bool) "pool poisoned" true (Domain_pool.poisoned pool);
      (* graceful degradation: later batches run sequentially on the caller *)
      let again = Atomic.make 0 in
      Domain_pool.run pool ~n:16 ~f:(fun _ -> Atomic.incr again);
      Alcotest.(check int) "sequential fallback after poisoning" 16 (Atomic.get again))
    [ 1; 2 ]

let test_supervised_cancel_wins_over_failure_free_abort () =
  let pool = Domain_pool.create ~hang_timeout_s:fast_timeout 2 in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  let tok = Secyan_deadline.never () in
  (match
     Domain_pool.run ~cancel:tok pool ~n:64 ~f:(fun i ->
         if i = 2 then ignore (Secyan_deadline.cancel tok (Secyan_deadline.User "halt")))
   with
  | () -> Alcotest.fail "the fired token must abort the batch"
  | exception Secyan_deadline.Cancelled { reason = Secyan_deadline.User "halt"; _ } -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
  Alcotest.(check bool) "cancellation does not poison" false (Domain_pool.poisoned pool)

(* ------------------------------------------------------------------ *)
(* Acceptance fault matrix: compute faults x {q3, q10, q18} at xs     *)

let project_content output (r : Secyan_relational.Relation.t) =
  let open Secyan_relational in
  Relation.nonzero r
  |> List.filter (fun (t, _) -> not (Tuple.is_dummy t))
  |> List.map (fun (t, a) -> (Tuple.repr (Tuple.project r.Relation.schema output t), a))
  |> List.sort compare

let check_query_correct name ctx q =
  let revealed, _ = Secyan.Secure_yannakakis.run ctx q in
  Alcotest.(check (list (pair string int64)))
    name
    (project_content q.Secyan.Query.output (Secyan.Query.plaintext q))
    (project_content q.Secyan.Query.output revealed)

type compute_fault = Worker_raise | Worker_hang | Deadline_expiry | Over_budget

let compute_fault_name = function
  | Worker_raise -> "worker-raise"
  | Worker_hang -> "worker-hang"
  | Deadline_expiry -> "deadline-expiry"
  | Over_budget -> "over-budget"

let run_fault_case ~qname ~make ~domains ~fault () =
  let name = Printf.sprintf "%s/%s/domains:%d" qname (compute_fault_name fault) domains in
  with_watchdog ~seconds:120.0 name @@ fun () ->
  let d = xs () in
  let q = make d in
  let cancel =
    match fault with
    | Deadline_expiry -> Secyan_deadline.create ~timeout_s:0.002 ()
    | Over_budget -> Secyan_deadline.create ~memory_budget_mb:1.0 ()
    | Worker_raise | Worker_hang -> Secyan_deadline.never ()
  in
  (match fault with
  | Worker_raise -> Fault_inject.arm [ (0, Fault_inject.Raise) ]
  | Worker_hang -> Fault_inject.arm [ (0, Fault_inject.Hang 2.0) ]
  | Deadline_expiry | Over_budget -> Fault_inject.disarm ());
  let ctx =
    Context.create ~bits:Queries.ring_bits
      ~domains ~cancel ~hang_timeout_s:fast_timeout ~seed:99L ()
  in
  Fun.protect
    ~finally:(fun () ->
      Fault_inject.disarm ();
      close ctx)
  @@ fun () ->
  (match Secyan.Secure_yannakakis.run ctx q with
  | _ -> Alcotest.failf "%s: the fault must surface" name
  | exception Secyan_deadline.Cancelled { reason; where } -> (
      Alcotest.(check bool) "cancellation names its site" true (where <> "");
      match (fault, reason) with
      | Deadline_expiry, Secyan_deadline.Expired _ | Over_budget, Secyan_deadline.Over_budget _ -> ()
      | _ ->
          Alcotest.failf "%s: wrong cancellation reason: %s" name
            (Secyan_deadline.reason_to_string reason))
  | exception Gc_protocol.Supervision_error { phase; item; cause } -> (
      Alcotest.(check bool) "failure names its phase" true (phase <> "");
      match (fault, cause) with
      | Worker_raise, Gc_protocol.Batch_item_raised _ ->
          Alcotest.(check int) "faulting item reported" 0 item
      | Worker_hang, Gc_protocol.Batch_worker_hung _ ->
          Alcotest.(check bool) "pool poisoned after hang" true
            (Domain_pool.poisoned (Context.pool ctx))
      | _ ->
          Alcotest.failf "%s: wrong supervision cause: %s" name
            (Gc_protocol.supervision_cause_to_string cause)));
  (* recovery: the same context must run the query correctly afterwards
     (sequentially, if the pool was poisoned) *)
  Fault_inject.disarm ();
  Context.set_cancel ctx (Secyan_deadline.never ());
  check_query_correct (name ^ ": rerun on the same context = plaintext") ctx q

let matrix_queries =
  [
    ("q3", Queries.q3);
    ("q10", Queries.q10);
    ("q18", fun d -> Queries.q18 ?threshold:None d);
  ]

let fault_matrix_cases =
  List.concat_map
    (fun (qname, make) ->
      List.map
        (fun fault ->
          Alcotest.test_case
            (Printf.sprintf "%s under %s" qname (compute_fault_name fault))
            `Slow
            (run_fault_case ~qname ~make ~domains:2 ~fault))
        [ Worker_raise; Worker_hang; Deadline_expiry; Over_budget ]
      @ [
          Alcotest.test_case
            (Printf.sprintf "%s under %s (domains:1)" qname (compute_fault_name Worker_hang))
            `Slow
            (run_fault_case ~qname ~make ~domains:1 ~fault:Worker_hang);
        ])
    matrix_queries

(* Watching must be observationally free: watched and unwatched runs of
   the same query are bit-identical in result and tally, and so is a
   watched size-1 pool (one worker claiming while the caller watches). *)
let test_supervised_run_bit_identical () =
  with_watchdog ~seconds:120.0 "supervised-bit-identity" @@ fun () ->
  let d = xs () in
  let q = Queries.q3 d in
  let run ~domains ?hang_timeout_s () =
    let ctx = Context.create ~bits:Queries.ring_bits ~domains ?hang_timeout_s ~seed:99L () in
    Fun.protect ~finally:(fun () -> close ctx) @@ fun () ->
    let revealed, stats = Secyan.Secure_yannakakis.run ctx q in
    ( project_content q.Secyan.Query.output revealed,
      stats.Secyan.Secure_yannakakis.tally )
  in
  let plain_rel, plain_tally = run ~domains:2 () in
  List.iter
    (fun (label, domains) ->
      let rel, tally = run ~domains ~hang_timeout_s:10. () in
      Alcotest.(check (list (pair string int64))) (label ^ ": same revealed result")
        plain_rel rel;
      Alcotest.(check bool) (label ^ ": tally bit-identical") true
        (Comm.equal plain_tally tally))
    [ ("watched, 2 domains", 2); ("watched, 1 domain", 1) ]

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "secyan_supervision"
    [
      ( "deadline",
        [
          Alcotest.test_case "ns_of_s edges" `Quick test_ns_of_s_edges;
          Alcotest.test_case "sat_add near max_int" `Quick test_sat_add_near_max;
          Alcotest.test_case "remaining budget decays monotonically" `Quick
            test_remaining_monotone_decay;
          Alcotest.test_case "expired token fires typed" `Quick
            test_expired_token_fires_typed;
          Alcotest.test_case "concurrent cancel: first wins" `Quick
            test_cancel_concurrent_first_wins;
        ] );
      ("deadline-properties", qsuite [ prop_sat_add_saturates ]);
      ("fault-spec", [ Alcotest.test_case "parse" `Quick test_fault_spec_parse ]);
      ( "pool",
        [
          Alcotest.test_case "cancel aborts quiescently" `Quick
            test_pool_cancel_aborts_quiescently;
          Alcotest.test_case "shutdown mid-batch is typed" `Quick
            test_pool_shutdown_mid_batch_typed;
          Alcotest.test_case "supervised fail-fast vs plain" `Quick
            test_supervised_fail_fast_vs_plain;
          Alcotest.test_case "hang poisons pool, degrades gracefully" `Quick
            test_supervised_hang_poisons_pool;
          Alcotest.test_case "cancel during supervised batch" `Quick
            test_supervised_cancel_wins_over_failure_free_abort;
        ] );
      ( "fault-matrix",
        fault_matrix_cases
        @ [
            Alcotest.test_case "supervised run bit-identical" `Slow
              test_supervised_run_bit_identical;
          ] );
    ]
