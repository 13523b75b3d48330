(* Tests for the run record: the context ledger's accounting, the CLI's
   [work:], [pool:] and [garbling:] report lines, the trace's phase spans and their
   allocation stamps, and the live progress reporter. *)

open Secyan_crypto
open Secyan_obs

let seed = 23L

(* One Real GC batch of [n] multiplications. *)
let run_gc_batch ctx ~n =
  let inp = Prg.create 5L in
  let items =
    Array.init n (fun _ ->
        [
          Gc_protocol.Priv { owner = Party.Alice; value = Prg.bits inp 16; bits = 32 };
          Gc_protocol.Priv { owner = Party.Bob; value = Prg.bits inp 16; bits = 32 };
        ])
  in
  let build b words = [ Circuits.mul_word b words.(0) words.(1) ] in
  Gc_protocol.eval_to_shares_batch ctx ~items ~build

(* ------------------------------------------------------------------ *)
(* The ledger *)

let ledger ctx c = (Context.counter_totals ctx).(Trace_sink.counter_index c)

(* Every [Context.bump] reaches the ledger's totals. *)
let test_context_bump_mirrors () =
  let ctx = Context.create ~seed () in
  Context.bump ctx Trace_sink.And_gates 5;
  Context.bump ctx Trace_sink.And_gates 7;
  Context.bump ctx Trace_sink.Ots 2;
  Alcotest.(check int) "and_gates summed" 12 (ledger ctx Trace_sink.And_gates);
  Alcotest.(check int) "ots summed" 2 (ledger ctx Trace_sink.Ots)

(* A parallel batch counts each unit of work exactly once: items write
   nothing to the context and the batch's cost is booked once on the
   owning domain, so the ledger — work and traffic counters alike — is
   identical at every pool size. *)
let test_parallel_batch_no_double_count () =
  let run domains =
    let ctx = Context.create ~gc_backend:Context.Real ~domains ~seed () in
    ignore (run_gc_batch ctx ~n:6);
    Context.shutdown_pool ctx;
    Context.counter_totals ctx
  in
  let base = run 1 in
  List.iter
    (fun domains ->
      Alcotest.(check (array int))
        (Printf.sprintf "ledger identical at pool size %d" domains)
        base (run domains))
    [ 2; 4 ];
  Alcotest.(check bool) "the batch moved traffic" true
    (base.(Trace_sink.counter_index Trace_sink.Alice_to_bob_bits) > 0
    && base.(Trace_sink.counter_index Trace_sink.Sends) > 0)

(* ------------------------------------------------------------------ *)
(* The CLI's run report *)

(* Run [secyan_cli run ARGS] (built beside this test, see test/dune) and
   return its exit code and output lines. *)
let cli args =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/secyan_cli.exe"
  in
  let out = Filename.temp_file "secyan_cli" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  let code =
    Sys.command
      (Printf.sprintf "%s run %s > %s 2>&1" (Filename.quote exe) args (Filename.quote out))
  in
  (code, In_channel.with_open_text out In_channel.input_lines)

let lines_with ~prefix lines = List.filter (String.starts_with ~prefix) lines

(* The [work:] line carries the ledger's six protocol counters, equal to
   the trace root's; a watched pool of two claimants prints three
   [pool:] lines, the watching caller (domain 0) at 0 items; without
   worker domains there is no [pool:] line. *)
let test_report_lines () =
  let trace = Filename.temp_file "secyan_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove trace) @@ fun () ->
  let code, lines =
    cli
      (Printf.sprintf
         "--query q10 --scale xs --domains 2 --hang-timeout 10 --trace=jsonl --trace-out %s"
         (Filename.quote trace))
  in
  Alcotest.(check int) "exit code" 0 code;
  let root =
    match Json.parse (In_channel.with_open_text trace In_channel.input_line |> Option.get) with
    | Ok j -> j
    | Error e -> Alcotest.failf "unparsable trace root: %s" e
  in
  let root_counter name =
    Option.get (Option.bind (Json.member "counters" root) (Json.member name))
    |> Json.to_int_opt |> Option.get
  in
  Alcotest.(check (list string)) "work line = trace root counters"
    [
      Printf.sprintf
        "work: %d AND gates, %d OTs, %d OEP switches, %d cuckoo bins, %d B2A words, %d GC \
         circuits"
        (root_counter "and_gates") (root_counter "ots") (root_counter "oep_switches")
        (root_counter "cuckoo_bins") (root_counter "b2a_words") (root_counter "gc_circuits");
    ]
    (lines_with ~prefix:"work: " lines);
  Alcotest.(check bool) "the run garbled" true (root_counter "gc_circuits" > 0);
  let pool = lines_with ~prefix:"pool: " lines in
  let items =
    List.map
      (fun l -> Scanf.sscanf l "pool: domain %d, %d batches, %d items" (fun d _ i -> (d, i)))
      pool
  in
  Alcotest.(check (list int)) "one line per participant" [ 0; 1; 2 ] (List.map fst items);
  Alcotest.(check int) "the watching caller runs no item" 0 (List.assoc 0 items);
  Alcotest.(check bool) "the workers ran items" true
    (List.fold_left (fun acc (_, i) -> acc + i) 0 items > 0);
  let code, lines = cli "--query q10 --scale xs" in
  Alcotest.(check int) "sequential exit code" 0 code;
  Alcotest.(check int) "sequential: one work line" 1
    (List.length (lines_with ~prefix:"work: " lines));
  Alcotest.(check (list string)) "sequential: no pool line" []
    (lines_with ~prefix:"pool: " lines)

(* A Real run names the AES core that garbled its gates in one
   [garbling:] line; a Sim run garbles nothing and prints none. *)
let test_garbling_line () =
  let code, lines = cli "--query q3 --scale xs --backend real" in
  Alcotest.(check int) "real exit code" 0 code;
  Alcotest.(check (list string)) "one garbling line"
    [
      Printf.sprintf "garbling: half-gates, fixed-key AES (%s)"
        (if Aes128.hardware then "aes-ni" else "t-table");
    ]
    (lines_with ~prefix:"garbling: " lines);
  let code, lines = cli "--query q3 --scale xs" in
  Alcotest.(check int) "sim exit code" 0 code;
  Alcotest.(check (list string)) "sim: no garbling line" []
    (lines_with ~prefix:"garbling: " lines)

(* A composed query runs the protocol more than once: Q8's trace keeps
   each run's phases as their own spans, both [phase:reduce] spans with
   their own duration and allocation. *)
let test_q8_trace_keeps_both_reduces () =
  let d = Secyan_tpch.Datagen.generate ~sf:4e-5 ~seed in
  let ctx = Secyan_tpch.Queries.context ~seed () in
  let _, root =
    Trace.with_tracing ~name:"q8" ctx (fun () -> Secyan_tpch.Queries.run_q8 ctx d)
  in
  let reduces =
    List.filter (fun (s : Span.t) -> s.Span.name = "phase:reduce") (Span.children root)
  in
  Alcotest.(check int) "two phase:reduce spans under the root" 2 (List.length reduces);
  List.iter
    (fun (s : Span.t) ->
      Alcotest.(check bool) "closed" true (s.Span.dur_s >= 0.);
      Alcotest.(check bool) "allocated" true (s.Span.alloc.Span.minor_words > 0.))
    reduces

(* ------------------------------------------------------------------ *)
(* Span allocation stamps and the progress reporter *)

(* The tracer stamps every span with its inclusive allocation: a span
   that allocates records minor words, and a parent's figures include
   its child's. *)
let test_spans_record_allocation () =
  let ctx = Context.create ~seed () in
  let (), root =
    Trace.with_tracing ctx (fun () ->
        Context.with_span ctx "outer" (fun () ->
            Context.with_span ctx "inner" (fun () ->
                ignore (Sys.opaque_identity (Array.init 4096 (fun i -> string_of_int i))))))
  in
  Alcotest.(check bool) "sink restored" true (ctx.Context.sink == Trace_sink.noop);
  let outer = List.hd (Span.children root) in
  let inner = List.hd (Span.children outer) in
  Alcotest.(check bool) "inner allocated" true (inner.Span.alloc.Span.minor_words > 0.);
  List.iter
    (fun ((parent : Span.t), (child : Span.t)) ->
      let p = parent.Span.alloc and c = child.Span.alloc in
      let label what = Printf.sprintf "%s %s >= %s's" parent.Span.name what child.Span.name in
      Alcotest.(check bool) (label "minor words") true (p.Span.minor_words >= c.Span.minor_words);
      Alcotest.(check bool) (label "major words") true (p.Span.major_words >= c.Span.major_words);
      Alcotest.(check bool) (label "minor collections") true
        (p.Span.minor_collections >= c.Span.minor_collections))
    [ (outer, inner); (root, outer) ]

let test_progress_heartbeats () =
  let ctx = Context.create ~seed () in
  let file = Filename.temp_file "secyan_hb" ".jsonl" in
  let oc = open_out file in
  let t = Progress.attach ~total:1000 ~render:false ~heartbeat:oc ctx in
  Context.with_span ctx "phase:reduce" (fun () ->
      Context.bump ctx Trace_sink.And_gates 250;
      Context.bump ctx Trace_sink.And_gates 250);
  Progress.detach t;
  close_out oc;
  Alcotest.(check int) "gates observed" 500 (Progress.and_gates t);
  Alcotest.(check bool) "sink restored" true (ctx.Context.sink == Trace_sink.noop);
  let ic = open_in file in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove file;
  let lines = List.rev !lines in
  Alcotest.(check bool) "has heartbeats" true (List.length lines >= 2);
  let parsed =
    List.map
      (fun l ->
        match Json.parse l with
        | Ok j -> j
        | Error e -> Alcotest.failf "unparsable heartbeat %s: %s" l e)
      lines
  in
  let last = List.nth parsed (List.length parsed - 1) in
  Alcotest.(check (option string)) "final phase" (Some "done")
    (Option.bind (Json.member "phase" last) Json.to_string_opt);
  Alcotest.(check (option int)) "final gates" (Some 500)
    (Option.bind (Json.member "and_gates" last) Json.to_int_opt);
  Alcotest.(check (option int)) "total present" (Some 1000)
    (Option.bind (Json.member "estimated_total" last) Json.to_int_opt)

(* Progress must forward events to a wrapped tracer unchanged. *)
let test_progress_composes_with_tracer () =
  let d = Secyan_tpch.Datagen.generate ~sf:4e-5 ~seed in
  let q = Secyan_tpch.Queries.q3 d in
  let run ~with_progress =
    let ctx = Secyan_tpch.Queries.context ~seed () in
    let (revealed, _), root =
      Trace.with_tracing ~name:"q3" ctx (fun () ->
          if with_progress then begin
            let t = Progress.attach ~render:false ctx in
            Fun.protect ~finally:(fun () -> Progress.detach t) (fun () ->
                Secyan.Secure_yannakakis.run ctx q)
          end
          else Secyan.Secure_yannakakis.run ctx q)
    in
    (revealed, Span.tally root)
  in
  let plain_result, plain_tally = run ~with_progress:false in
  let prog_result, prog_tally = run ~with_progress:true in
  Alcotest.(check bool) "results identical" true (plain_result = prog_result);
  Alcotest.(check bool) "root tally identical" true (Comm.equal plain_tally prog_tally)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "secyan_metrics"
    [
      ( "merge",
        [
          Alcotest.test_case "context bump mirrors" `Quick test_context_bump_mirrors;
          Alcotest.test_case "parallel batch no double count" `Quick
            test_parallel_batch_no_double_count;
        ] );
      ( "report",
        [
          Alcotest.test_case "work and pool lines" `Quick test_report_lines;
          Alcotest.test_case "garbling line" `Quick test_garbling_line;
          Alcotest.test_case "q8 trace keeps both reduces" `Quick
            test_q8_trace_keeps_both_reduces;
        ] );
      ( "profiling",
        [
          Alcotest.test_case "spans record allocation" `Quick test_spans_record_allocation;
          Alcotest.test_case "progress heartbeats" `Quick test_progress_heartbeats;
          Alcotest.test_case "progress composes with tracer" `Quick
            test_progress_composes_with_tracer;
        ] );
    ]
