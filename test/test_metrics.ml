(* Tests for the [--metrics] export (lib/obs/metrics.ml), which is built
   at export time from a run context's ledger, its pool's timelines and
   the phase spans of the run's trace, plus the spans' allocation stamps
   and the live progress reporter. *)

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

let count_sub ~sub out =
  let n = String.length out and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc else go (i + 1) (if String.sub out i m = sub then acc + 1 else acc)
  in
  go 0 0

(* ------------------------------------------------------------------ *)
(* Ledger counters in the export *)

(* The [secyan_<counter>_total] samples of a JSONL export, by name. *)
let exported_ledger ctx =
  Metrics.export_string ~ledger:ctx Metrics.Jsonl
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match Json.parse line with
         | Ok (Json.Obj fields) -> (
             match (List.assoc_opt "name" fields, List.assoc_opt "value" fields) with
             | Some (Json.Str name), Some (Json.Int v) -> Some (name, v)
             | _ -> None)
         | _ -> None)

(* Every [Context.bump] reaches the export: the [secyan_<counter>_total]
   samples are rendered from the context's ledger, so they carry the
   bumped sums. *)
let test_context_bump_mirrors () =
  let ctx = Context.create ~seed () in
  Context.bump ctx Trace_sink.And_gates 5;
  Context.bump ctx Trace_sink.And_gates 7;
  Context.bump ctx Trace_sink.Ots 2;
  let exported = exported_ledger ctx in
  Alcotest.(check (option int)) "and_gates exported" (Some 12)
    (List.assoc_opt "secyan_and_gates_total" exported);
  Alcotest.(check (option int)) "ots exported" (Some 2)
    (List.assoc_opt "secyan_ots_total" exported)

(* A parallel batch counts each unit of work exactly once: items write
   nothing to the context and the batch's cost is booked once on the
   owning domain, so the ledger is identical at every pool size, and the
   export renders exactly that ledger — work and traffic counters
   alike. *)
let test_parallel_batch_no_double_count () =
  let run domains =
    let ctx = Context.create ~gc_backend:Context.Real ~domains ~seed () in
    ignore (run_gc_batch ctx ~n:6);
    Context.shutdown_pool ctx;
    (Context.counter_totals ctx, exported_ledger ctx)
  in
  let base, _ = run 1 in
  List.iter
    (fun domains ->
      let totals, exported = run domains in
      Alcotest.(check (array int))
        (Printf.sprintf "ledger identical at pool size %d" domains)
        base totals;
      List.iter
        (fun c ->
          let name = "secyan_" ^ Trace_sink.counter_name c ^ "_total" in
          Alcotest.(check (option int))
            (Printf.sprintf "%s exported from the ledger at pool size %d" name domains)
            (Some totals.(Trace_sink.counter_index c))
            (List.assoc_opt name exported))
        Trace_sink.all_counters)
    [ 1; 2; 4 ];
  Alcotest.(check bool) "the batch moved traffic" true
    (base.(Trace_sink.counter_index Trace_sink.Alice_to_bob_bits) > 0
    && base.(Trace_sink.counter_index Trace_sink.Sends) > 0)

(* ------------------------------------------------------------------ *)
(* Exporters *)

(* A finished trace whose root holds one phase span per [(name, dur_s)],
   each stamped with 100 minor words and one minor collection. *)
let trace_of phases =
  let root = Span.create ~name:"run" ~start_s:0. in
  List.iter
    (fun (name, dur_s) ->
      let span = Span.create ~name ~start_s:0. in
      span.Span.dur_s <- dur_s;
      span.Span.alloc <- { Span.no_alloc with Span.minor_words = 100.; minor_collections = 1 };
      Span.add_child root span)
    phases;
  root

let test_snapshot_sorted () =
  let ctx = Context.create ~gc_backend:Context.Real ~domains:2 ~seed () in
  ignore (run_gc_batch ctx ~n:4);
  Context.shutdown_pool ctx;
  let names =
    List.map
      (fun s -> s.Metrics.name)
      (Metrics.snapshot
         ~trace:(trace_of [ ("phase:share", 0.5); ("reveal", 1.) ])
         ~ledger:ctx ())
  in
  Alcotest.(check (list string)) "sorted by name" (List.sort compare names) names

let test_prometheus_format () =
  let ctx = Context.create ~seed () in
  Context.bump ctx Trace_sink.And_gates 12;
  let out =
    Metrics.export_string
      ~trace:(trace_of [ ("phase:reduce", 0.25); ("reveal", 2.) ])
      ~ledger:ctx Metrics.Prometheus
  in
  let count sub = count_sub ~sub out in
  Alcotest.(check int) "one TYPE per counter" 1
    (count "# TYPE secyan_and_gates_total counter\n");
  Alcotest.(check int) "counter line" 1 (count "\nsecyan_and_gates_total 12\n");
  (* one TYPE header per base name, even for labelled gauge families *)
  Alcotest.(check int) "one TYPE for the gauge family" 1
    (count "# TYPE secyan_gc_phase_seconds gauge\n");
  Alcotest.(check int) "labelled gauge" 1
    (count "secyan_gc_phase_seconds{phase=\"phase:reduce\"} 0.25\n");
  Alcotest.(check int) "integral gauge prints bare" 1
    (count "secyan_gc_phase_seconds{phase=\"reveal\"} 2\n")

let test_jsonl_export_parses () =
  let ctx = Context.create ~seed () in
  let out =
    Metrics.export_string ~trace:(trace_of [ ("phase:share", 0.5) ]) ~ledger:ctx Metrics.Jsonl
  in
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "every ledger counter and gc-phase gauge"
    (Trace_sink.n_counters + 7) (List.length lines);
  List.iter
    (fun l ->
      match Json.parse l with
      | Ok (Json.Obj fields) ->
          Alcotest.(check bool) "has name" true (List.mem_assoc "name" fields);
          Alcotest.(check bool) "has kind" true (List.mem_assoc "kind" fields);
          Alcotest.(check bool) "has value" true (List.mem_assoc "value" fields)
      | Ok _ -> Alcotest.fail "line is not an object"
      | Error e -> Alcotest.failf "unparsable JSONL line %s: %s" l e)
    lines

(* A watched pool of two claiming workers: the export carries three
   participants' timelines, the watching caller (domain 0) at 0 items,
   and the items of the one batch add up to its size. *)
let test_export_renders_pool_timelines () =
  let n = 6 in
  let ctx =
    Context.create ~gc_backend:Context.Real ~domains:2 ~hang_timeout_s:10. ~seed ()
  in
  ignore (run_gc_batch ctx ~n);
  Context.shutdown_pool ctx;
  let gauges family =
    List.filter_map
      (fun s ->
        match s.Metrics.value with
        | Metrics.Gauge v
          when String.length s.Metrics.name > String.length family
               && String.sub s.Metrics.name 0 (String.length family + 1) = family ^ "{" ->
            Some (s.Metrics.name, v)
        | _ -> None)
      (Metrics.snapshot ~ledger:ctx ())
  in
  let items = gauges "secyan_domain_items" in
  Alcotest.(check (list string)) "three participants"
    [ "secyan_domain_items{domain=\"0\"}"; "secyan_domain_items{domain=\"1\"}";
      "secyan_domain_items{domain=\"2\"}" ]
    (List.map fst items);
  Alcotest.(check (float 0.)) "the watching caller runs no item" 0.
    (List.assoc "secyan_domain_items{domain=\"0\"}" items);
  Alcotest.(check (float 0.)) "items sum to the batch size" (float_of_int n)
    (List.fold_left (fun acc (_, v) -> acc +. v) 0. items);
  let out = Metrics.export_string ~ledger:ctx Metrics.Prometheus in
  List.iter
    (fun family ->
      Alcotest.(check int) (family ^ ": one HELP") 1
        (count_sub ~sub:(Printf.sprintf "# HELP %s " family) out);
      Alcotest.(check int) (family ^ ": one TYPE") 1
        (count_sub ~sub:(Printf.sprintf "# TYPE %s gauge\n" family) out);
      Alcotest.(check int) (family ^ ": three samples") 3
        (count_sub ~sub:(Printf.sprintf "\n%s{domain=" family) out))
    [
      "secyan_domain_busy_seconds"; "secyan_domain_queue_wait_seconds";
      "secyan_domain_lock_wait_seconds"; "secyan_domain_wall_seconds";
      "secyan_domain_batches"; "secyan_domain_items"; "secyan_domain_wakeups";
    ];
  let unpooled = Context.create ~seed () in
  Alcotest.(check int) "no pool, no secyan_domain_* sample" 0
    (count_sub ~sub:"secyan_domain_"
       (Metrics.export_string ~ledger:unpooled Metrics.Jsonl))

(* A phase that recurs — a composed query runs the protocol more than
   once — is one gauge per field, summed over every span of that name,
   wherever in the tree it sits. *)
let test_recurring_phase_summed () =
  let ctx = Context.create ~seed () in
  let allocate () = ignore (Sys.opaque_identity (Array.init 4096 (fun i -> string_of_int i))) in
  let (), root =
    Trace.with_tracing ctx (fun () ->
        Context.with_span ctx "run:1" (fun () -> Context.with_span ctx "phase:reduce" allocate);
        Context.with_span ctx "run:2" (fun () -> Context.with_span ctx "phase:reduce" allocate))
  in
  let reduces = ref [] in
  Span.iter
    (fun ~depth:_ ~path:_ (s : Span.t) ->
      if s.Span.name = "phase:reduce" then reduces := s :: !reduces)
    root;
  Alcotest.(check int) "two phase:reduce spans" 2 (List.length !reduces);
  let gauges family =
    List.filter_map
      (fun s ->
        match s.Metrics.value with
        | Metrics.Gauge v when String.starts_with ~prefix:(family ^ "{") s.Metrics.name ->
            Some (s.Metrics.name, v)
        | _ -> None)
      (Metrics.snapshot ~trace:root ~ledger:ctx ())
  in
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0. (List.rev !reduces) in
  Alcotest.(check (list (pair string (float 0.)))) "one seconds gauge, the sum"
    [ ("secyan_gc_phase_seconds{phase=\"phase:reduce\"}", sum (fun s -> s.Span.dur_s)) ]
    (gauges "secyan_gc_phase_seconds");
  Alcotest.(check (list (pair string (float 0.)))) "one minor-words gauge, the sum"
    [
      ( "secyan_gc_phase_minor_words{phase=\"phase:reduce\"}",
        sum (fun s -> s.Span.alloc.Span.minor_words) );
    ]
    (gauges "secyan_gc_phase_minor_words")

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
      ( "exporters",
        [
          Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
          Alcotest.test_case "prometheus format" `Quick test_prometheus_format;
          Alcotest.test_case "jsonl parses" `Quick test_jsonl_export_parses;
          Alcotest.test_case "export renders pool timelines" `Quick
            test_export_renders_pool_timelines;
          Alcotest.test_case "recurring phase summed" `Quick test_recurring_phase_summed;
        ] );
      ( "profiling",
        [
          Alcotest.test_case "spans record allocation" `Quick test_spans_record_allocation;
          Alcotest.test_case "progress heartbeats" `Quick test_progress_heartbeats;
          Alcotest.test_case "progress composes with tracer" `Quick
            test_progress_composes_with_tracer;
        ] );
    ]
