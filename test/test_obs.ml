(* Tests for the observability layer (lib/obs): span-tree structure,
   exact attribution of communication to the root span, primitive
   counters against the cost model, the exporters, and the guarantee
   that tracing never changes protocol behaviour. *)

open Secyan_crypto
open Secyan_obs

let seed = 11L

(* A tiny TPC-H dataset: big enough that Q3 exercises every operator,
   small enough for a quick test. *)
let dataset () = Secyan_tpch.Datagen.generate ~sf:4e-5 ~seed

let run_q3_traced () =
  let d = dataset () in
  let q = Secyan_tpch.Queries.q3 d in
  let ctx = Secyan_tpch.Queries.context ~seed () in
  let (revealed, stats), root =
    Trace.with_tracing ~name:"q3" ctx (fun () -> Secyan.Secure_yannakakis.run ctx q)
  in
  (revealed, stats, root)

(* Cache the traced run: several tests inspect the same tree. *)
let traced_q3 = lazy (run_q3_traced ())

let check_tally = Alcotest.testable Comm.pp Comm.equal

(* ------------------------------------------------------------------ *)
(* Span-tree structure *)

let test_span_nesting () =
  let _, _, root = Lazy.force traced_q3 in
  Alcotest.(check bool) "has children" true (Span.children root <> []);
  Span.iter
    (fun ~depth:_ ~path span ->
      Alcotest.(check bool) (path ^ ": closed") true (span.Span.dur_s >= 0.);
      let t = Span.tally span in
      let self = Span.self_tally span in
      Alcotest.(check bool) (path ^ ": self >= 0") true
        (self.Comm.alice_to_bob_bits >= 0 && self.Comm.bob_to_alice_bits >= 0
        && self.Comm.rounds >= 0);
      let children_bits =
        List.fold_left
          (fun acc c -> acc + Comm.total_bits (Span.tally c))
          0 (Span.children span)
      in
      Alcotest.(check bool) (path ^ ": children bits <= inclusive") true
        (children_bits <= Comm.total_bits t);
      List.iter
        (fun (c : Span.t) ->
          Alcotest.(check bool) (path ^ ": child starts after parent") true
            (c.Span.start_s >= span.Span.start_s -. 1e-9);
          Alcotest.(check bool) (path ^ ": child ends before parent ends") true
            (c.Span.start_s +. c.Span.dur_s
            <= span.Span.start_s +. span.Span.dur_s +. 1e-3))
        (Span.children span))
    root

let test_root_tally_exact () =
  let _, stats, root = Lazy.force traced_q3 in
  (* the acceptance criterion: the root span's inclusive tally equals the
     query's reported tally exactly — bits in both directions AND rounds *)
  Alcotest.check check_tally "root tally = reported query tally"
    stats.Secyan.Secure_yannakakis.tally (Span.tally root)

(* One ledger, read two ways: the trace root's inclusive counters and
   tally must equal the context ledger's delta over the traced run — for
   Sim on one domain, for Real over tcp on two domains (batch merges and
   the wire in play), and for a checkpoint-resumed run, whose root covers
   only the work done after the resume. *)
let ledger_queries =
  [
    ("q3", Secyan_tpch.Queries.q3);
    ("q10", Secyan_tpch.Queries.q10);
    ("q18", fun d -> Secyan_tpch.Queries.q18 d);
  ]

let check_root_is_ledger_delta name root ~base ~after =
  Alcotest.(check (array int))
    (name ^ ": root counters = ledger delta")
    (Array.map2 ( - ) after base) (Span.counters root);
  Alcotest.check check_tally (name ^ ": root tally = ledger tally delta")
    (Comm.diff (Context.tally_of_counters after) (Context.tally_of_counters base))
    (Span.tally root)

let traced_ledger_run name ctx q =
  let base = Context.counter_totals ctx in
  let (_, stats), root =
    Trace.with_tracing ctx (fun () -> Secyan.Secure_yannakakis.run ctx q)
  in
  check_root_is_ledger_delta name root ~base ~after:(Context.counter_totals ctx);
  Alcotest.check check_tally (name ^ ": root tally = Context.tally")
    (Context.tally ctx) (Span.tally root);
  Alcotest.check check_tally (name ^ ": root tally = reported tally")
    stats.Secyan.Secure_yannakakis.tally (Span.tally root)

let test_root_is_ledger_sim () =
  let d = dataset () in
  List.iter
    (fun (name, make) ->
      let ctx = Secyan_tpch.Queries.context ~seed () in
      traced_ledger_run (name ^ " sim") ctx (make d))
    ledger_queries

let test_root_is_ledger_real_tcp () =
  let d = dataset () in
  List.iter
    (fun (name, make) ->
      let transport = Secyan_net.Resilient.create (Secyan_net.Transport.tcp ()) in
      let ctx =
        Secyan_tpch.Queries.context ~gc_backend:Context.Real ~domains:2 ~transport ~seed ()
      in
      Fun.protect
        ~finally:(fun () ->
          Context.close_transport ctx;
          Context.shutdown_pool ctx)
        (fun () -> traced_ledger_run (name ^ " real/tcp/2d") ctx (make d)))
    ledger_queries

let test_root_is_ledger_resumed () =
  let d = dataset () in
  List.iter
    (fun (name, make) ->
      let name = name ^ " resumed" in
      let q = make d in
      let dir = Filename.temp_dir "secyan-obs-ck" "" in
      Fun.protect
        ~finally:(fun () ->
          Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
          Sys.rmdir dir)
      @@ fun () ->
      let first = Secyan_tpch.Queries.context ~checkpoint:(Checkpoint.sink ~dir ()) ~seed () in
      let _, full = Secyan.Secure_yannakakis.run first q in
      (* the ledger the resumed run starts from: the latest snapshot's *)
      let restored =
        match Checkpoint.latest_path dir with
        | Some (_, path) ->
            let l = Checkpoint.read_file path in
            (Secyan.Protocol_state.decode_snapshot ~path l.Checkpoint.payload)
              .Secyan.Protocol_state.counters
        | None -> Alcotest.fail "no checkpoint written"
      in
      let ctx = Secyan_tpch.Queries.context ~checkpoint:(Checkpoint.sink ~dir ()) ~seed () in
      let (_, stats), root =
        Trace.with_tracing ctx (fun () -> Secyan.Secure_yannakakis.run ~resume:true ctx q)
      in
      check_root_is_ledger_delta name root ~base:restored ~after:(Context.counter_totals ctx);
      Alcotest.check check_tally (name ^ ": whole-run tally unchanged by resume")
        full.Secyan.Secure_yannakakis.tally stats.Secyan.Secure_yannakakis.tally;
      Alcotest.(check bool) (name ^ ": root covers only post-resume work") true
        (Comm.total_bits (Span.tally root)
        < Comm.total_bits stats.Secyan.Secure_yannakakis.tally))
    ledger_queries

let test_phases_present () =
  let _, _, root = Lazy.force traced_q3 in
  let names = List.map (fun (c : Span.t) -> c.Span.name) (Span.children root) in
  (* Q3 carries the paper's ORDER BY/LIMIT, so the run ends in the
     oblivious top-k phase rather than the plain batched reveal. *)
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("phase " ^ expected) true (List.mem expected names))
    [ "phase:share"; "phase:reduce"; "phase:semijoin"; "phase:join"; "phase:order" ];
  (* the top-k reveal round nests inside the order phase, never at top level *)
  Alcotest.(check bool) "no top-level reveal" false (List.mem "reveal" names);
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let topk = ref false in
  Span.iter
    (fun ~depth:_ ~path span ->
      if span.Span.name = "reveal:topk" then begin
        topk := true;
        Alcotest.(check bool) (path ^ ": under phase:order") true
          (contains ~sub:"phase:order" path)
      end)
    root;
  Alcotest.(check bool) "reveal:topk present" true !topk

(* ------------------------------------------------------------------ *)
(* Counters vs the cost model *)

let test_counters_positive () =
  let _, _, root = Lazy.force traced_q3 in
  List.iter
    (fun c ->
      Alcotest.(check bool) (Trace_sink.counter_name c ^ " fired") true
        (Span.counter root c > 0))
    [
      Trace_sink.And_gates; Trace_sink.Ots; Trace_sink.Oep_switches;
      Trace_sink.Cuckoo_bins; Trace_sink.B2a_words; Trace_sink.Gc_circuits;
    ]

let test_and_gates_within_traffic () =
  let _, stats, root = Lazy.force traced_q3 in
  (* every garbled AND gate costs and_gate_bits from the garbler (Alice in
     our convention), so the garbled-table traffic is a lower bound on the
     A->B direction *)
  let table_bits = Span.counter root Trace_sink.And_gates * Cost_model.and_gate_bits ~kappa:128 in
  Alcotest.(check bool) "AND-gate tables fit in A->B traffic" true
    (table_bits <= stats.Secyan.Secure_yannakakis.tally.Comm.alice_to_bob_bits)

let test_oep_counter_exact () =
  let ctx = Context.create ~bits:32 ~seed () in
  let m = 13 in
  let xi = [| 0; 5; 5; 2; 12; 7; 7; 7; 1; 0 |] in
  let values =
    Array.init m (fun i -> Secret_share.share ctx ~owner:Party.Alice (Int64.of_int i))
  in
  let _, root =
    Trace.with_tracing ctx (fun () -> Oep.apply_shared ctx ~holder:Party.Bob ~xi ~m values)
  in
  let expected_switches = Oep.n_switches (Oep.program ~m xi) in
  Alcotest.(check int) "switch counter exact" expected_switches
    (Span.counter root Trace_sink.Oep_switches);
  let per_switch =
    Cost_model.oep_switch_bits ~kappa:ctx.Context.kappa ~bits:(Context.ring_bits ctx)
  in
  Alcotest.(check int) "OEP bits = switches x per-switch cost"
    (expected_switches * per_switch)
    (Comm.total_bits (Span.tally root))

(* ------------------------------------------------------------------ *)
(* Tracing changes nothing *)

let content (r : Secyan_relational.Relation.t) =
  Secyan_relational.Relation.nonzero r
  |> List.map (fun (t, a) -> (Secyan_relational.Tuple.repr t, a))
  |> List.sort compare

let test_untraced_identical () =
  let d = dataset () in
  let run trace =
    let q = Secyan_tpch.Queries.q3 d in
    let ctx = Secyan_tpch.Queries.context ~seed () in
    if trace then
      let (revealed, stats), _ =
        Trace.with_tracing ctx (fun () -> Secyan.Secure_yannakakis.run ctx q)
      in
      (revealed, stats)
    else Secyan.Secure_yannakakis.run ctx q
  in
  let r_plain, s_plain = run false in
  let r_traced, s_traced = run true in
  Alcotest.(check bool) "same result rows" true (content r_plain = content r_traced);
  Alcotest.check check_tally "same tally" s_plain.Secyan.Secure_yannakakis.tally
    s_traced.Secyan.Secure_yannakakis.tally

let test_traced_parallel_identical () =
  (* A traced parallel run must produce the same span tree as a traced
     sequential run — same structure, per-span traffic, rounds, and
     primitive counters; only durations may differ. The GC batch engine
     merges each worker's privately accumulated deltas into the tracer
     exactly once per batch, so sums match bit-for-bit. *)
  let d = dataset () in
  let shape root =
    let acc = ref [] in
    Span.iter
      (fun ~depth ~path span ->
        acc :=
          (depth, path, Array.to_list span.Span.self_counters)
          :: !acc)
      root;
    List.rev !acc
  in
  let run domains =
    let q = Secyan_tpch.Queries.q3 d in
    let ctx = Secyan_tpch.Queries.context ~domains ~seed () in
    let (revealed, _), root =
      Trace.with_tracing ctx (fun () -> Secyan.Secure_yannakakis.run ctx q)
    in
    Context.shutdown_pool ctx;
    (content revealed, shape root)
  in
  let r1, t1 = run 1 in
  let r2, t2 = run 2 in
  Alcotest.(check bool) "same result rows" true (r1 = r2);
  Alcotest.(check bool) "same span tree (traffic and counters)" true (t1 = t2)

let test_noop_sink_is_default () =
  let ctx = Context.create ~seed () in
  Alcotest.(check bool) "fresh context untraced" false (Context.traced ctx);
  let t = Trace.create () in
  Trace.attach t ctx;
  Alcotest.(check bool) "attached context traced" true (Context.traced ctx);
  ignore (Trace.finish t : Span.t);
  Alcotest.(check bool) "finished context untraced again" false (Context.traced ctx)

let test_measure () =
  let ctx = Context.create ~seed () in
  let before = Context.tally ctx in
  let (), secs, delta =
    Trace.measure ctx (fun () ->
        Context.send ctx ~from:Party.Alice ~bits:123;
        Context.bump_rounds ctx 1)
  in
  Alcotest.(check bool) "non-negative time" true (secs >= 0.);
  Alcotest.check check_tally "delta matches manual diff"
    (Comm.diff (Context.tally ctx) before)
    delta;
  Alcotest.(check int) "delta bits" 123 delta.Comm.alice_to_bob_bits

(* Nested measures must not double-count: each call reads the tally once
   before and once after its own body, so the inner delta is contained in
   (not added to) the outer one. *)
let test_measure_nesting () =
  let ctx = Context.create ~seed () in
  let send bits = Context.send ctx ~from:Party.Alice ~bits in
  let (inner_delta, _), _, outer_delta =
    Trace.measure ctx (fun () ->
        send 100;
        let (), _, inner = Trace.measure ctx (fun () -> send 50) in
        send 25;
        (inner, ()))
  in
  Alcotest.(check int) "inner sees only its own traffic" 50
    inner_delta.Comm.alice_to_bob_bits;
  Alcotest.(check int) "outer includes the inner" 175
    outer_delta.Comm.alice_to_bob_bits

(* The span-level equivalent: a child span's traffic lands in the parent's
   inclusive tally but not its self tally. *)
let test_span_attribution_nested () =
  let ctx = Context.create ~seed () in
  let send bits = Context.send ctx ~from:Party.Alice ~bits in
  let (), root =
    Trace.with_tracing ~name:"parent" ctx (fun () ->
        send 100;
        Context.with_span ctx "child" (fun () -> send 50);
        send 25)
  in
  let child =
    match Span.children root with
    | [ c ] -> c
    | _ -> Alcotest.fail "expected exactly one child span under the root"
  in
  Alcotest.(check int) "child self = child inclusive" 50
    (Span.self_tally child).Comm.alice_to_bob_bits;
  Alcotest.(check int) "parent self excludes the child" 125
    (Span.self_tally root).Comm.alice_to_bob_bits;
  Alcotest.(check int) "parent inclusive includes the child" 175
    (Span.tally root).Comm.alice_to_bob_bits

(* ------------------------------------------------------------------ *)
(* JSON *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd\te");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Str "x"; Json.Obj [] ]);
      ]
  in
  match Json.parse (Json.to_string doc) with
  | Ok parsed -> Alcotest.(check bool) "round-trips" true (parsed = doc)
  | Error msg -> Alcotest.fail ("parse failed: " ^ msg)

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.fail ("accepted invalid JSON: " ^ s)
      | Error _ -> ())
    [ "{"; "[1,]"; "\"unterminated"; "{\"a\" 1}"; "1 2"; "" ]

(* ------------------------------------------------------------------ *)
(* Exporters *)

let test_chrome_export () =
  let _, _, root = Lazy.force traced_q3 in
  match Json.parse (Export.chrome_string root) with
  | Error msg -> Alcotest.fail ("chrome export is not valid JSON: " ^ msg)
  | Ok doc -> (
      match Json.member "traceEvents" doc with
      | Some (Json.List events) ->
          Alcotest.(check int) "one event per span" (Span.n_spans root)
            (List.length events);
          List.iter
            (fun e ->
              Alcotest.(check (option string)) "complete event" (Some "X")
                (Option.bind (Json.member "ph" e) Json.to_string_opt);
              List.iter
                (fun field ->
                  Alcotest.(check bool) (field ^ " present") true
                    (Json.member field e <> None))
                [ "name"; "ts"; "dur"; "pid"; "tid"; "args" ];
              Alcotest.(check bool) "dur non-negative" true
                (match Option.bind (Json.member "dur" e) Json.to_float_opt with
                | Some d -> d >= 0.
                | None -> false))
            events
      | _ -> Alcotest.fail "missing traceEvents array")

let test_jsonl_export () =
  let _, stats, root = Lazy.force traced_q3 in
  let lines =
    Export.jsonl_string root |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int) "one line per span" (Span.n_spans root) (List.length lines);
  let parsed =
    List.map
      (fun l ->
        match Json.parse l with
        | Ok j -> j
        | Error msg -> Alcotest.fail ("jsonl line is not valid JSON: " ^ msg))
      lines
  in
  (* first line is the root: its inclusive bits must match the query *)
  match parsed with
  | root_line :: _ ->
      Alcotest.(check (option int)) "root a->b bits"
        (Some stats.Secyan.Secure_yannakakis.tally.Comm.alice_to_bob_bits)
        (Option.bind (Json.member "alice_to_bob_bits" root_line) Json.to_int_opt)
  | [] -> Alcotest.fail "no jsonl output"

let test_pretty_export () =
  let _, _, root = Lazy.force traced_q3 in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Export.pretty ppf root;
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions the root span" true (contains "q3" out);
  Alcotest.(check bool) "has the header row" true (contains "rounds" out)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "secyan_obs"
    [
      ( "span-tree",
        [
          Alcotest.test_case "nesting well-formed" `Quick test_span_nesting;
          Alcotest.test_case "root tally exact" `Quick test_root_tally_exact;
          Alcotest.test_case "phases present" `Quick test_phases_present;
          Alcotest.test_case "root is the ledger delta (sim)" `Quick test_root_is_ledger_sim;
          Alcotest.test_case "root is the ledger delta (real, tcp, 2 domains)" `Quick
            test_root_is_ledger_real_tcp;
          Alcotest.test_case "root is the ledger delta (resumed)" `Quick
            test_root_is_ledger_resumed;
        ] );
      ( "counters",
        [
          Alcotest.test_case "all fire on Q3" `Quick test_counters_positive;
          Alcotest.test_case "AND gates within traffic" `Quick test_and_gates_within_traffic;
          Alcotest.test_case "OEP switches exact" `Quick test_oep_counter_exact;
        ] );
      ( "transparency",
        [
          Alcotest.test_case "tracing changes nothing" `Quick test_untraced_identical;
          Alcotest.test_case "parallel trace identical" `Quick test_traced_parallel_identical;
          Alcotest.test_case "noop sink default" `Quick test_noop_sink_is_default;
          Alcotest.test_case "measure" `Quick test_measure;
          Alcotest.test_case "measure nesting" `Quick test_measure_nesting;
          Alcotest.test_case "span attribution nested" `Quick
            test_span_attribution_nested;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome" `Quick test_chrome_export;
          Alcotest.test_case "jsonl" `Quick test_jsonl_export;
          Alcotest.test_case "pretty" `Quick test_pretty_export;
        ] );
    ]
