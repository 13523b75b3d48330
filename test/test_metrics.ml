(* Tests for the metrics layer: the lock-striped registry (lib/metrics),
   merge-on-read correctness across pool sizes, the ledger counters in
   the export, the exporters, the live progress reporter, and
   the BENCH regression differ. The registry is a process-wide
   singleton, so every test uses uniquely-named metrics and restores the
   enable flag it found. *)

open Secyan_crypto
open Secyan_obs

let seed = 23L

let with_metrics f =
  let was = Secyan_metrics.enabled () in
  Secyan_metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Secyan_metrics.set_enabled was) f

let find_sample name =
  List.find_opt (fun s -> s.Secyan_metrics.name = name) (Secyan_metrics.snapshot ())

let get_sample name =
  match find_sample name with
  | Some s -> s
  | None -> Alcotest.failf "metric %s not in snapshot" name

(* ------------------------------------------------------------------ *)
(* Registry basics *)

let test_counter_basics () =
  with_metrics @@ fun () ->
  let c = Secyan_metrics.counter ~help:"test" "test_counter_basics_total" in
  Secyan_metrics.add c 3;
  Secyan_metrics.add c 4;
  match (get_sample "test_counter_basics_total").Secyan_metrics.value with
  | Secyan_metrics.Counter n -> Alcotest.(check int) "sum of adds" 7 n
  | _ -> Alcotest.fail "expected a counter"

let test_disabled_records_nothing () =
  let was = Secyan_metrics.enabled () in
  Secyan_metrics.set_enabled false;
  Fun.protect ~finally:(fun () -> Secyan_metrics.set_enabled was) @@ fun () ->
  let c = Secyan_metrics.counter ~help:"test" "test_disabled_total" in
  let h = Secyan_metrics.histogram ~help:"test" "test_disabled_hist" in
  Secyan_metrics.add c 5;
  Secyan_metrics.observe h 1.0;
  Secyan_metrics.set_enabled true;
  (match (get_sample "test_disabled_total").Secyan_metrics.value with
  | Secyan_metrics.Counter n -> Alcotest.(check int) "no count while disabled" 0 n
  | _ -> Alcotest.fail "expected a counter");
  match (get_sample "test_disabled_hist").Secyan_metrics.value with
  | Secyan_metrics.Histogram h -> Alcotest.(check int) "no observations" 0 h.Secyan_metrics.count
  | _ -> Alcotest.fail "expected a histogram"

let test_gauge_overwrites () =
  with_metrics @@ fun () ->
  let g = Secyan_metrics.gauge ~help:"test" "test_gauge" in
  Secyan_metrics.set g 1.5;
  Secyan_metrics.set g 2.5;
  match (get_sample "test_gauge").Secyan_metrics.value with
  | Secyan_metrics.Gauge v -> Alcotest.(check (float 1e-9)) "last write wins" 2.5 v
  | _ -> Alcotest.fail "expected a gauge"

let test_kind_clash_rejected () =
  Alcotest.check_raises "counter reused as gauge"
    (Invalid_argument "Secyan_metrics: \"test_kind_clash\" is already registered as a counter")
    (fun () ->
      ignore (Secyan_metrics.counter ~help:"test" "test_kind_clash");
      ignore (Secyan_metrics.gauge ~help:"test" "test_kind_clash"))

(* Pool workers force deferred registrations: forcing one from several
   domains at once must neither raise (racing [Lazy.force] raises
   [CamlinternalLazy.Undefined]) nor hand out two handles. The slow
   registration keeps every domain inside it together. *)
let test_lazily_across_domains () =
  let get =
    Secyan_metrics.lazily (fun () ->
        Unix.sleepf 0.02;
        Secyan_metrics.counter ~help:"test" "test_lazily_total")
  in
  let go = Atomic.make false in
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            get ()))
  in
  Atomic.set go true;
  let handles = List.map Domain.join workers in
  List.iter (fun h -> Alcotest.(check bool) "one handle" true (h == get ())) handles

let test_histogram_counts_and_sum () =
  with_metrics @@ fun () ->
  let h = Secyan_metrics.histogram ~help:"test" "test_hist_counts" in
  List.iter (Secyan_metrics.observe h) [ 0.5; 1.0; 2.0; 1024.0; 1e12 ];
  match (get_sample "test_hist_counts").Secyan_metrics.value with
  | Secyan_metrics.Histogram hs ->
      Alcotest.(check int) "count" 5 hs.Secyan_metrics.count;
      Alcotest.(check (float 1e-3)) "sum" (0.5 +. 1.0 +. 2.0 +. 1024.0 +. 1e12)
        hs.Secyan_metrics.sum;
      Alcotest.(check int) "bucket cells = bounds + overflow"
        (Array.length hs.Secyan_metrics.upper + 1)
        (Array.length hs.Secyan_metrics.counts);
      Alcotest.(check int) "overflow bucket holds the huge value" 1
        hs.Secyan_metrics.counts.(Array.length hs.Secyan_metrics.counts - 1)
  | _ -> Alcotest.fail "expected a histogram"

let test_snapshot_sorted () =
  with_metrics @@ fun () ->
  let names = List.map (fun s -> s.Secyan_metrics.name) (Secyan_metrics.snapshot ()) in
  Alcotest.(check (list string)) "sorted by name" (List.sort compare names) names

(* ------------------------------------------------------------------ *)
(* Merge-on-read across pool sizes (satellite: bit-identical counts) *)

let merged_histogram_counts pool_size =
  let h = Secyan_metrics.histogram ~help:"test" "test_merge_hist" in
  Secyan_metrics.reset ();
  let pool = Domain_pool.create pool_size in
  (* a spread of values so many distinct buckets fill *)
  Domain_pool.run pool ~n:96 ~f:(fun i ->
      Secyan_metrics.observe h (Float.pow 1.7 (float_of_int (i mod 40)) *. 0.01));
  Domain_pool.shutdown pool;
  match (get_sample "test_merge_hist").Secyan_metrics.value with
  | Secyan_metrics.Histogram hs -> (hs.Secyan_metrics.counts, hs.Secyan_metrics.count)
  | _ -> Alcotest.fail "expected a histogram"

let test_merge_bit_identical () =
  with_metrics @@ fun () ->
  let base_counts, base_count = merged_histogram_counts 1 in
  List.iter
    (fun size ->
      let counts, count = merged_histogram_counts size in
      Alcotest.(check int) (Printf.sprintf "total at pool size %d" size) base_count count;
      Alcotest.(check (array int))
        (Printf.sprintf "bucket counts at pool size %d" size)
        base_counts counts)
    [ 2; 4 ];
  Secyan_metrics.reset ()

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

(* A parallel batch counts each unit of work exactly once: item ledgers
   are private deltas that [Context.absorb] folds into the owning
   context, so the ledger is identical at every pool size, and the
   export renders exactly that ledger — work and traffic counters
   alike. *)
let test_parallel_batch_no_double_count () =
  let build b words = [ Circuits.mul_word b words.(0) words.(1) ] in
  let run domains =
    let ctx = Context.create ~gc_backend:Context.Real ~domains ~seed () in
    let inp = Prg.create 5L in
    let items =
      Array.init 6 (fun _ ->
          [
            Gc_protocol.Priv { owner = Party.Alice; value = Prg.bits inp 16; bits = 32 };
            Gc_protocol.Priv { owner = Party.Bob; value = Prg.bits inp 16; bits = 32 };
          ])
    in
    let _ = Gc_protocol.eval_to_shares_batch ctx ~items ~build in
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

(* Per-item allocation observability (DESIGN.md §14): every batch item
   records its minor/major word delta, at any pool size, and turning the
   histograms on must not perturb the results. *)
let test_batch_alloc_words_histograms () =
  with_metrics @@ fun () ->
  Secyan_metrics.reset ();
  let run domains =
    let ctx = Context.create ~gc_backend:Context.Real ~domains ~seed () in
    let inp = Prg.create 5L in
    let items =
      Array.init 6 (fun _ ->
          [
            Gc_protocol.Priv { owner = Party.Alice; value = Prg.bits inp 16; bits = 32 };
            Gc_protocol.Priv { owner = Party.Bob; value = Prg.bits inp 16; bits = 32 };
          ])
    in
    let build b words = [ Circuits.mul_word b words.(0) words.(1) ] in
    let shares = Gc_protocol.eval_to_shares_batch ctx ~items ~build in
    Context.shutdown_pool ctx;
    shares
  in
  let hist name =
    match (get_sample name).Secyan_metrics.value with
    | Secyan_metrics.Histogram h -> h
    | _ -> Alcotest.failf "metric %s is not a histogram" name
  in
  let s1 = run 1 in
  let h1 = hist "secyan_gc_item_minor_words" in
  Alcotest.(check bool) "at least one observation per item" true
    (h1.Secyan_metrics.count >= 6);
  Alcotest.(check bool) "items allocate a measurable amount" true
    (h1.Secyan_metrics.sum > 0.);
  let s4 = run 4 in
  Alcotest.(check bool) "shares identical under metrics" true (s1 = s4);
  let h4 = hist "secyan_gc_item_minor_words" in
  Alcotest.(check int) "same observation count at pool 4" (2 * h1.Secyan_metrics.count)
    h4.Secyan_metrics.count;
  let major = hist "secyan_gc_item_major_words" in
  Alcotest.(check int) "major histogram observes with minor"
    h4.Secyan_metrics.count major.Secyan_metrics.count

(* ------------------------------------------------------------------ *)
(* Exporters *)

let test_prometheus_format () =
  with_metrics @@ fun () ->
  Secyan_metrics.reset ();
  let h = Secyan_metrics.histogram ~help:"test histogram" "test_prom_hist" in
  List.iter (Secyan_metrics.observe h) [ 0.5; 0.5; 3.0 ];
  let g0 = Secyan_metrics.gauge ~help:"labelled" "test_prom_gauge{domain=\"0\"}" in
  let g1 = Secyan_metrics.gauge ~help:"labelled" "test_prom_gauge{domain=\"1\"}" in
  Secyan_metrics.set g0 1.;
  Secyan_metrics.set g1 2.;
  let out = Metrics.export_string Metrics.Prometheus in
  let count_sub sub =
    let n = String.length out and m = String.length sub in
    let rec go i acc =
      if i + m > n then acc
      else go (i + 1) (if String.sub out i m = sub then acc + 1 else acc)
    in
    go 0 0
  in
  (* one TYPE header per base name, even for labelled gauge families *)
  Alcotest.(check int) "one TYPE for the gauge family" 1
    (count_sub "# TYPE test_prom_gauge gauge");
  Alcotest.(check int) "one TYPE for the histogram" 1
    (count_sub "# TYPE test_prom_hist histogram");
  Alcotest.(check int) "sum line" 1 (count_sub "test_prom_hist_sum 4\n");
  Alcotest.(check int) "count line" 1 (count_sub "test_prom_hist_count 3\n");
  Alcotest.(check int) "cumulative +Inf bucket" 1
    (count_sub "test_prom_hist_bucket{le=\"+Inf\"} 3\n");
  Secyan_metrics.reset ()

let test_jsonl_export_parses () =
  with_metrics @@ fun () ->
  let h = Secyan_metrics.histogram ~help:"test" "test_jsonl_hist" in
  Secyan_metrics.observe h 2.0;
  let out = Metrics.export_string Metrics.Jsonl in
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  Alcotest.(check bool) "at least one metric" true (lines <> []);
  List.iter
    (fun l ->
      match Json.parse l with
      | Ok (Json.Obj fields) ->
          Alcotest.(check bool) "has name" true (List.mem_assoc "name" fields)
      | Ok _ -> Alcotest.fail "line is not an object"
      | Error e -> Alcotest.failf "unparsable JSONL line %s: %s" l e)
    lines

let test_quantile_estimates () =
  with_metrics @@ fun () ->
  let h = Secyan_metrics.histogram ~help:"test" "test_quantile_hist" in
  for _ = 1 to 90 do Secyan_metrics.observe h 1.0 done;
  for _ = 1 to 10 do Secyan_metrics.observe h 1000.0 done;
  match (get_sample "test_quantile_hist").Secyan_metrics.value with
  | Secyan_metrics.Histogram hs ->
      let p50 = Metrics.quantile hs 0.50 and p99 = Metrics.quantile hs 0.99 in
      Alcotest.(check bool) "p50 near 1" true (p50 >= 1.0 && p50 <= 2.0);
      Alcotest.(check bool) "p99 near 1000" true (p99 >= 1000.0 && p99 <= 2048.0)
  | _ -> Alcotest.fail "expected a histogram"

(* ------------------------------------------------------------------ *)
(* GC sampler and progress reporter *)

let test_gc_sampler_phases () =
  let ctx = Context.create ~seed () in
  let s = Profile.attach_gc_sampler ctx in
  Context.with_span ctx "phase:reduce" (fun () ->
      ignore (Sys.opaque_identity (Array.init 4096 (fun i -> string_of_int i))));
  Context.with_span ctx "reveal" (fun () -> ());
  let phases = Profile.detach_gc_sampler s in
  let names = List.map (fun p -> p.Profile.phase) phases in
  Alcotest.(check (list string)) "phases in order"
    [ "setup"; "phase:reduce"; "reveal" ] names;
  Alcotest.(check bool) "sink restored" true (ctx.Context.sink == Trace_sink.noop);
  let reduce = List.nth phases 1 in
  Alcotest.(check bool) "reduce allocated" true (reduce.Profile.minor_words > 0.);
  (* detach is idempotent *)
  Alcotest.(check int) "second detach returns same" (List.length phases)
    (List.length (Profile.detach_gc_sampler s))

let test_progress_heartbeats () =
  let ctx = Context.create ~seed () in
  let file = Filename.temp_file "secyan_hb" ".jsonl" in
  let oc = open_out file in
  let t = Progress.attach ~total:1000 ~interval:0. ~render:false ~heartbeat:oc ctx in
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
      ( "registry",
        [
          Alcotest.test_case "counter adds" `Quick test_counter_basics;
          Alcotest.test_case "disabled records nothing" `Quick test_disabled_records_nothing;
          Alcotest.test_case "gauge overwrites" `Quick test_gauge_overwrites;
          Alcotest.test_case "kind clash rejected" `Quick test_kind_clash_rejected;
          Alcotest.test_case "histogram counts and sum" `Quick test_histogram_counts_and_sum;
          Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
          Alcotest.test_case "lazily forced across domains" `Quick test_lazily_across_domains;
        ] );
      ( "merge",
        [
          Alcotest.test_case "bit-identical across pool sizes" `Quick test_merge_bit_identical;
          Alcotest.test_case "context bump mirrors" `Quick test_context_bump_mirrors;
          Alcotest.test_case "parallel batch no double count" `Quick
            test_parallel_batch_no_double_count;
          Alcotest.test_case "batch allocation histograms" `Quick
            test_batch_alloc_words_histograms;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "prometheus format" `Quick test_prometheus_format;
          Alcotest.test_case "jsonl parses" `Quick test_jsonl_export_parses;
          Alcotest.test_case "quantile estimates" `Quick test_quantile_estimates;
        ] );
      ( "profiling",
        [
          Alcotest.test_case "gc sampler phases" `Quick test_gc_sampler_phases;
          Alcotest.test_case "progress heartbeats" `Quick test_progress_heartbeats;
          Alcotest.test_case "progress composes with tracer" `Quick
            test_progress_composes_with_tracer;
        ] );
    ]
