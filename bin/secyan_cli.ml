(* secyan_cli — run, inspect, and estimate the paper's TPC-H queries from
   the command line.

     secyan_cli run --query q3 --scale m
     secyan_cli run --query q9 --sf 0.0004 --backend real --verify
     secyan_cli run --sql "SELECT c_mktsegment, COUNT(*) FROM customer, orders
       WHERE customer.custkey = orders.custkey GROUP BY c_mktsegment" --verify
     secyan_cli plan --query q18 --scale xs
     secyan_cli estimate --query q3 --scale l
     secyan_cli generate --scale s *)

open Cmdliner
open Secyan_crypto
open Secyan_relational

(* --- shared argument definitions ----------------------------------- *)

let scale_arg =
  let doc = "Dataset scale preset (xs, s, m, l, xl)." in
  Arg.(value & opt (some string) None & info [ "scale" ] ~docv:"PRESET" ~doc)

let sf_arg =
  let doc = "TPC-H scale factor (overrides --scale)." in
  Arg.(value & opt (some float) None & info [ "sf" ] ~docv:"SF" ~doc)

let seed_arg =
  let doc = "Random seed for data generation and the protocol." in
  Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc)

let figure_queries = [ ("q3", `Q3); ("q10", `Q10); ("q18", `Q18); ("q8", `Q8); ("q9", `Q9) ]

let query_arg =
  let doc = "Query: q3, q10, q18, q8 or q9." in
  Arg.(required & opt (some (enum figure_queries)) None
    & info [ "q"; "query" ] ~docv:"QUERY" ~doc)

let run_query_arg =
  let doc = "Figure query: q3, q10, q18, q8 or q9. Give exactly one of --query and --sql." in
  Arg.(value & opt (some (enum figure_queries)) None
    & info [ "q"; "query" ] ~docv:"QUERY" ~doc)

let sql_arg =
  let doc =
    "Run the ad-hoc SQL $(docv) over the TPC-H catalog (odd tables owned by Alice, even \
     by Bob), including ORDER BY / LIMIT as an oblivious top-k phase. Give exactly one \
     of --query and --sql."
  in
  Arg.(value & opt (some string) None & info [ "sql" ] ~docv:"STATEMENT" ~doc)

let backend_arg =
  let doc = "Garbled-circuit backend: sim (default; cost-exact simulation) or real \
             (actual half-gates garbling; slow)." in
  Arg.(value & opt (enum [ ("sim", Context.Sim); ("real", Context.Real) ]) Context.Sim
    & info [ "backend" ] ~docv:"BACKEND" ~doc)

let verify_arg =
  let doc = "Cross-check the secure result against the plaintext Yannakakis run." in
  Arg.(value & flag & info [ "verify" ] ~doc)

let domains_arg =
  let doc =
    "Domains that claim garbled-circuit batch items (default 1 = sequential; a watched \
     pool, see --hang-timeout, adds the watching caller). Results, communication, and \
     round counts are bit-identical for every value; only wall-clock changes."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let trace_arg =
  let doc =
    "Trace the protocol and export the span tree. $(docv) is $(b,pretty) (aligned text \
     tree, the default), $(b,chrome) (Chrome trace-event JSON, loadable in Perfetto or \
     chrome://tracing), or $(b,jsonl) (one JSON object per span per line, for diffing)."
  in
  Arg.(value
    & opt ~vopt:(Some `Pretty)
        (some (enum [ ("pretty", `Pretty); ("chrome", `Chrome); ("jsonl", `Jsonl) ]))
        None
    & info [ "trace" ] ~docv:"FORMAT" ~doc)

let trace_out_arg =
  let doc = "Write the trace to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Export a metrics snapshot after the run: the run's ledger totals as \
     $(b,secyan_<counter>_total) counters (equal to the cost line, work restored by \
     --resume included), each pool participant's contention timeline as \
     $(b,secyan_domain_*) gauges, and each protocol phase's wall time and allocation, \
     summed over its spans in the run's trace, as $(b,secyan_gc_phase_*) gauges \
     (the run is traced; the tree is printed only with --trace). $(docv) is \
     $(b,pretty) (aligned table, the default), $(b,jsonl) (one JSON object per metric \
     per line) or $(b,prometheus) (Prometheus text exposition format)."
  in
  Arg.(value
    & opt ~vopt:(Some `Pretty)
        (some (enum [ ("pretty", `Pretty); ("jsonl", `Jsonl); ("prometheus", `Prometheus) ]))
        None
    & info [ "metrics" ] ~docv:"FORMAT" ~doc)

let metrics_out_arg =
  let doc = "Write the metrics export to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let progress_arg =
  let doc =
    "Render a live progress line on stderr (current phase, AND gates done against the \
     cost-model estimate, ETA)."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

let progress_out_arg =
  let doc = "Append machine-readable JSONL progress heartbeats to $(docv)." in
  Arg.(value & opt (some string) None & info [ "progress-out" ] ~docv:"FILE" ~doc)

let transport_arg =
  let doc =
    "Message transport behind the protocol's channel: $(b,sim) (pure cost accounting, the \
     default), $(b,pipe) (in-process framed duplex queue) or $(b,tcp) (loopback TCP socket \
     pair). Communication tallies are bit-identical across all three; pipe and tcp \
     additionally move every declared transfer through length+CRC32 framing with \
     timeout/retry protection."
  in
  Arg.(value
    & opt (enum [ ("sim", `Sim); ("pipe", `Pipe); ("tcp", `Tcp) ]) `Sim
    & info [ "transport" ] ~docv:"BACKEND" ~doc)

let chaos_arg =
  let doc =
    "Deterministic fault injection on the transport (requires --transport pipe or tcp). \
     $(docv) is in the fault grammar shared with --malicious and --fault: comma-separated \
     $(b,kind:n) entries, blanks around an entry ignored. Here each entry is a burst of n \
     frames with kind one of drop, duplicate (or dup), corrupt, delay, disconnect — e.g. \
     $(b,drop:3,delay:5) drops a burst of 3 \
     frames and delays a burst of 5; $(b,disconnect:40) kills the channel at message 40. \
     Burst positions are derived from --chaos-seed."
  in
  Arg.(value & opt (some string) None & info [ "chaos" ] ~docv:"SPEC" ~doc)

let chaos_seed_arg =
  let doc = "Seed for the chaos schedule layout (burst positions, corrupted bit choices)." in
  Arg.(value & opt int64 1L & info [ "chaos-seed" ] ~docv:"N" ~doc)

let malicious_arg =
  let doc =
    "Deterministic Byzantine-peer simulation on the transport (requires --transport \
     pipe or tcp). $(docv) is in the fault grammar shared with --chaos and --fault: \
     comma-separated $(b,kind:i) entries, each a mutation with kind one of truncate, \
     extend, retag, replay, reorder, splice, length-lie (or lie), applied at global \
     message index i — e.g. $(b,retag:3,length-lie:12). Unlike --chaos, each \
     mutation is re-encoded with a valid CRC, so it reaches the typed envelope and the \
     protocol state machine; a rejected run exits 7 with a typed protocol violation. \
     Mutation randomness is derived from --chaos-seed."
  in
  Arg.(value & opt (some string) None & info [ "malicious" ] ~docv:"SPEC" ~doc)

let deadline_arg =
  let doc =
    "Wall-clock budget for the whole query, in seconds. An expired deadline cancels \
     (never kills) the run cooperatively — at the next phase boundary, batch-item \
     claim, or transport wait — and exits 5 with a typed error; with \
     $(b,--checkpoint-dir) the cancelled run leaves a resumable checkpoint. Transport \
     retries and backoffs cap their own waits by the remaining budget."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let memory_budget_arg =
  let doc =
    "Memory budget for the query, in MiB of major heap (sampled from GC statistics at \
     every cancellation check). An over-budget query is cancelled exactly like an \
     expired deadline (exit 5)."
  in
  Arg.(value & opt (some float) None & info [ "memory-budget" ] ~docv:"MIB" ~doc)

let fault_arg =
  let doc =
    "Deterministic in-process fault injection in the batch engine (the compute-side \
     sibling of --chaos). $(docv) is in the fault grammar shared with --chaos and \
     --malicious: comma-separated $(b,raise:ITEM), $(b,hang:ITEM:SECS), or \
     $(b,alloc:ITEM:MIB) entries (at least one), with ITEM a global batch-item index \
     — e.g. $(b,raise:12) makes item 12 raise (exit 6, supervision error), \
     $(b,hang:12:30) hangs it (the watching caller detects it after \
     --hang-timeout), $(b,alloc:12:256) allocates 256 MiB against --memory-budget. \
     Implies a watched pool (default --hang-timeout 10)."
  in
  Arg.(value & opt (some string) None & info [ "fault" ] ~docv:"SPEC" ~doc)

let hang_timeout_arg =
  let doc =
    "Watch the batch pool for hangs: --domains workers claim batch items while the \
     caller watches, and a worker silent for $(docv) while holding an item is declared \
     hung, the batch fails typed (exit 6), and the engine falls back to sequential \
     execution for the rest of the process. Defaults to 10 when --fault, --deadline \
     or --memory-budget is given; otherwise the pool is unwatched."
  in
  Arg.(value & opt (some float) None & info [ "hang-timeout" ] ~docv:"SECONDS" ~doc)

let checkpoint_dir_arg =
  let doc =
    "Write a durable protocol-state checkpoint into $(docv) at every phase/operator \
     boundary. A run killed mid-protocol can then be restarted with $(b,--resume); the \
     resumed run's results, communication tallies, and round counts are bit-identical to \
     an uninterrupted run. Only single-protocol queries (q3, q10, q18, --sql) are \
     checkpointable."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc)

let resume_arg =
  let doc =
    "Resume from the latest checkpoint in --checkpoint-dir (fresh start when the \
     directory is empty). A corrupted or query-mismatched checkpoint is rejected with a \
     typed error (exit 4), never silently loaded."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

(* Build the resilient channel requested on the command line ([None] for
   the pure simulation). Distinct from the protocol seed on purpose:
   faults must be reproducible independently of the data. *)
let make_transport transport chaos chaos_seed malicious =
  let module Chaos = Secyan_net.Chaos in
  match (transport, chaos, malicious) with
  | `Sim, None, None -> Ok None
  | `Sim, Some _, _ -> Error "--chaos requires --transport pipe or tcp"
  | `Sim, None, Some _ -> Error "--malicious requires --transport pipe or tcp"
  | ((`Pipe | `Tcp) as backend), _, _ -> (
      (* --malicious sits closest to the raw channel (its mutations are
         semantically wrong but CRC-valid frames); --chaos line faults
         layer above it. *)
      let parse layout = function
        | None -> Ok []
        | Some s -> Result.map (fun spec -> [ (layout, spec) ]) (Chaos.parse_spec ~layout s)
      in
      match (parse Chaos.Indexed malicious, parse Chaos.Bursts chaos) with
      | Error e, _ | _, Error e -> Error e
      | Ok inner, Ok outer ->
          let raw, config =
            match backend with
            | `Pipe -> (Secyan_net.Transport.inproc (), Secyan_net.Resilient.default_config)
            | `Tcp ->
                ( Secyan_net.Transport.tcp (),
                  { Secyan_net.Resilient.default_config with sleep = Unix.sleepf } )
          in
          let raw =
            List.fold_left
              (fun raw (layout, spec) -> fst (Chaos.wrap ~seed:chaos_seed ~layout ~spec raw))
              raw (inner @ outer)
          in
          Ok (Some (Secyan_net.Resilient.create ~config ~seed:chaos_seed raw)))

let print_checkpoint_stats ctx = function
  | None -> ()
  | Some sink ->
      let totals = Context.counter_totals ctx in
      let get c = totals.(Trace_sink.counter_index c) in
      Fmt.pr "checkpoints: %d written (%d bytes) in %s%s@."
        (get Trace_sink.Checkpoints_written) (get Trace_sink.Checkpoint_bytes)
        sink.Checkpoint.dir
        (match sink.Checkpoint.resumed_from with
        | None -> ""
        | Some epoch -> Printf.sprintf ", resumed from epoch %d" epoch)

(* Retries, timeouts and corrupt frames are read from the run's ledger
   (restored work included after --resume); transfers and dropped
   duplicates exist only in the transport's own stats. *)
let print_transport_stats ctx = function
  | None -> ()
  | Some tr ->
      let s = Secyan_net.Resilient.stats tr in
      let ledger = Context.counter_totals ctx in
      let count c = ledger.(Trace_sink.counter_index c) in
      Fmt.pr "transport: %s, %d transfers, %d retries, %d timeouts, %d corrupt frames, \
              %d duplicates dropped@."
        (Secyan_net.Resilient.kind tr) s.Secyan_net.Resilient.transfers
        (count Trace_sink.Retries) (count Trace_sink.Timeouts)
        (count Trace_sink.Frames_corrupted) s.Secyan_net.Resilient.duplicates_dropped

(* Run [f] under a tracer when [--trace] or [--metrics] is given. The
   finished tree lands in [tree] (also when [f] raises, so the metrics
   export sees every phase that ran) and is exported for [--trace].
   Untraced runs call [f] directly (no sink installed at all). *)
let traced ?(name = "query") ~tree ~metrics trace trace_out ctx f =
  if trace = None && not metrics then f ()
  else begin
    let tracer = Secyan_obs.Trace.create ~name () in
    Secyan_obs.Trace.attach tracer ctx;
    let result =
      Fun.protect ~finally:(fun () -> tree := Some (Secyan_obs.Trace.finish tracer)) f
    in
    let root = Option.get !tree in
    Option.iter
      (fun format ->
        let export ppf =
          match format with
          | `Pretty -> Secyan_obs.Export.pretty ppf root
          | `Chrome -> Format.fprintf ppf "%s@." (Secyan_obs.Export.chrome_string root)
          | `Jsonl -> Secyan_obs.Export.jsonl ppf root
        in
        match trace_out with
        | None ->
            Fmt.pr "@.";
            export Format.std_formatter;
            Format.pp_print_flush Format.std_formatter ()
        | Some file ->
            let oc = open_out file in
            let ppf = Format.formatter_of_out_channel oc in
            export ppf;
            Format.pp_print_flush ppf ();
            close_out oc;
            Fmt.pr "trace written to %s@." file)
      trace;
    result
  end

let resolve_sf scale sf =
  match sf, scale with
  | Some sf, _ -> sf
  | None, Some preset -> Secyan_tpch.Datagen.preset_sf preset
  | None, None -> Secyan_tpch.Datagen.preset_sf "xs"

(* --- run ----------------------------------------------------------- *)

(* The protocol query behind each figure query: q8 and q9 are
   compositions of several runs, represented here by one inner run
   (q8's numerator, q9's volume for one nation). *)
let figure_protocol d = function
  | `Q3 -> Secyan_tpch.Queries.q3 d
  | `Q10 -> Secyan_tpch.Queries.q10 d
  | `Q18 -> Secyan_tpch.Queries.q18 d
  | `Q8 -> Secyan_tpch.Queries.q8_inner d ~numerator:true
  | `Q9 -> Secyan_tpch.Queries.q9_inner d ~nationkey:2 ~volume:true

(* The TPC-H tables for [run --sql]: odd tables to Alice, even to Bob,
   the worst-case partition. *)
let sql_catalog d =
  List.mapi
    (fun i (name, relation) ->
      ( name,
        { Secyan_sql.Compiler.relation;
          owner = (if i mod 2 = 0 then Party.Alice else Party.Bob) } ))
    [
      ("customer", d.Secyan_tpch.Datagen.customer);
      ("orders", d.Secyan_tpch.Datagen.orders);
      ("lineitem", d.Secyan_tpch.Datagen.lineitem);
      ("part", d.Secyan_tpch.Datagen.part);
      ("supplier", d.Secyan_tpch.Datagen.supplier);
      ("partsupp", d.Secyan_tpch.Datagen.partsupp);
      ("nation", d.Secyan_tpch.Datagen.nation);
    ]

(* [Relation.nonzero] preserves physical order, which for ordered
   queries is the query order produced by the oblivious sort. *)
let print_rows (q : Secyan.Query.t) (r : Relation.t) =
  let rows =
    List.filter_map
      (fun (t, a) -> Option.map (fun v -> (t, v)) (Semiring.to_value q.Secyan.Query.semiring a))
      (Relation.nonzero r)
  in
  Fmt.pr "%d result rows:@." (List.length rows);
  List.iteri
    (fun i (t, v) ->
      if i < 25 then Fmt.pr "  %a -> %Ld@." Tuple.pp t v
      else if i = 25 then Fmt.pr "  ... (%d more)@." (List.length rows - 25))
    rows

let print_cost (tally : Comm.tally) seconds =
  Fmt.pr "@.cost: %.3f s, %.2f MB (%d bits A->B, %d bits B->A), %d rounds@." seconds
    (Comm.total_megabytes tally) tally.Comm.alice_to_bob_bits tally.Comm.bob_to_alice_bits
    tally.Comm.rounds

(* Print the verdict of a plaintext cross-check; its exit code. *)
let verdict ?(ordered = false) ok =
  Fmt.pr "verify vs plaintext%s: %s@." (if ordered then " (ordered)" else "")
    (if ok then "OK" else "MISMATCH");
  if ok then 0 else 1

(* Check a protocol query's revealed result against the plaintext
   oracle: ordered queries row-for-row in query order, unordered ones as
   sorted multisets. *)
let verify_query (q : Secyan.Query.t) revealed =
  let expected = Secyan.Query.plaintext q in
  let ordered = Secyan.Query.has_order q in
  verdict ~ordered
    (if ordered then
       List.map (fun (t, a) -> (Tuple.repr t, a)) (Secyan.Query.ordered_rows q expected)
       = List.map (fun (t, a) -> (Tuple.repr t, a)) (Relation.nonzero revealed)
     else Secyan_fuzz.Oracle.content q expected = Secyan_fuzz.Oracle.content q revealed)

(* Validate the checkpoint flags and build the sink. Compositions (q8,
   q9) run several protocol executions over one context, so a single
   checkpoint stream cannot name their restart point — refuse up front
   instead of resuming wrongly. *)
let make_checkpoint source checkpoint_dir resume =
  let checkpointable =
    match source with `Sql _ | `Query (`Q3 | `Q10 | `Q18) -> true | `Query (`Q8 | `Q9) -> false
  in
  match (checkpoint_dir, resume) with
  | None, true -> Error "--resume requires --checkpoint-dir"
  | Some _, _ when not checkpointable ->
      Error
        "--checkpoint-dir supports the single-protocol queries (q3, q10, q18, --sql); q8 \
         and q9 are compositions of several protocol runs"
  | dir, _ -> Ok (Option.map (fun dir -> Checkpoint.sink ~dir ()) dir)

(* What [run] executes: one protocol query (a figure query or compiled
   SQL), or one of the two compositions. *)
let job_of d = function
  | `Query `Q8 -> Ok `Q8
  | `Query `Q9 -> Ok `Q9
  | `Query ((`Q3 | `Q10 | `Q18) as fq) -> Ok (`Protocol (figure_protocol d fq))
  | `Sql statement -> (
      match Secyan_sql.Compiler.query (sql_catalog d) statement with
      | q -> Ok (`Protocol q)
      | exception Secyan_sql.Compiler.Error msg -> Error ("SQL error: " ^ msg)
      | exception Secyan_sql.Parser.Error e ->
          Error ("parse error: " ^ Secyan_sql.Parser.error_message e))

let run_cmd query sql scale sf seed backend domains transport chaos chaos_seed malicious
    checkpoint_dir resume deadline memory_budget fault hang_timeout verify trace trace_out
    metrics metrics_out progress progress_out =
  let ( let* ) = Result.bind in
  let labelled label = Result.map_error (fun msg -> label ^ ": " ^ msg) in
  match
    let* source =
      match (query, sql) with
      | Some q, None -> Ok (`Query q)
      | None, Some statement -> Ok (`Sql statement)
      | _ -> Error "usage error: give exactly one of --query and --sql"
    in
    let* tr = labelled "transport error" (make_transport transport chaos chaos_seed malicious) in
    let* ck = labelled "checkpoint error" (make_checkpoint source checkpoint_dir resume) in
    let* fault_spec =
      match fault with
      | None -> Ok None
      | Some s -> labelled "fault error" (Result.map Option.some (Fault_inject.parse_spec s))
    in
    Ok (source, tr, ck, fault_spec)
  with
  | Error msg ->
      Fmt.epr "%s@." msg;
      2
  | Ok (source, tr, ck, fault_spec) ->
  let sf = resolve_sf scale sf in
  let d = Secyan_tpch.Datagen.generate ~sf ~seed in
  Fmt.pr "dataset: sf=%g (%d total rows)@." sf (Secyan_tpch.Datagen.total_rows d);
  match job_of d source with
  | Error msg ->
      Fmt.epr "%s@." msg;
      Option.iter Secyan_net.Resilient.close tr;
      1
  | Ok job ->
  (* The robustness layer: a cancel token carrying the deadline/memory
     budget, and a watched pool whenever any of the fault-tolerance flags
     is in play (watching changes no result, only how failures
     surface). *)
  let cancel =
    match (deadline, memory_budget) with
    | None, None -> Secyan_deadline.never ()
    | timeout_s, memory_budget_mb -> Secyan_deadline.create ?timeout_s ?memory_budget_mb ()
  in
  let hang_timeout_s =
    if hang_timeout = None && (fault_spec <> None || deadline <> None || memory_budget <> None)
    then Some 10.
    else hang_timeout
  in
  Option.iter Fault_inject.arm fault_spec;
  (* the query's annotation ring; the compositions use the TPC-H one *)
  let bits =
    match job with
    | `Protocol q -> Semiring.bits q.Secyan.Query.semiring
    | `Q8 | `Q9 -> Secyan_tpch.Queries.ring_bits
  in
  let ctx =
    Context.create ~bits ~gc_backend:backend ~domains ?transport:tr ?checkpoint:ck ~cancel
      ?hang_timeout_s ~seed ()
  in
  (* the run's span tree, whose phase spans the metrics export reads *)
  let tree = ref None in
  let traced ~name f = traced ~name ~tree ~metrics:(metrics <> None) trace trace_out ctx f in
  (* Attach the live progress reporter around one protocol execution
     (inside the tracer, so it forwards events to it). [total], the
     AND-gate estimate, is forced only when a reporter is attached. *)
  let observed ?total f =
    let heartbeat = Option.map open_out progress_out in
    let reporter =
      if progress || heartbeat <> None then
        let total = Option.map Lazy.force total in
        Some (Secyan_obs.Progress.attach ?total ~render:progress ?heartbeat ctx)
      else None
    in
    Fun.protect
      ~finally:(fun () ->
        Option.iter Secyan_obs.Progress.detach reporter;
        Option.iter close_out heartbeat)
      f
  in
  let export_metrics () =
    match metrics with
    | None -> ()
    | Some format ->
        let format =
          match format with
          | `Pretty -> Secyan_obs.Metrics.Pretty
          | `Jsonl -> Secyan_obs.Metrics.Jsonl
          | `Prometheus -> Secyan_obs.Metrics.Prometheus
        in
        (match metrics_out with
        | None ->
            Fmt.pr "@.";
            Secyan_obs.Metrics.export ?trace:!tree ~ledger:ctx format Format.std_formatter
        | Some file ->
            let oc = open_out file in
            Secyan_obs.Metrics.export ?trace:!tree ~ledger:ctx format
              (Format.formatter_of_out_channel oc);
            close_out oc;
            Fmt.pr "metrics written to %s@." file)
  in
  let execute = function
    | `Protocol q ->
        Fmt.pr "query %s, join tree %a (root %s)@." q.Secyan.Query.name Join_tree.pp
          q.Secyan.Query.tree (Join_tree.root q.Secyan.Query.tree);
        let total = lazy (Secyan.Secure_yannakakis.estimate_and_gates ctx q) in
        let revealed, stats =
          traced ~name:q.Secyan.Query.name (fun () ->
              observed ~total (fun () -> Secyan.Secure_yannakakis.run ~resume ctx q))
        in
        if Secyan.Query.has_order q then
          Fmt.pr "top-k phase: rows below are in query order (ORDER BY%s)@."
            (match q.Secyan.Query.limit with
            | Some k -> Printf.sprintf ", LIMIT %d" k
            | None -> "");
        print_rows q revealed;
        print_cost stats.Secyan.Secure_yannakakis.tally stats.Secyan.Secure_yannakakis.seconds;
        if verify then verify_query q revealed else 0
    | `Q8 ->
        let r =
          traced ~name:"q8" (fun () ->
              observed (fun () -> Secyan_tpch.Queries.run_q8 ctx d))
        in
        Fmt.pr "market share per year (x1000):@.";
        List.iter (fun (y, v) -> Fmt.pr "  %d -> %Ld@." y v) r.Secyan_tpch.Queries.shares_per_year;
        print_cost r.Secyan_tpch.Queries.tally r.Secyan_tpch.Queries.seconds;
        if verify then
          verdict (Secyan_tpch.Queries.q8_plaintext d = r.Secyan_tpch.Queries.shares_per_year)
        else 0
    | `Q9 ->
        let r =
          traced ~name:"q9" (fun () ->
              observed (fun () -> Secyan_tpch.Queries.run_q9 ctx d))
        in
        let rows = List.filter (fun (_, _, a) -> a <> 0) r.Secyan_tpch.Queries.rows in
        Fmt.pr "profit per (nation, year), cents:@.";
        List.iter (fun (n, y, a) -> Fmt.pr "  nation %2d, %d -> %d@." n y a) rows;
        print_cost r.Secyan_tpch.Queries.tally r.Secyan_tpch.Queries.seconds;
        if verify then
          verdict
            (List.sort compare (Secyan_tpch.Queries.q9_plaintext d) = List.sort compare rows)
        else 0
  in
  let finish code =
    (match fault_spec with
    | None -> ()
    | Some _ ->
        List.iter
          (fun (item, f) ->
            Fmt.pr "fault fired: %s at item %d@." (Fault_inject.fault_to_string f) item)
          (Fault_inject.fired ());
        Fault_inject.disarm ());
    print_transport_stats ctx tr;
    print_checkpoint_stats ctx ck;
    export_metrics ();
    Context.close_transport ctx;
    Context.shutdown_pool ctx;
    code
  in
  let checkpoint_hint () =
    match checkpoint_dir with
    | Some dir -> Fmt.epr "resumable checkpoint in %s (rerun with --resume)@." dir
    | None -> ()
  in
  try finish (execute job) with
  | Secyan_net.Resilient.Transport_error { kind; attempts; elapsed; detail } ->
    (* The protocol surfaced a typed, unrecoverable channel fault instead
       of hanging or producing a wrong answer; report it cleanly. *)
    Fmt.epr "transport failure: %s after %d attempt%s in %.3f s (%s)@."
      (Secyan_net.Resilient.error_kind_name kind)
      attempts
      (if attempts = 1 then "" else "s")
      elapsed detail;
    finish 3
  | Checkpoint.Checkpoint_error { path; kind; detail } ->
    (* A damaged or mismatched checkpoint is rejected typed, never
       silently loaded. *)
    Fmt.epr "checkpoint failure: %s in %s (%s)@." (Checkpoint.error_kind_name kind) path
      detail;
    finish 4
  | Secyan_net.Resilient.Resume_mismatch
      { alice_session; alice_epoch; alice_version; bob_session; bob_epoch; bob_version } ->
    Fmt.epr
      "checkpoint failure: session-resume handshake mismatch (alice %s epoch %d v%d, bob %s \
       epoch %d v%d)@."
      alice_session alice_epoch alice_version bob_session bob_epoch bob_version;
    finish 4
  | Protocol_schema.Protocol_violation { phase; expected; got; offset } ->
    (* The peer sent traffic the protocol state machine forbids in the
       current phase. The run stops typed — never a hang, never a wrong
       answer accepted — with a resumable checkpoint behind it. *)
    Fmt.epr
      "protocol violation: in phase %s expected %s but got %s (offset %d); peer is \
       misbehaving or incompatible@."
      phase expected got offset;
    checkpoint_hint ();
    finish 7
  | Secyan_deadline.Cancelled { reason; where } ->
    (* The query was cancelled cooperatively — deadline, memory budget,
       or explicit — with state intact and, when checkpointing, a
       resumable snapshot of everything completed. *)
    Fmt.epr "query cancelled at %s: %s@." where (Secyan_deadline.reason_to_string reason);
    checkpoint_hint ();
    finish 5
  | Gc_protocol.Supervision_error { phase; item; cause } ->
    (* A batch failed typed: the batch is quiescent, arenas were reset,
       and the engine degrades to sequential execution if the pool was
       poisoned — never a hang, never corrupted state. *)
    Fmt.epr "supervision failure in %s (item %d): %s@." phase item
      (Gc_protocol.supervision_cause_to_string cause);
    checkpoint_hint ();
    finish 6

(* --- plan ---------------------------------------------------------- *)

let plan_cmd query scale sf seed =
  let sf = resolve_sf scale sf in
  let q = figure_protocol (Secyan_tpch.Datagen.generate ~sf ~seed) query in
  Fmt.pr "query %s@." q.Secyan.Query.name;
  Fmt.pr "join tree: %a (root %s)@." Join_tree.pp q.Secyan.Query.tree
    (Join_tree.root q.Secyan.Query.tree);
  Fmt.pr "output attributes: %a@." Schema.pp q.Secyan.Query.output;
  List.iter
    (fun (label, (i : Secyan.Query.input)) ->
      Fmt.pr "  %-10s %a  %d tuples, owner %a@." label Schema.pp
        i.Secyan.Query.relation.Relation.schema
        (Relation.cardinality i.Secyan.Query.relation)
        Party.pp i.Secyan.Query.owner)
    q.Secyan.Query.inputs;
  Fmt.pr "@.protocol plan:@.";
  List.iter
    (fun op ->
      match (op : Yannakakis.phase_op) with
      | Yannakakis.Fold { child; parent; group_on } ->
          Fmt.pr "  reduce:   %s <- %s x aggregate%a(%s); %s removed@." parent parent
            Schema.pp group_on child child
      | Yannakakis.Stop { node; group_on } ->
          Fmt.pr "  reduce:   %s <- aggregate%a(%s)@." node Schema.pp group_on node
      | Yannakakis.Root_project { node; group_on } ->
          Fmt.pr "  reduce:   %s <- aggregate%a(%s) (root projection)@." node Schema.pp
            group_on node
      | Yannakakis.Semijoin_up { child; parent } ->
          Fmt.pr "  semijoin: %s <- %s semijoin %s@." parent parent child
      | Yannakakis.Semijoin_down { child; parent } ->
          Fmt.pr "  semijoin: %s <- %s semijoin %s@." child child parent
      | Yannakakis.Join_up { child; parent } ->
          Fmt.pr "  join:     %s <- %s join %s@." parent parent child)
    (Yannakakis.plan q.Secyan.Query.tree ~output:q.Secyan.Query.output);
  Fmt.pr "  join:     oblivious full join over the remaining subtree@.";
  0

(* --- estimate ------------------------------------------------------ *)

let estimate_cmd query scale sf seed =
  let sf = resolve_sf scale sf in
  let q = figure_protocol (Secyan_tpch.Datagen.generate ~sf ~seed) query in
  (* the inner run repeats: q8 once per numerator/denominator, q9 once
     per nation and measure *)
  let runs = match query with `Q8 -> 2 | `Q9 -> 50 | `Q3 | `Q10 | `Q18 -> 1 in
  let e = Secyan_smcql.Cartesian_gc.estimate q in
  let f = float_of_int runs in
  Fmt.pr "garbled-circuit baseline for %s (x%d runs):@." q.Secyan.Query.name runs;
  Fmt.pr "  Cartesian product rows: %.3g@." (e.Secyan_smcql.Cartesian_gc.product_rows *. f);
  Fmt.pr "  AND gates per row:      %d@." e.Secyan_smcql.Cartesian_gc.and_gates_per_row;
  Fmt.pr "  total AND gates:        %.3g@." (e.Secyan_smcql.Cartesian_gc.total_and_gates *. f);
  Fmt.pr "  communication:          %.3g MB@."
    (e.Secyan_smcql.Cartesian_gc.comm_bytes *. f /. (1024. *. 1024.));
  Fmt.pr "  estimated time:         %.3g s (%.1f years)@."
    (e.Secyan_smcql.Cartesian_gc.seconds *. f)
    (e.Secyan_smcql.Cartesian_gc.seconds *. f /. (365.25 *. 86400.));
  0

(* --- generate ------------------------------------------------------ *)

let generate_cmd scale sf seed =
  let sf = resolve_sf scale sf in
  let d = Secyan_tpch.Datagen.generate ~sf ~seed in
  Fmt.pr "TPC-H dataset at sf=%g (seed %Ld):@." sf seed;
  List.iter
    (fun (name, (r : Relation.t)) ->
      Fmt.pr "  %-10s %6d rows  %a@." name (Relation.cardinality r) Schema.pp
        r.Relation.schema)
    [
      ("customer", d.Secyan_tpch.Datagen.customer);
      ("orders", d.Secyan_tpch.Datagen.orders);
      ("lineitem", d.Secyan_tpch.Datagen.lineitem);
      ("part", d.Secyan_tpch.Datagen.part);
      ("supplier", d.Secyan_tpch.Datagen.supplier);
      ("partsupp", d.Secyan_tpch.Datagen.partsupp);
      ("nation", d.Secyan_tpch.Datagen.nation);
    ];
  Fmt.pr "  total: %d rows@." (Secyan_tpch.Datagen.total_rows d);
  0

(* --- fuzz ----------------------------------------------------------- *)

let fuzz_cases_arg =
  let doc = "Number of random instances to generate and check." in
  Arg.(value & opt int 100 & info [ "cases" ] ~docv:"N" ~doc)

let fuzz_audit_arg =
  let doc =
    "Additionally run the obliviousness auditor on every instance: execute the protocol \
     twice on same-shape different-content databases and demand bit-identical \
     communication tallies, round counts, and trace counter streams."
  in
  Arg.(value & flag & info [ "audit-obliviousness" ] ~doc)

let fuzz_out_arg =
  let doc = "Write shrunk failing instances as a replayable seed file to $(docv)." in
  Arg.(value & opt string "fuzz-failures.seeds" & info [ "out" ] ~docv:"FILE" ~doc)

let fuzz_replay_arg =
  let doc = "Replay the seed file $(docv) (produced by --out) instead of generating." in
  Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)

let print_failure (f : Secyan_fuzz.Runner.failure) =
  let kind = match f.Secyan_fuzz.Runner.kind with `Oracle -> "oracle" | `Audit -> "audit" in
  Fmt.epr "%s failure (seed %Ld case %d, shrunk in %d steps):@." kind
    f.Secyan_fuzz.Runner.entry.Secyan_fuzz.Corpus.seed
    f.Secyan_fuzz.Runner.entry.Secyan_fuzz.Corpus.case f.Secyan_fuzz.Runner.shrink_steps;
  List.iter (fun d -> Fmt.epr "  %s@." d) f.Secyan_fuzz.Runner.details

let fuzz_replay path audit =
  match Secyan_fuzz.Corpus.load path with
  | exception Secyan_fuzz.Corpus.Malformed msg ->
      Fmt.epr "malformed seed file %s: %s@." path msg;
      2
  | exception Sys_error msg ->
      Fmt.epr "cannot read seed file: %s@." msg;
      2
  | entries ->
      let failed = ref 0 in
      List.iter
        (fun (e : Secyan_fuzz.Corpus.entry) ->
          match Secyan_fuzz.Runner.replay ~audit e with
          | [] ->
              Fmt.pr "seed %Ld case %d: ok@." e.Secyan_fuzz.Corpus.seed
                e.Secyan_fuzz.Corpus.case
          | details ->
              incr failed;
              Fmt.epr "seed %Ld case %d: FAIL@." e.Secyan_fuzz.Corpus.seed
                e.Secyan_fuzz.Corpus.case;
              List.iter (fun d -> Fmt.epr "  %s@." d) details)
        entries;
      Fmt.pr "replayed %d entries, %d failing@." (List.length entries) !failed;
      if !failed = 0 then 0 else 1

let fuzz_cmd seed cases audit out replay =
  match replay with
  | Some path -> fuzz_replay path audit
  | None ->
      if cases <= 0 then begin
        Fmt.epr "--cases must be positive@.";
        2
      end
      else begin
        let stats = Secyan_fuzz.Runner.run ~audit ~seed ~cases () in
        Fmt.pr
          "fuzz: %d cases in %.1f s (%.1f instances/s), %d also GC-checked, %d audited, \
           %d failures@."
          stats.Secyan_fuzz.Runner.cases stats.Secyan_fuzz.Runner.seconds
          (float_of_int stats.Secyan_fuzz.Runner.cases
          /. Float.max 1e-9 stats.Secyan_fuzz.Runner.seconds)
          stats.Secyan_fuzz.Runner.gc_checked stats.Secyan_fuzz.Runner.audits_run
          (List.length stats.Secyan_fuzz.Runner.failures);
        match stats.Secyan_fuzz.Runner.failures with
        | [] -> 0
        | failures ->
            List.iter print_failure failures;
            Secyan_fuzz.Corpus.save out
              (List.map (fun f -> f.Secyan_fuzz.Runner.entry) failures);
            Fmt.epr "replayable seed file written to %s@." out;
            1
      end

(* --- peer-fuzz ------------------------------------------------------ *)

let peer_fuzz_cases_arg =
  let doc = "Number of adversarial peer cases to run." in
  Arg.(value & opt int 200 & info [ "cases" ] ~docv:"N" ~doc)

let peer_fuzz_deadline_arg =
  let doc =
    "Per-case deadline in seconds; a mutated run still alive past it counts as a hang \
     and fails the campaign."
  in
  Arg.(value & opt float 10. & info [ "case-deadline" ] ~docv:"SECONDS" ~doc)

let peer_fuzz_resume_arg =
  let doc =
    "Verify checkpoint-resume bit-identity on every $(docv)-th violation-producing case \
     (0 disables)."
  in
  Arg.(value & opt int 25 & info [ "resume-every" ] ~docv:"N" ~doc)

let peer_fuzz_out_arg =
  let doc =
    "Write failing cases (seed, case, mutation spec) to $(docv), replayable with \
     $(b,run --malicious)."
  in
  Arg.(value & opt string "peer-fuzz-failures.txt" & info [ "out" ] ~docv:"FILE" ~doc)

let print_peer_failure (f : Secyan_fuzz.Peer_oracle.case_report) =
  Fmt.epr "case %d: %s (spec %s, injected %s)@.  %s@." f.Secyan_fuzz.Peer_oracle.case
    (Secyan_fuzz.Peer_oracle.outcome_name f.Secyan_fuzz.Peer_oracle.outcome)
    (if f.Secyan_fuzz.Peer_oracle.spec = "" then "-" else f.Secyan_fuzz.Peer_oracle.spec)
    (if f.Secyan_fuzz.Peer_oracle.injected = "" then "-"
     else f.Secyan_fuzz.Peer_oracle.injected)
    f.Secyan_fuzz.Peer_oracle.detail

let save_peer_failures out seed (failures : Secyan_fuzz.Peer_oracle.case_report list) =
  let oc = open_out out in
  output_string oc "# secyan peer-fuzz failing cases: seed case spec outcome detail\n";
  List.iter
    (fun (f : Secyan_fuzz.Peer_oracle.case_report) ->
      Printf.fprintf oc "%Ld %d %s %s %s\n" seed f.Secyan_fuzz.Peer_oracle.case
        (if f.Secyan_fuzz.Peer_oracle.spec = "" then "-" else f.Secyan_fuzz.Peer_oracle.spec)
        (Secyan_fuzz.Peer_oracle.outcome_name f.Secyan_fuzz.Peer_oracle.outcome)
        f.Secyan_fuzz.Peer_oracle.detail)
    failures;
  close_out oc

let peer_fuzz_cmd seed cases deadline_s resume_every out =
  if cases <= 0 then begin
    Fmt.epr "--cases must be positive@.";
    2
  end
  else begin
    let stats =
      Secyan_fuzz.Peer_oracle.campaign ~deadline_s ~resume_every ~seed ~cases ()
    in
    Fmt.pr
      "peer-fuzz: %d cases in %.1f s (%.1f cases/s): %d correct, %d protocol \
       violations, %d transport faults, %d resume bit-identity checks, %d failures@."
      stats.Secyan_fuzz.Peer_oracle.cases stats.Secyan_fuzz.Peer_oracle.seconds
      (float_of_int stats.Secyan_fuzz.Peer_oracle.cases
      /. Float.max 1e-9 stats.Secyan_fuzz.Peer_oracle.seconds)
      stats.Secyan_fuzz.Peer_oracle.correct stats.Secyan_fuzz.Peer_oracle.violations
      stats.Secyan_fuzz.Peer_oracle.transport_faults
      stats.Secyan_fuzz.Peer_oracle.resumes_checked
      (List.length stats.Secyan_fuzz.Peer_oracle.failures);
    match stats.Secyan_fuzz.Peer_oracle.failures with
    | [] -> 0
    | failures ->
        List.iter print_peer_failure failures;
        save_peer_failures out seed failures;
        Fmt.epr "failing cases written to %s@." out;
        1
  end

(* --- command wiring ------------------------------------------------- *)

let run_t =
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a figure query (--query) or an ad-hoc SQL statement (--sql) through the \
          secure Yannakakis protocol")
    Term.(const run_cmd $ run_query_arg $ sql_arg $ scale_arg $ sf_arg $ seed_arg $ backend_arg
          $ domains_arg $ transport_arg $ chaos_arg $ chaos_seed_arg $ malicious_arg
          $ checkpoint_dir_arg $ resume_arg $ deadline_arg $ memory_budget_arg
          $ fault_arg $ hang_timeout_arg $ verify_arg $ trace_arg $ trace_out_arg
          $ metrics_arg $ metrics_out_arg $ progress_arg $ progress_out_arg)

let plan_t =
  Cmd.v (Cmd.info "plan" ~doc:"Show a query's join tree and protocol plan")
    Term.(const plan_cmd $ query_arg $ scale_arg $ sf_arg $ seed_arg)

let estimate_t =
  Cmd.v (Cmd.info "estimate" ~doc:"Estimate the garbled-circuit baseline cost")
    Term.(const estimate_cmd $ query_arg $ scale_arg $ sf_arg $ seed_arg)

let generate_t =
  Cmd.v (Cmd.info "generate" ~doc:"Show TPC-H dataset sizes at a scale")
    Term.(const generate_cmd $ scale_arg $ sf_arg $ seed_arg)

let fuzz_t =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random free-connex instances checked across the naive, \
          plaintext-Yannakakis, secure (sim and pipe), and cartesian-GC executors, with \
          an optional obliviousness audit; failures shrink to a replayable seed file")
    Term.(const fuzz_cmd $ seed_arg $ fuzz_cases_arg $ fuzz_audit_arg $ fuzz_out_arg
          $ fuzz_replay_arg)

let peer_fuzz_t =
  Cmd.v
    (Cmd.info "peer-fuzz"
       ~doc:
         "Adversarial peer fuzzing: replay honest transcripts under seeded Byzantine \
          wire mutations (truncations, retags, replays, cross-phase splices, length \
          lies) and hold the honest party to the hardening invariant — terminate within \
          its deadline and memory budget with either the correct output or a typed \
          protocol violation, never a crash, hang, or silently accepted wrong answer; \
          a sampled subset of violations additionally verifies checkpoint-resume \
          bit-identity")
    Term.(const peer_fuzz_cmd $ seed_arg $ peer_fuzz_cases_arg $ peer_fuzz_deadline_arg
          $ peer_fuzz_resume_arg $ peer_fuzz_out_arg)

let () =
  let doc = "secure Yannakakis: join-aggregate queries over private data" in
  let info = Cmd.info "secyan_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ run_t; plan_t; estimate_t; generate_t; fuzz_t; peer_fuzz_t ]))
