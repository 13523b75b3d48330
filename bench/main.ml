(* Benchmark harness regenerating the paper's evaluation (§8.3).

   Figures 2-6: for each TPC-H query (Q3, Q10, Q18, Q8, Q9) and each
   dataset scale, print the series the paper plots — running time and
   communication of secure Yannakakis, of the garbled-circuit baseline
   (measured at the smallest scale, extrapolated by exact gate count
   elsewhere, as in the paper), and of the non-private plaintext run
   (communication = input size, §8.2).

   Also: design-choice ablations (PSI with clear vs secret-shared
   payloads; real vs simulated garbling) and Bechamel microbenches of the
   primitives. Select sections via argv: figure2..figure6, figures,
   ablations, micro, all. *)

open Secyan_crypto
open Secyan_relational
open Secyan_obs

let seed = 20210618L (* SIGMOD'21 *)

let line fmt = Printf.printf (fmt ^^ "\n%!")

let hrule () = line "%s" (String.make 100 '-')

(* ------------------------------------------------------------------ *)
(* Figure harness *)

type series_point = {
  scale : string;
  eff_kb : float;
  secyan_s : float;
  secyan_mb : float;
  rounds : int;
  gc_s : float;        (* extrapolated *)
  gc_mb : float;
  plain_s : float;
  plain_mb : float;
}

(* ------------------------------------------------------------------ *)
(* Machine-readable results: every section appends JSON records to one
   sink, keyed by output file, and [write_bench_files] writes each file
   that received records at exit under one header (EXPERIMENTS.md
   documents the schemas). *)

let bench_files =
  [
    ("BENCH_1.json", "figures");
    ("BENCH_2.json", "gc-perf");
    ("BENCH_4.json", "checkpoint-overhead");
    ("BENCH_5.json", "fuzz-perf");
    ("BENCH_6.json", "gc-perf");
    ("BENCH_7.json", "gc-perf");
    ("BENCH_10.json", "sort-perf");
  ]

let bench_records : (string, Json.t list) Hashtbl.t = Hashtbl.create 8

let emit file record =
  assert (List.mem_assoc file bench_files);
  let rev = Option.value ~default:[] (Hashtbl.find_opt bench_records file) in
  Hashtbl.replace bench_records file (record :: rev)

let write_bench_files () =
  List.iter
    (fun (path, section) ->
      match Hashtbl.find_opt bench_records path with
      | None -> ()
      | Some rev ->
          let doc =
            Json.Obj
              [
                ("harness", Json.Str "secyan-bench");
                ("section", Json.Str section);
                ("seed", Json.Str (Int64.to_string seed));
                ("cores", Json.Int (Domain.recommended_domain_count ()));
                ("records", Json.List (List.rev rev));
              ]
          in
          let oc = open_out path in
          output_string oc (Json.to_string doc);
          output_char oc '\n';
          close_out oc;
          line "wrote %s (%d records)" path (List.length rev))
    bench_files

(* Depth-1 span breakdown of a traced run: one entry per protocol phase. *)
let phase_breakdown root =
  Json.List
    (List.map
       (fun (c : Span.t) ->
         let t = Span.tally c in
         Json.Obj
           [
             ("name", Json.Str c.Span.name);
             ("seconds", Json.Float c.Span.dur_s);
             ("alice_to_bob_bits", Json.Int t.Comm.alice_to_bob_bits);
             ("bob_to_alice_bits", Json.Int t.Comm.bob_to_alice_bits);
             ("rounds", Json.Int t.Comm.rounds);
           ])
       (Span.children root))

let record ~section ~query ~sf (p : series_point) ~phases =
  emit "BENCH_1.json" @@
    Json.Obj
      [
        ("section", Json.Str section);
        ("query", Json.Str query);
        ("scale", Json.Str p.scale);
        ("sf", Json.Float sf);
        ("eff_input_kb", Json.Float p.eff_kb);
        ("secyan_seconds", Json.Float p.secyan_s);
        ("secyan_mb", Json.Float p.secyan_mb);
        ("rounds", Json.Int p.rounds);
        ("gc_seconds_extrapolated", Json.Float p.gc_s);
        ("gc_mb_extrapolated", Json.Float p.gc_mb);
        ("plain_seconds", Json.Float p.plain_s);
        ("plain_mb", Json.Float p.plain_mb);
        ("phases", phases);
      ]

let print_series title points =
  hrule ();
  line "%s" title;
  hrule ();
  line "%-6s %12s %10s %11s %7s %12s %13s %9s %10s" "scale" "eff-input-KB" "secyan-s"
    "secyan-MB" "rounds" "gc-s(extr.)" "gc-MB(extr.)" "plain-s" "plain-MB";
  List.iter
    (fun p ->
      line "%-6s %12.1f %10.3f %11.2f %7d %12.3g %13.3g %9.4f %10.3f" p.scale p.eff_kb
        p.secyan_s p.secyan_mb p.rounds p.gc_s p.gc_mb p.plain_s p.plain_mb)
    points;
  (* the paper's headline: who wins and by how much at the largest scale *)
  match List.rev points with
  | largest :: _ ->
      line "  -> at %s: garbled circuit / secure yannakakis = %.3gx time, %.3gx communication"
        largest.scale
        (largest.gc_s /. largest.secyan_s)
        (largest.gc_mb /. largest.secyan_mb)
  | [] -> ()

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Calibrate the garbled-circuit baseline once: run the real garbler over
   a few product rows and measure seconds per AND gate. *)
let calibrated_seconds_per_and = ref None

let seconds_per_and q =
  match !calibrated_seconds_per_and with
  | Some s -> s
  | None ->
      let s = Secyan_smcql.Cartesian_gc.calibrate ~seed q ~rows:32 in
      calibrated_seconds_per_and := Some s;
      line "(garbled-circuit baseline calibrated: %.3g s per AND gate, real half-gates garbling)" s;
      s

(* One figure point for a query expressed as a single Query.t. The secure
   run executes under a tracer so the record carries a per-phase
   breakdown; the tracer adds only span bookkeeping to the timed region. *)
let measure_simple_point ~section ~scale ~sf ~(make : Secyan_tpch.Datagen.dataset -> Secyan.Query.t) =
  let d = Secyan_tpch.Datagen.generate ~sf ~seed in
  let q = make d in
  let eff = Secyan_tpch.Queries.effective_input_bytes q in
  let ctx = Secyan_tpch.Queries.context ~seed () in
  let ((_, stats), root), secyan_s =
    time (fun () ->
        Trace.with_tracing ~name:q.Secyan.Query.name ctx (fun () ->
            Secyan.Secure_yannakakis.run ctx q))
  in
  let _, plain_s = time (fun () -> Secyan.Query.plaintext q) in
  let est =
    Secyan_smcql.Cartesian_gc.estimate ~seconds_per_and:(seconds_per_and q) ~kappa:128 q
  in
  let p =
    {
      scale;
      eff_kb = float_of_int eff /. 1024.;
      secyan_s;
      secyan_mb = Comm.total_megabytes stats.Secyan.Secure_yannakakis.tally;
      rounds = stats.Secyan.Secure_yannakakis.tally.Comm.rounds;
      gc_s = est.Secyan_smcql.Cartesian_gc.seconds;
      gc_mb = est.Secyan_smcql.Cartesian_gc.comm_bytes /. (1024. *. 1024.);
      plain_s;
      plain_mb = float_of_int eff /. (1024. *. 1024.);
    }
  in
  record ~section ~query:q.Secyan.Query.name ~sf p ~phases:(phase_breakdown root);
  p

(* Settle the heap between measurement points so that one point's garbage
   does not distort the next point's timing. *)
let settle () = Gc.compact ()

let figure_simple ~section ~title ~make () =
  let points =
    List.map
      (fun (scale, sf) ->
        settle ();
        measure_simple_point ~section ~scale ~sf ~make)
      Secyan_tpch.Datagen.presets
  in
  print_series title points

let figure2 () =
  figure_simple ~section:"figure2" ~title:"Figure 2: TPC-H Query 3"
    ~make:Secyan_tpch.Queries.q3 ()

let figure3 () =
  figure_simple ~section:"figure3" ~title:"Figure 3: TPC-H Query 10"
    ~make:Secyan_tpch.Queries.q10 ()

let figure4 () =
  figure_simple ~section:"figure4" ~title:"Figure 4: TPC-H Query 18"
    ~make:(fun d -> Secyan_tpch.Queries.q18 d)
    ()

(* Q8: two secure runs + a division circuit per year (query composition). *)
let figure5 () =
  let points =
    List.map
      (fun (scale, sf) ->
        settle ();
        let d = Secyan_tpch.Datagen.generate ~sf ~seed in
        let ctx = Secyan_tpch.Queries.context ~seed () in
        let (r, root), secyan_s =
          time (fun () ->
              Trace.with_tracing ~name:"q8" ctx (fun () -> Secyan_tpch.Queries.run_q8 ctx d))
        in
        let _, plain_s = time (fun () -> Secyan_tpch.Queries.q8_plaintext d) in
        let q_num = Secyan_tpch.Queries.q8_inner d ~numerator:true in
        let eff = 2 * Secyan_tpch.Queries.effective_input_bytes q_num in
        let est =
          Secyan_smcql.Cartesian_gc.estimate ~seconds_per_and:(seconds_per_and q_num)
            ~kappa:128 q_num
        in
        let p =
          {
            scale;
            eff_kb = float_of_int eff /. 1024.;
            secyan_s;
            secyan_mb = Comm.total_megabytes r.Secyan_tpch.Queries.tally;
            rounds = r.Secyan_tpch.Queries.tally.Comm.rounds;
            gc_s = 2. *. est.Secyan_smcql.Cartesian_gc.seconds;
            gc_mb = 2. *. est.Secyan_smcql.Cartesian_gc.comm_bytes /. (1024. *. 1024.);
            plain_s;
            plain_mb = float_of_int eff /. (1024. *. 1024.);
          }
        in
        record ~section:"figure5" ~query:"Q8" ~sf p ~phases:(phase_breakdown root);
        p)
      Secyan_tpch.Datagen.presets
  in
  print_series "Figure 5: TPC-H Query 8 (ratio of two sums, composed per section 7)" points

(* Q9: 25 per-nation decompositions x 2 aggregates. The protocol is
   oblivious, so every nation's run costs exactly the same: at the two
   smallest scales all 25 nations are actually executed; above that one
   nation is measured and scaled by 25. *)
let figure6 () =
  let points =
    List.map
      (fun (scale, sf) ->
        settle ();
        let d = Secyan_tpch.Datagen.generate ~sf ~seed in
        let measure_nations nations =
          let ctx = Secyan_tpch.Queries.context ~seed () in
          time (fun () ->
              Trace.with_tracing ~name:"q9" ctx (fun () ->
                  Secyan_tpch.Queries.run_q9 ~nations ctx d))
        in
        let factor, ((r, root), secyan_s) =
          if sf <= 1.5e-4 then
            (1., measure_nations (List.init Secyan_tpch.Datagen.n_nations Fun.id))
          else (float_of_int Secyan_tpch.Datagen.n_nations, measure_nations [ 2 ])
        in
        let _, plain_s = time (fun () -> Secyan_tpch.Queries.q9_plaintext d) in
        let q_one = Secyan_tpch.Queries.q9_inner d ~nationkey:2 ~volume:true in
        let eff = Secyan_tpch.Queries.effective_input_bytes q_one in
        let est =
          Secyan_smcql.Cartesian_gc.estimate ~seconds_per_and:(seconds_per_and q_one)
            ~kappa:128 q_one
        in
        let n_runs = 2. *. float_of_int Secyan_tpch.Datagen.n_nations in
        let p =
          {
            scale;
            eff_kb = float_of_int eff /. 1024.;
            secyan_s = secyan_s *. factor;
            secyan_mb = Comm.total_megabytes r.Secyan_tpch.Queries.tally *. factor;
            rounds = r.Secyan_tpch.Queries.tally.Comm.rounds;
            gc_s = n_runs *. est.Secyan_smcql.Cartesian_gc.seconds;
            gc_mb = n_runs *. est.Secyan_smcql.Cartesian_gc.comm_bytes /. (1024. *. 1024.);
            plain_s;
            plain_mb = float_of_int eff /. (1024. *. 1024.);
          }
        in
        record ~section:"figure6" ~query:"Q9" ~sf p ~phases:(phase_breakdown root);
        p)
      Secyan_tpch.Datagen.presets
  in
  print_series
    "Figure 6: TPC-H Query 9 (25 per-nation queries x 2 aggregates; one nation measured and x25 above scale s — oblivious runs cost the same per nation)"
    points

(* ------------------------------------------------------------------ *)
(* Ablations *)

(* §6.5 optimization: plain PSI with payloads (right annotations known to
   their owner) vs PSI with secret-shared payloads. *)
let ablation_psi () =
  hrule ();
  line
    "Ablation: oblivious semijoin via clear-payload PSI (6.5 optimization) vs secret-shared payloads (5.5)";
  hrule ();
  line "%-8s %14s %14s %12s %12s" "size" "clear-s" "shared-s" "clear-MB" "shared-MB";
  List.iter
    (fun n ->
      let make_rels ctx =
        let rows = List.init n (fun i -> ([| Value.Int i; Value.Int (i mod 97) |], 1L)) in
        let left = Relation.of_list ~name:"L" ~schema:(Schema.of_list [ "a"; "b" ]) rows in
        let right =
          Relation.of_list ~name:"R" ~schema:(Schema.of_list [ "b" ])
            (List.init 97 (fun i -> ([| Value.Int i |], Int64.of_int (i + 1))))
        in
        ( Secyan.Shared_relation.of_plain ctx ~owner:Party.Alice left,
          Secyan.Shared_relation.of_plain ctx ~owner:Party.Bob right )
      in
      let ring32 = Semiring.ring ~bits:32 in
      let run strip_clear =
        let ctx = Context.create ~seed () in
        let sl, sr = make_rels ctx in
        let sr =
          if strip_clear then
            Secyan.Shared_relation.of_shares ~owner:Party.Bob sr.Secyan.Shared_relation.rel
              sr.Secyan.Shared_relation.annots
          else sr
        in
        let before = Context.tally ctx in
        let (_ : Secyan.Shared_relation.t), secs =
          time (fun () ->
              Secyan.Oblivious_semijoin.join_constrained ctx ring32 ~left:sl ~right:sr)
        in
        (secs, Comm.diff (Context.tally ctx) before)
      in
      let clear_s, clear_t = run false in
      let shared_s, shared_t = run true in
      line "%-8d %14.3f %14.3f %12.2f %12.2f" n clear_s shared_s
        (Comm.total_megabytes clear_t) (Comm.total_megabytes shared_t))
    [ 200; 400; 800; 1600 ]

(* Validates the extrapolation model: the simulated backend must account
   exactly the same communication as real garbling, and their timing gap
   is reported. *)
let ablation_gc () =
  hrule ();
  line "Ablation: real half-gates garbling vs simulated backend (equal accounted cost)";
  hrule ();
  line "%-8s %10s %10s %12s %10s" "tuples" "real-s" "sim-s" "same-comm" "MB";
  List.iter
    (fun n ->
      let run backend =
        let ctx = Context.create ~gc_backend:backend ~seed () in
        let rows = List.init n (fun i -> ([| Value.Int i |], Int64.of_int (i mod 5))) in
        let r = Relation.of_list ~name:"R" ~schema:(Schema.of_list [ "g" ]) rows in
        let sr = Secyan.Shared_relation.of_plain ctx ~owner:Party.Alice r in
        let before = Context.tally ctx in
        let (_ : Secyan.Shared_relation.t), secs =
          time (fun () ->
              Secyan.Oblivious_agg.aggregate ctx (Semiring.ring ~bits:32) sr
                ~attrs:(Schema.of_list [ "g" ]))
        in
        (secs, Comm.diff (Context.tally ctx) before)
      in
      let real_s, real_t = run Context.Real in
      let sim_s, sim_t = run Context.Sim in
      line "%-8d %10.3f %10.3f %12b %10.2f" n real_s sim_s (Comm.equal real_t sim_t)
        (Comm.total_megabytes real_t))
    [ 64; 256; 1024 ]

(* Annotation ring width: the paper uses l = 32; our TPC-H queries need
   l = 52 for cent-precision sums. Multiplication circuits are O(l^2), so
   this measures what the wider ring costs. *)
let ablation_ring () =
  hrule ();
  line "Ablation: annotation ring width (Q3-shaped constrained join, 1000 tuples)";
  hrule ();
  line "%-6s %10s %10s" "bits" "secs" "MB";
  List.iter
    (fun bits ->
      let ctx = Context.create ~bits ~seed () in
      let semiring = Semiring.ring ~bits in
      let left =
        Relation.of_list ~name:"L" ~schema:(Schema.of_list [ "a"; "b" ])
          (List.init 1000 (fun i -> ([| Value.Int i; Value.Int (i mod 200) |], 1L)))
      in
      let right =
        Relation.of_list ~name:"R" ~schema:(Schema.of_list [ "b" ])
          (List.init 200 (fun i -> ([| Value.Int i |], Int64.of_int i)))
      in
      let sl = Secyan.Shared_relation.of_plain ctx ~owner:Party.Alice left in
      let sr = Secyan.Shared_relation.of_plain ctx ~owner:Party.Bob right in
      let before = Context.tally ctx in
      let (_ : Secyan.Shared_relation.t), secs =
        time (fun () -> Secyan.Oblivious_semijoin.join_constrained ctx semiring ~left:sl ~right:sr)
      in
      line "%-6d %10.3f %10.2f" bits secs
        (Comm.total_megabytes (Comm.diff (Context.tally ctx) before)))
    [ 16; 32; 48; 52; 60 ]

(* Where does Q3's cost go? Per-operator breakdown at scale m. *)
let breakdown () =
  hrule ();
  line "Cost breakdown: TPC-H Q3 at scale m, per protocol step";
  hrule ();
  let d = Secyan_tpch.Datagen.generate ~sf:(Secyan_tpch.Datagen.preset_sf "m") ~seed in
  let q = Secyan_tpch.Queries.q3 d in
  let ctx = Secyan_tpch.Queries.context ~seed () in
  let semiring = q.Secyan.Query.semiring in
  let get l = List.assoc l q.Secyan.Query.inputs in
  let step name f =
    let before = Context.tally ctx in
    let r, secs = time f in
    line "  %-28s %8.3f s %10.2f MB" name secs
      (Comm.total_megabytes (Comm.diff (Context.tally ctx) before));
    r
  in
  let sh l =
    Secyan.Shared_relation.of_plain ctx ~owner:(get l).Secyan.Query.owner
      (get l).Secyan.Query.relation
  in
  let customer = step "share customer annots" (fun () -> sh "customer") in
  let orders = step "share orders annots" (fun () -> sh "orders") in
  let lineitem = step "share lineitem annots" (fun () -> sh "lineitem") in
  let attrs l = Schema.of_list l in
  let agg_c =
    step "aggregate customer" (fun () ->
        Secyan.Oblivious_agg.aggregate ctx semiring customer ~attrs:(attrs [ "custkey" ]))
  in
  let orders =
    step "fold customer -> orders" (fun () ->
        Secyan.Oblivious_semijoin.join_constrained ctx semiring ~left:orders ~right:agg_c)
  in
  let agg_l =
    step "aggregate lineitem" (fun () ->
        Secyan.Oblivious_agg.aggregate ctx semiring lineitem ~attrs:(attrs [ "orderkey" ]))
  in
  let orders =
    step "fold lineitem -> orders" (fun () ->
        Secyan.Oblivious_semijoin.join_constrained ctx semiring ~left:orders ~right:agg_l)
  in
  let orders =
    step "root projection" (fun () ->
        Secyan.Oblivious_agg.aggregate ctx semiring orders
          ~attrs:(attrs [ "orderkey"; "o_orderdate"; "o_shippriority" ]))
  in
  let (_ : Secyan.Oblivious_join.t) =
    step "oblivious join (reveal)" (fun () -> Secyan.Oblivious_join.run ctx semiring [ orders ])
  in
  ()

(* Queries beyond the paper's evaluation: Q1 (single relation), Q4
   (EXISTS subquery), Q14 (ratio composition). *)
let extra_queries () =
  hrule ();
  line "Beyond the paper: extra TPC-H queries (scales xs..m)";
  hrule ();
  line "%-6s %-6s %10s %11s %9s" "query" "scale" "secyan-s" "secyan-MB" "plain-s";
  List.iter
    (fun (scale, sf) ->
      let d = Secyan_tpch.Datagen.generate ~sf ~seed in
      let simple name make =
        let q = make d in
        let ctx = Secyan_tpch.Queries.context ~seed () in
        let (_, stats), secs = time (fun () -> Secyan.Secure_yannakakis.run ctx q) in
        let _, plain_s = time (fun () -> Secyan.Query.plaintext q) in
        line "%-6s %-6s %10.3f %11.2f %9.4f" name scale secs
          (Comm.total_megabytes stats.Secyan.Secure_yannakakis.tally)
          plain_s
      in
      simple "Q1" Secyan_tpch.Extra_queries.q1;
      simple "Q4" (fun d -> Secyan_tpch.Extra_queries.q4 d);
      let ctx = Secyan_tpch.Queries.context ~seed () in
      let r, secs = time (fun () -> Secyan_tpch.Extra_queries.run_q14 ctx d) in
      let _, plain_s = time (fun () -> Secyan_tpch.Extra_queries.q14_plaintext d) in
      line "%-6s %-6s %10.3f %11.2f %9.4f" "Q14" scale secs
        (Comm.total_megabytes r.Secyan_tpch.Extra_queries.tally)
        plain_s)
    [ ("xs", 4e-5); ("s", 1.2e-4); ("m", 4e-4) ]

(* ------------------------------------------------------------------ *)
(* Bechamel microbenches of the primitives *)

let micro () =
  let open Bechamel in
  let open Bechamel.Toolkit in
  hrule ();
  line "Microbenchmarks (Bechamel, monotonic clock)";
  hrule ();
  let ctx = Context.create ~seed () in
  let prg = Prg.create 1L in
  let elements = Array.init 256 (fun i -> Int64.of_int ((i * 7919) + 3)) in
  let perm = Prg.permutation prg 256 in
  let perm_65536 = Prg.permutation (Prg.create 3L) 65536 in
  let sha_input = Bytes.make 64 'x' in
  let circuit =
    let module Bb = Boolean_circuit.Builder in
    let b = Bb.create () in
    let x = Circuits.input_word b 32 and y = Circuits.input_word b 32 in
    let out = Circuits.mul_word b x y in
    Bb.finalize b ~outputs:(Circuits.materialize_word b 0 out)
  in
  let garble_prg = Prg.create 2L in
  let tests =
    [
      Test.make ~name:"share+reconstruct"
        (Staged.stage (fun () ->
             let s = Secret_share.share ctx ~owner:Party.Alice 12345L in
             ignore (Secret_share.reconstruct ctx s)));
      Test.make ~name:"sha256-64B"
        (Staged.stage (fun () -> ignore (Sha256.digest_bytes sha_input)));
      Test.make ~name:"cuckoo-build-256"
        (Staged.stage (fun () -> ignore (Cuckoo_hash.build prg elements)));
      Test.make ~name:"benes-route-256"
        (Staged.stage (fun () -> ignore (Permutation_network.build perm)));
      Test.make ~name:"benes-route-65536"
        (Staged.stage (fun () -> ignore (Permutation_network.build perm_65536)));
      Test.make ~name:"garble-32b-mul-sha"
        (Staged.stage (fun () ->
             ignore (Garbling.garble ~kdf:Garbling.Sha256_kdf garble_prg circuit)));
      Test.make ~name:"garble-32b-mul-aes"
        (Staged.stage (fun () ->
             ignore (Garbling.garble ~kdf:Garbling.Aes128_kdf garble_prg circuit)));
      Test.make ~name:"eval-clear-32b-mul"
        (Staged.stage (fun () -> ignore (Boolean_circuit.eval circuit (Array.make 64 true))));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let instances = Instance.[ monotonic_clock ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
      let analysis = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> line "%-24s %12.1f ns/run" name est
          | Some _ | None -> line "%-24s (no estimate)" name)
        analysis)
    tests

(* ------------------------------------------------------------------ *)
(* GC engine performance: KDF microbenches, garbling throughput, and
   parallel batch wall-clock. Results go to BENCH_2.json (EXPERIMENTS.md
   documents the schema). [--domains N] sets the largest pool measured. *)

let requested_domains = ref 1

(* Per-domain contention timelines and metrics overhead: records go to
   BENCH_6.json (EXPERIMENTS.md documents the schema). The timelines are
   the instrumented view of ROADMAP item 1 — where the wall-clock goes
   (busy vs queue-wait vs lock-wait) as the pool grows. *)

(* Allocation-free kernel proof and the domain-scaling sweep: records go
   to BENCH_7.json (EXPERIMENTS.md documents the schema). The cross-
   machine CI gates are the exact booleans of the scaling-summary record
   ([alloc_reduction_ok], [scaling_ok], [identical_at_all_pool_sizes]);
   words-per-gate and the reduction factor are machine-absolute
   diagnostics (DESIGN.md §14). *)

(* Bechamel OLS estimate for one run of [f], in nanoseconds. *)
let ns_per_run name f =
  let open Bechamel in
  let open Bechamel.Toolkit in
  let test = Test.make ~name (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let results = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let analysis = Analyze.all ols Instance.monotonic_clock results in
  let est = ref nan in
  Hashtbl.iter
    (fun _ r -> match Analyze.OLS.estimates r with Some [ e ] -> est := e | _ -> ())
    analysis;
  !est

let gc_perf () =
  hrule ();
  line "GC engine performance (label hashes, garbling throughput, parallel batches)";
  hrule ();
  (* 1. per-label KDF cost: the acceptance criterion is AES < SHA-256 *)
  let prg = Prg.create 3L in
  let label = Garbling.Label.random prg in
  let sha_ns = ns_per_run "label-hash-sha256" (fun () ->
      ignore (Garbling.Label.hash label ~tweak:42L)) in
  let aes_ns = ns_per_run "label-hash-aes128" (fun () ->
      ignore (Garbling.Label.hash_aes label ~tweak:42L)) in
  line "%-24s %12.1f ns/op" "label-hash-sha256" sha_ns;
  line "%-24s %12.1f ns/op  (%.2fx faster)" "label-hash-aes128" aes_ns (sha_ns /. aes_ns);
  List.iter
    (fun (kdf, ns) ->
      emit "BENCH_2.json" @@
        Json.Obj
          [
            ("kind", Json.Str "label-hash"); ("kdf", Json.Str kdf);
            ("ns_per_op", Json.Float ns);
          ])
    [ ("sha256", sha_ns); ("aes128", aes_ns) ];
  (* 2. whole-circuit garbling throughput in AND gates per second *)
  let circuit =
    let module Bb = Boolean_circuit.Builder in
    let b = Bb.create () in
    let x = Circuits.input_word b 32 and y = Circuits.input_word b 32 in
    let out = Circuits.mul_word b x y in
    Bb.finalize b ~outputs:(Circuits.materialize_word b 0 out)
  in
  let ands = Boolean_circuit.and_count circuit in
  let garble_prg = Prg.create 2L in
  List.iter
    (fun (name, kdf) ->
      let ns = ns_per_run ("garble-" ^ name) (fun () ->
          ignore (Garbling.garble ~kdf garble_prg circuit)) in
      let gates_per_s = float_of_int ands /. (ns *. 1e-9) in
      line "%-24s %12.1f ns/circuit  %10.0f AND gates/s" ("garble-32b-mul-" ^ name) ns
        gates_per_s;
      emit "BENCH_2.json" @@
        Json.Obj
          [
            ("kind", Json.Str "garble-throughput"); ("kdf", Json.Str name);
            ("and_gates", Json.Int ands); ("ns_per_circuit", Json.Float ns);
            ("and_gates_per_s", Json.Float gates_per_s);
          ])
    [ ("sha256", Garbling.Sha256_kdf); ("aes128", Garbling.Aes128_kdf) ];
  (* 3. batch wall-clock across pool sizes, with a determinism cross-check *)
  let items = 48 in
  let batch_inputs () =
    let inp = Prg.create 7L in
    Array.init items (fun _ ->
        [
          Gc_protocol.Priv { owner = Party.Alice; value = Prg.bits inp 16; bits = 32 };
          Gc_protocol.Priv { owner = Party.Bob; value = Prg.bits inp 16; bits = 32 };
        ])
  in
  let build b words = [ Circuits.mul_word b words.(0) words.(1) ] in
  let batch domains =
    let ctx = Context.create ~gc_backend:Context.Real ~domains ~seed () in
    let shares, secs =
      time (fun () -> Gc_protocol.eval_to_shares_batch ctx ~items:(batch_inputs ()) ~build)
    in
    Context.shutdown_pool ctx;
    (shares, secs)
  in
  let pool_sizes = List.sort_uniq compare [ 1; 2; max 1 !requested_domains ] in
  let baseline, base_secs = batch 1 in
  List.iter
    (fun domains ->
      let shares, secs = if domains = 1 then (baseline, base_secs) else batch domains in
      let identical = shares = baseline in
      line "%-24s %12.3f ms  (%d items, speedup %.2fx, identical %b)"
        (Printf.sprintf "batch-garble-%dd" domains)
        (secs *. 1e3) items (base_secs /. secs) identical;
      if not identical then line "  !! parallel batch diverged from sequential";
      emit "BENCH_2.json" @@
        Json.Obj
          [
            ("kind", Json.Str "batch-wallclock"); ("domains", Json.Int domains);
            ("items", Json.Int items); ("and_gates", Json.Int (ands * items));
            ("seconds", Json.Float secs);
            ("and_gates_per_s", Json.Float (float_of_int (ands * items) /. secs));
            ("speedup_vs_domains1", Json.Float (base_secs /. secs));
            ("identical_to_sequential", Json.Bool identical);
          ])
    pool_sizes;
  (* 4. per-domain contention timelines: where each participant's
     wall-clock goes (busy vs queue-wait vs lock-wait) as the pool grows
     — the instrumented view of the ROADMAP item-1 regression. *)
  let was_enabled = Secyan_metrics.enabled () in
  Secyan_metrics.set_enabled true;
  let timeline_sizes = List.sort_uniq compare [ 1; 2; 4; max 1 !requested_domains ] in
  List.iter
    (fun domains ->
      settle ();
      let ctx = Context.create ~gc_backend:Context.Real ~domains ~seed () in
      let _, secs =
        time (fun () -> Gc_protocol.eval_to_shares_batch ctx ~items:(batch_inputs ()) ~build)
      in
      let tls =
        match Context.pool_opt ctx with
        | Some pool -> Domain_pool.timelines pool
        | None -> []
      in
      Context.shutdown_pool ctx;
      let sum f = List.fold_left (fun acc tl -> acc +. f tl) 0. tls in
      let wall = sum (fun tl -> tl.Domain_pool.wall_ns) in
      let frac f = if wall > 0. then sum f /. wall else 0. in
      let busy = frac (fun tl -> tl.Domain_pool.busy_ns) in
      let queue = frac (fun tl -> tl.Domain_pool.queue_wait_ns) in
      let lock = frac (fun tl -> tl.Domain_pool.lock_wait_ns) in
      line "%-24s %12.3f ms  busy %5.1f%%  queue-wait %5.1f%%  lock-wait %5.1f%%"
        (Printf.sprintf "timeline-%dd" domains)
        (secs *. 1e3) (100. *. busy) (100. *. queue) (100. *. lock);
      emit "BENCH_6.json" @@
        Json.Obj
          [
            ("kind", Json.Str "domain-timeline"); ("domains", Json.Int domains);
            ("items", Json.Int items); ("seconds", Json.Float secs);
            ("busy_frac", Json.Float busy);
            ("queue_wait_frac", Json.Float queue);
            ("lock_wait_frac", Json.Float lock);
            ("timelines", Json.List (List.map Profile.timeline_json tls));
          ])
    timeline_sizes;
  (* 5. metrics overhead on a full protocol run: the registry must stay
     within single-digit percent of a metrics-off run (DESIGN.md §13's
     budget; the acceptance bar is <= 3%). Best-of-reps on both sides to
     suppress scheduler noise. *)
  let sf = Secyan_tpch.Datagen.preset_sf "xs" in
  let d = Secyan_tpch.Datagen.generate ~sf ~seed in
  let run_secs () =
    settle ();
    let ctx = Secyan_tpch.Queries.context ~seed () in
    let q = Secyan_tpch.Queries.q3 d in
    let _, secs = time (fun () -> Secyan.Secure_yannakakis.run ctx q) in
    Context.shutdown_pool ctx;
    secs
  in
  let reps = 5 in
  let best f = List.fold_left (fun acc _ -> Float.min acc (f ())) infinity (List.init reps Fun.id) in
  Secyan_metrics.set_enabled false;
  let off_secs = best run_secs in
  Secyan_metrics.set_enabled true;
  let on_secs = best run_secs in
  Secyan_metrics.set_enabled was_enabled;
  let overhead_pct = 100. *. (on_secs -. off_secs) /. off_secs in
  line "%-24s off %.3f ms  on %.3f ms  overhead %.2f%%" "metrics-overhead-q3-xs"
    (off_secs *. 1e3) (on_secs *. 1e3) overhead_pct;
  emit "BENCH_6.json" @@
    Json.Obj
      [
        ("kind", Json.Str "metrics-overhead"); ("query", Json.Str "Q3");
        ("scale", Json.Str "xs"); ("reps", Json.Int reps);
        ("off_seconds", Json.Float off_secs); ("on_seconds", Json.Float on_secs);
        ("overhead_pct", Json.Float overhead_pct);
      ];
  (* 6. allocation-free kernels (DESIGN.md §14): words allocated per AND
     gate by the boxed reference vs the unboxed arena implementation, the
     batch engine's steady-state per-item allocation (read back through
     the [secyan_gc_item_*_words] registry histograms), and the domains
     1/2/4/8 scaling sweep. Records go to BENCH_7.json; CI gates on the
     scaling-summary booleans, which are machine-independent. *)
  Secyan_metrics.set_enabled false;
  let n_inputs = circuit.Boolean_circuit.n_inputs in
  let input_bit i = i land 1 = 1 in
  let alloc_reps = 32 in
  let alloc_per_gate f =
    f ();
    (* warmed up: arenas grown, lazy state forced. [Gc.minor_words] (not
       [quick_stat], which only advances at GC points) so sub-minor-heap
       allocation volumes still resolve. *)
    let minor0 = Gc.minor_words () in
    let major0 = (Gc.quick_stat ()).Gc.major_words in
    for _ = 1 to alloc_reps do f () done;
    let per w0 w1 = (w1 -. w0) /. float_of_int (alloc_reps * ands) in
    ( per minor0 (Gc.minor_words ()),
      per major0 (Gc.quick_stat ()).Gc.major_words )
  in
  let boxed_prg = Prg.create 9L in
  let boxed () =
    let g = Garbling_reference.garble boxed_prg circuit in
    let labels =
      Array.init n_inputs (fun i -> Garbling_reference.encode_input g i (input_bit i))
    in
    ignore (Garbling_reference.eval_labels g labels : Garbling.Label.t array)
  in
  let arena = Garbling.Arena.create () in
  let unboxed_prg = Prg.create 9L in
  let unboxed () =
    let g = Garbling.garble ~arena unboxed_prg circuit in
    ignore (Garbling.eval_colors ~arena g input_bit : Bytes.t)
  in
  let record_alloc impl (minor, major) =
    line "%-24s %12.2f minor words/AND  %10.4f major words/AND" ("alloc-" ^ impl) minor
      major;
    emit "BENCH_7.json" @@
      Json.Obj
        [
          ("kind", Json.Str "alloc-per-gate"); ("impl", Json.Str impl);
          ("and_gates", Json.Int ands); ("reps", Json.Int alloc_reps);
          ("minor_words_per_gate", Json.Float minor);
          ("major_words_per_gate", Json.Float major);
        ]
  in
  let ((boxed_minor, _) as boxed_alloc) = alloc_per_gate boxed in
  record_alloc "boxed" boxed_alloc;
  let ((unboxed_minor, _) as unboxed_alloc) = alloc_per_gate unboxed in
  record_alloc "unboxed" unboxed_alloc;
  let alloc_reduction = boxed_minor /. Float.max unboxed_minor 1e-9 in
  line "%-24s %12.1fx fewer minor words/AND (gate: >= 10x)" "alloc-reduction"
    alloc_reduction;
  (* steady-state batch-engine allocation: the second batch on a context
     runs on recycled item contexts and warmed arenas *)
  Secyan_metrics.set_enabled true;
  let alloc_ctx = Context.create ~gc_backend:Context.Real ~domains:1 ~seed () in
  ignore (Gc_protocol.eval_to_shares_batch alloc_ctx ~items:(batch_inputs ()) ~build);
  Secyan_metrics.reset ();
  ignore (Gc_protocol.eval_to_shares_batch alloc_ctx ~items:(batch_inputs ()) ~build);
  Context.shutdown_pool alloc_ctx;
  let hist_mean name =
    match
      List.find_opt
        (fun (s : Secyan_metrics.sample) -> s.Secyan_metrics.name = name)
        (Secyan_metrics.snapshot ())
    with
    | Some { Secyan_metrics.value = Secyan_metrics.Histogram h; _ }
      when h.Secyan_metrics.count > 0 ->
        h.Secyan_metrics.sum /. float_of_int h.Secyan_metrics.count
    | _ -> 0.
  in
  let item_minor = hist_mean "secyan_gc_item_minor_words" in
  let item_major = hist_mean "secyan_gc_item_major_words" in
  line "%-24s %12.0f minor words/item  (%.2f per AND gate)" "batch-alloc-steady"
    item_minor
    (item_minor /. float_of_int ands);
  emit "BENCH_7.json" @@
    Json.Obj
      [
        ("kind", Json.Str "batch-alloc"); ("domains", Json.Int 1);
        ("items", Json.Int items);
        ("minor_words_per_item", Json.Float item_minor);
        ("minor_words_per_gate", Json.Float (item_minor /. float_of_int ands));
        ("major_words_per_item", Json.Float item_major);
      ];
  (* the scaling sweep: always domains 1/2/4/8 (plus --domains if larger)
     so regenerated files match record-for-record on any machine;
     wall-clock scaling is only asserted for pool sizes the host can
     actually run in parallel *)
  Secyan_metrics.set_enabled false;
  let sweep_sizes = List.sort_uniq compare [ 1; 2; 4; 8; max 1 !requested_domains ] in
  let sweep_reps = 3 in
  let sweep domains =
    let shares = ref [||] and best = ref infinity in
    for _ = 1 to sweep_reps do
      settle ();
      let s, secs = batch domains in
      shares := s;
      if secs < !best then best := secs
    done;
    (!shares, !best)
  in
  let sweep_base, sweep_base_secs = sweep 1 in
  let sweep_results =
    List.map
      (fun domains ->
        let shares, secs =
          if domains = 1 then (sweep_base, sweep_base_secs) else sweep domains
        in
        let identical = shares = sweep_base in
        let speedup = sweep_base_secs /. secs in
        line "%-24s %12.3f ms  (speedup %.2fx, identical %b)"
          (Printf.sprintf "sweep-%dd" domains)
          (secs *. 1e3) speedup identical;
        if not identical then line "  !! parallel batch diverged from sequential";
        emit "BENCH_7.json" @@
          Json.Obj
            [
              ("kind", Json.Str "domain-sweep"); ("domains", Json.Int domains);
              ("items", Json.Int items); ("and_gates", Json.Int (ands * items));
              ("seconds", Json.Float secs);
              ("and_gates_per_s", Json.Float (float_of_int (ands * items) /. secs));
              ("speedup_vs_domains1", Json.Float speedup);
              ("identical_to_sequential", Json.Bool identical);
            ];
        (domains, speedup, identical))
      sweep_sizes
  in
  let cores = Domain.recommended_domain_count () in
  let gated = List.filter (fun (d, _, _) -> d <= cores) sweep_results in
  let rec monotone = function
    | (_, s1, _) :: ((_, s2, _) :: _ as rest) -> s2 >= s1 -. 0.1 && monotone rest
    | _ -> true
  in
  let all_identical = List.for_all (fun (_, _, id) -> id) sweep_results in
  let at2_ok = cores < 2 || List.for_all (fun (d, s, _) -> d <> 2 || s >= 0.9) gated in
  let scaling_ok = all_identical && at2_ok && monotone gated in
  let alloc_reduction_ok = alloc_reduction >= 10. in
  line "%-24s reduction %.0fx (ok %b)  scaling ok %b (asserted on %d of %d pool sizes; %d cores)"
    "scaling-summary" alloc_reduction alloc_reduction_ok scaling_ok (List.length gated)
    (List.length sweep_results) cores;
  emit "BENCH_7.json" @@
    Json.Obj
      [
        ("kind", Json.Str "scaling-summary"); ("items", Json.Int items);
        ("alloc_reduction", Json.Float alloc_reduction);
        ("alloc_reduction_ok", Json.Bool alloc_reduction_ok);
        ("scaling_ok", Json.Bool scaling_ok);
        ("identical_at_all_pool_sizes", Json.Bool all_identical);
      ];
  Secyan_metrics.set_enabled was_enabled

(* ------------------------------------------------------------------ *)
(* Checkpoint overhead: wall-clock and bytes-written delta of a fully
   checkpointed run (a snapshot at every phase/operator boundary) vs a
   plain run, q3/q10 at scale xs. Results go to BENCH_4.json
   (EXPERIMENTS.md documents the schema). *)

let rm_rf_flat dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let checkpoint_overhead () =
  hrule ();
  line "Checkpoint overhead: checkpointed vs plain runs at scale xs";
  hrule ();
  let sf = 4e-5 (* xs *) in
  let reps = 3 in
  let measure make =
    let d = Secyan_tpch.Datagen.generate ~sf ~seed in
    let q = make d in
    (* one timed run; [with_sink] decides whether snapshots are written *)
    let run_once ~with_sink =
      settle ();
      let dir = if with_sink then Some (Filename.temp_dir "secyan-bench-ck" "") else None in
      let checkpoint = Option.map (fun dir -> Checkpoint.sink ~dir ()) dir in
      let ctx = Secyan_tpch.Queries.context ?checkpoint ~seed () in
      let (_, stats), secs = time (fun () -> Secyan.Secure_yannakakis.run ctx q) in
      let written, bytes =
        match checkpoint with
        | Some s -> (s.Checkpoint.written, s.Checkpoint.bytes_written)
        | None -> (0, 0)
      in
      Option.iter rm_rf_flat dir;
      (stats.Secyan.Secure_yannakakis.tally, secs, written, bytes)
    in
    (* min over reps: the delta of interest is systematic, not noise *)
    let best with_sink =
      List.init reps (fun _ -> run_once ~with_sink)
      |> List.fold_left (fun acc ((_, s, _, _) as r) ->
             match acc with
             | Some ((_, s0, _, _) as r0) -> Some (if s < s0 then r else r0)
             | None -> Some r)
           None
      |> Option.get
    in
    let plain_tally, plain_s, _, _ = best false in
    let ck_tally, ck_s, written, bytes = best true in
    (* checkpointing sits below protocol accounting: tallies must match *)
    let identical = Comm.equal plain_tally ck_tally in
    let overhead_s = ck_s -. plain_s in
    line "%-6s plain %8.3f s   checkpointed %8.3f s   delta %+8.3f s (%+6.2f%%)   %d snapshots, %d bytes%s"
      q.Secyan.Query.name plain_s ck_s overhead_s
      (100. *. overhead_s /. plain_s)
      written bytes
      (if identical then "" else "   !! tally diverged");
    emit "BENCH_4.json" @@
      Json.Obj
        [
          ("query", Json.Str q.Secyan.Query.name);
          ("scale", Json.Str "xs");
          ("sf", Json.Float sf);
          ("reps", Json.Int reps);
          ("plain_seconds", Json.Float plain_s);
          ("checkpointed_seconds", Json.Float ck_s);
          ("overhead_seconds", Json.Float overhead_s);
          ("overhead_pct", Json.Float (100. *. overhead_s /. plain_s));
          ("checkpoints_written", Json.Int written);
          ("checkpoint_bytes", Json.Int bytes);
          ("tally_identical", Json.Bool identical);
        ]
  in
  List.iter measure [ Secyan_tpch.Queries.q3; Secyan_tpch.Queries.q10 ]

(* ------------------------------------------------------------------ *)
(* Fuzz campaign throughput: instances per second through the
   differential oracle, with and without the obliviousness audit, plus
   the shrinker's cost on a synthetic failure. Results go to BENCH_5.json
   (EXPERIMENTS.md documents the schema). *)

let fuzz_perf () =
  hrule ();
  line "Fuzz throughput: differential oracle and obliviousness audit";
  hrule ();
  let campaign ~audit ~cases =
    settle ();
    let stats = Secyan_fuzz.Runner.run ~audit ~seed ~cases () in
    let per_s = float_of_int stats.Secyan_fuzz.Runner.cases /. stats.Secyan_fuzz.Runner.seconds in
    line "%-28s %4d cases in %7.2f s  (%6.1f instances/s, %d gc-checked, %d audited, %d failures)"
      (if audit then "oracle+audit" else "oracle-only")
      stats.Secyan_fuzz.Runner.cases stats.Secyan_fuzz.Runner.seconds per_s
      stats.Secyan_fuzz.Runner.gc_checked stats.Secyan_fuzz.Runner.audits_run
      (List.length stats.Secyan_fuzz.Runner.failures);
    emit "BENCH_5.json" @@
      Json.Obj
        [
          ("kind", Json.Str "campaign");
          ("audit", Json.Bool audit);
          ("cases", Json.Int stats.Secyan_fuzz.Runner.cases);
          ("gc_checked", Json.Int stats.Secyan_fuzz.Runner.gc_checked);
          ("audits_run", Json.Int stats.Secyan_fuzz.Runner.audits_run);
          ("failures", Json.Int (List.length stats.Secyan_fuzz.Runner.failures));
          ("seconds", Json.Float stats.Secyan_fuzz.Runner.seconds);
          ("instances_per_s", Json.Float per_s);
        ]
  in
  campaign ~audit:false ~cases:100;
  campaign ~audit:true ~cases:100;
  (* shrinker cost on a synthetic always-failing predicate: pure
     generator + oracle-replay work, no protocol divergence needed *)
  settle ();
  Secyan_relational.Value.reset_dummies ();
  let t = Secyan_fuzz.Gen.generate ~seed ~case:0 in
  let rows (i : Secyan_fuzz.Gen.instance) =
    List.fold_left
      (fun acc (_, (inp : Secyan.Query.input)) ->
        acc + Relation.cardinality inp.Secyan.Query.relation)
      0 i.Secyan_fuzz.Gen.query.Secyan.Query.inputs
  in
  let r, secs =
    time (fun () -> Secyan_fuzz.Shrink.minimize ~failing:(fun i -> rows i > 0) t)
  in
  line "%-28s %d -> %d rows in %d steps (%.3f s)" "shrink (synthetic)" (rows t)
    (rows r.Secyan_fuzz.Shrink.instance) r.Secyan_fuzz.Shrink.steps secs;
  emit "BENCH_5.json" @@
    Json.Obj
      [
        ("kind", Json.Str "shrink");
        ("rows_before", Json.Int (rows t));
        ("rows_after", Json.Int (rows r.Secyan_fuzz.Shrink.instance));
        ("steps", Json.Int r.Secyan_fuzz.Shrink.steps);
        ("seconds", Json.Float secs);
      ]

(* ------------------------------------------------------------------ *)
(* Oblivious sort / top-k perf (DESIGN.md §17): comparator schedule size
   vs the closed form, AND gates, communication, rounds, and wall-clock
   of the bitonic sort as n grows, plus a domains sweep at fixed n.
   Results go to BENCH_10.json (EXPERIMENTS.md documents the schema). *)

let sort_perf () =
  hrule ();
  line "oblivious sort / top-k: bitonic schedule cost vs n (DESIGN.md section 17)";
  hrule ();
  let key_bits = 16 and idx_bits = 16 in
  (* synthetic rows shaped like the engine's order phase: one private
     rank key, a private row-index payload and a shared annotation *)
  let make_rows ctx n =
    let prg = Prg.create (Int64.of_int (0x5017 + n)) in
    Array.init n (fun i ->
        let key = Int64.logand (Prg.next_int64 prg) 0xFFFFL in
        {
          Oblivious_sort.valid =
            Gc_protocol.Priv { owner = Party.Alice; value = 1L; bits = 1 };
          valid_if_nonzero = None;
          keys =
            [
              {
                Oblivious_sort.word =
                  {
                    Oblivious_sort.input =
                      Gc_protocol.Priv { owner = Party.Alice; value = key; bits = key_bits };
                    width = key_bits;
                  };
                descending = true;
                signed = false;
              };
            ];
          payload =
            [
              {
                Oblivious_sort.input =
                  Gc_protocol.Priv
                    { owner = Party.Alice; value = Int64.of_int i; bits = idx_bits };
                width = idx_bits;
              };
              {
                Oblivious_sort.input =
                  Gc_protocol.Shared
                    (Secret_share.of_public ctx (Int64.of_int (i * 7)));
                width = 32;
              };
            ];
        })
  in
  let and_gates ctx =
    (Context.counter_totals ctx).(Trace_sink.counter_index Trace_sink.And_gates)
  in
  let run ~domains ~k n =
    settle ();
    let ctx = Context.create ~bits:32 ~domains ~seed () in
    let rows = make_rows ctx n in
    let before_tally = Context.tally ctx in
    let before_ands = and_gates ctx in
    let revealed, secs = time (fun () -> Oblivious_sort.top_k_reveal ctx ~k ~to_:Party.Alice rows) in
    let after_tally = Context.tally ctx in
    let ands = and_gates ctx - before_ands in
    let bits =
      after_tally.Comm.alice_to_bob_bits - before_tally.Comm.alice_to_bob_bits
      + after_tally.Comm.bob_to_alice_bits - before_tally.Comm.bob_to_alice_bits
    in
    let rounds = after_tally.Comm.rounds - before_tally.Comm.rounds in
    Context.shutdown_pool ctx;
    (revealed, ands, bits, rounds, secs)
  in
  line "%-6s %7s %12s %12s %10s %7s %9s" "n" "padded" "comparators" "AND-gates"
    "comm-MB" "rounds" "ms";
  let sizes = [ 16; 32; 64; 128; 256 ] in
  List.iter
    (fun n ->
      let net = Sorting_network.build n in
      let comparators = Sorting_network.comparator_count net in
      (* the closed form the builder enforces; recheck it here so the
         regression gate sees any drift *)
      let closed_form_ok = comparators = Sorting_network.expected_count n in
      let k = min n 10 in
      let revealed, ands, bits, rounds, secs = run ~domains:1 ~k n in
      (* sanity: the revealed top-k indices really are key-sorted *)
      let sorted_ok = Array.for_all (fun (invalid, _) -> not invalid) revealed in
      let mb = float_of_int bits /. 8. /. 1024. /. 1024. in
      line "%-6d %7d %12d %12d %10.2f %7d %9.1f%s" n net.Sorting_network.padded
        comparators ands mb rounds (secs *. 1e3)
        (if closed_form_ok && sorted_ok then "" else "  !! check failed");
      emit "BENCH_10.json" @@
        Json.Obj
          [
            ("kind", Json.Str "sort-scaling"); ("n", Json.Int n);
            ("padded", Json.Int net.Sorting_network.padded);
            ("k", Json.Int k);
            ("comparators", Json.Int comparators);
            ("passes", Json.Int (Sorting_network.pass_count net));
            ("closed_form_ok", Json.Bool closed_form_ok);
            ("top_k_all_valid", Json.Bool sorted_ok);
            ("and_gates", Json.Int ands);
            ("comm_bits", Json.Int bits);
            ("rounds", Json.Int rounds);
            ("seconds", Json.Float secs);
          ])
    sizes;
  (* domains sweep at fixed n: identical reveal, wall-clock speedup *)
  let sweep_n = 128 in
  let sweep_sizes = List.sort_uniq compare [ 1; 2; 4; max 1 !requested_domains ] in
  let base = ref None in
  List.iter
    (fun domains ->
      let revealed, ands, bits, rounds, secs = run ~domains ~k:10 sweep_n in
      let base_revealed, base_secs =
        match !base with
        | None ->
            base := Some (revealed, secs);
            (revealed, secs)
        | Some b -> b
      in
      let identical = revealed = base_revealed in
      let speedup = base_secs /. secs in
      line "%-24s %12.3f ms  (speedup %.2fx, identical %b)"
        (Printf.sprintf "sort-sweep-%dd" domains)
        (secs *. 1e3) speedup identical;
      emit "BENCH_10.json" @@
        Json.Obj
          [
            ("kind", Json.Str "sort-domain-sweep"); ("n", Json.Int sweep_n);
            ("domains", Json.Int domains);
            ("and_gates", Json.Int ands);
            ("comm_bits", Json.Int bits);
            ("rounds", Json.Int rounds);
            ("seconds", Json.Float secs);
            ("speedup_vs_domains1", Json.Float speedup);
            ("identical_to_sequential", Json.Bool identical);
          ])
    sweep_sizes

(* ------------------------------------------------------------------ *)

let all_sections =
  [
    ("figure2", figure2); ("figure3", figure3); ("figure4", figure4);
    ("figure5", figure5); ("figure6", figure6);
    ("ablation-psi", ablation_psi); ("ablation-gc", ablation_gc);
    ("ablation-ring", ablation_ring); ("breakdown", breakdown);
    ("extra-queries", extra_queries); ("micro", micro); ("gc-perf", gc_perf);
    ("checkpoint-overhead", checkpoint_overhead); ("fuzz-perf", fuzz_perf);
    ("sort-perf", sort_perf);
  ]

(* [bench diff BASE.json NEW.json [--tolerance T] [--strict]]: the BENCH
   regression gate. Exit 1 on regression, 2 on usage/parse errors. *)
let diff_main args =
  let usage () =
    prerr_endline "usage: bench diff BASE.json NEW.json [--tolerance T] [--strict]";
    exit 2
  in
  let tolerance = ref 0.15 and strict = ref false and files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--strict" :: rest ->
        strict := true;
        parse rest
    | "--tolerance" :: v :: rest ->
        (match float_of_string_opt v with
        | Some t when t >= 0. -> tolerance := t
        | _ -> usage ());
        parse rest
    | arg :: rest when String.length arg > 12 && String.sub arg 0 12 = "--tolerance=" -> (
        match float_of_string_opt (String.sub arg 12 (String.length arg - 12)) with
        | Some t when t >= 0. ->
            tolerance := t;
            parse rest
        | _ -> usage ())
    | arg :: _ when String.length arg >= 2 && String.sub arg 0 2 = "--" -> usage ()
    | file :: rest ->
        files := file :: !files;
        parse rest
  in
  parse args;
  match List.rev !files with
  | [ base; next ] -> (
      match Bench_diff.compare_files ~tolerance:!tolerance ~strict:!strict ~base ~next () with
      | Error e ->
          Printf.eprintf "bench diff: %s\n" e;
          exit 2
      | Ok report ->
          Bench_diff.pp_report Format.std_formatter report;
          Format.pp_print_flush Format.std_formatter ();
          exit (if Bench_diff.regressions report = [] then 0 else 1))
  | _ -> usage ()

let () =
  (match Array.to_list Sys.argv with
  | _ :: "diff" :: rest -> diff_main rest
  | _ -> ());
  (* consume [--domains N] (or --domains=N) before section selection *)
  let rec strip_domains = function
    | [] -> []
    | "--domains" :: n :: rest ->
        requested_domains := int_of_string n;
        strip_domains rest
    | arg :: rest when String.length arg > 10 && String.sub arg 0 10 = "--domains=" ->
        requested_domains :=
          int_of_string (String.sub arg 10 (String.length arg - 10));
        strip_domains rest
    | arg :: rest -> arg :: strip_domains rest
  in
  let requested =
    match strip_domains (List.tl (Array.to_list Sys.argv)) with
    | [] -> [ "all" ]
    | args -> args
  in
  let sections =
    List.concat_map
      (fun name ->
        match name with
        | "all" -> List.map fst all_sections
        | "figures" -> [ "figure2"; "figure3"; "figure4"; "figure5"; "figure6" ]
        | "ablations" -> [ "ablation-psi"; "ablation-gc"; "ablation-ring" ]
        | other -> [ other ])
      requested
  in
  (* a roomy minor heap: the oblivious operators allocate heavily *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024; space_overhead = 200 };
  line "secure-yannakakis benchmark harness (seed %Ld)" seed;
  line "paper scales 1/3/10/33/100 MB map to presets xs/s/m/l/xl (DESIGN.md section 4)";
  List.iter
    (fun name ->
      match List.assoc_opt name all_sections with
      | Some f -> f ()
      | None -> line "unknown section %s" name)
    sections;
  write_bench_files ()

