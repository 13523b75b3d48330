(* Benchmark harness regenerating the paper's evaluation (§8.3).

   Figures 2-6: for each TPC-H query (Q3, Q10, Q18, Q8, Q9) and each
   dataset scale, print the series the paper plots — running time and
   communication of secure Yannakakis, of the garbled-circuit baseline
   (measured at the smallest scale, extrapolated by exact gate count
   elsewhere, as in the paper), and of the non-private plaintext run
   (communication = input size, §8.2).

   Also: design-choice ablations (PSI with clear vs secret-shared
   payloads; real vs simulated garbling; annotation ring width), a
   per-step cost breakdown of Q3, extra TPC-H queries, Bechamel
   microbenches of the primitives, checkpoint overhead and fuzz-campaign
   throughput. Select sections via argv: figure2..figure6,
   ablation-psi, ablation-gc, ablation-ring, breakdown, extra-queries,
   micro, checkpoint-overhead, fuzz-perf, or the groups figures,
   ablations and all. End-to-end Real-backend timing lives in
   e2ebench/. *)

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
    ("BENCH_4.json", "checkpoint-overhead");
    ("BENCH_5.json", "fuzz-perf");
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
   l = 52 for cent-precision sums. Annotation products are OT-based,
   l*kappa + l(l+1)/2 bits each way, and the remaining circuits (PSI
   payloads, merge chains) are ~O(l), so this measures what the wider
   ring costs. *)
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

let all_sections =
  [
    ("figure2", figure2); ("figure3", figure3); ("figure4", figure4);
    ("figure5", figure5); ("figure6", figure6);
    ("ablation-psi", ablation_psi); ("ablation-gc", ablation_gc);
    ("ablation-ring", ablation_ring); ("breakdown", breakdown);
    ("extra-queries", extra_queries); ("micro", micro);
    ("checkpoint-overhead", checkpoint_overhead); ("fuzz-perf", fuzz_perf);
  ]

let () =
  let requested =
    match List.tl (Array.to_list Sys.argv) with
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

