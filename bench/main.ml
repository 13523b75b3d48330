(* The paper's evaluation (§8.3). Figures 2-6: for each TPC-H query (Q3,
   Q10, Q18, Q8, Q9) and dataset scale, the running time and
   communication of secure Yannakakis, of the garbled-circuit baseline
   (calibrated on real garbling, extrapolated by exact gate count, as in
   the paper) and of the plaintext run (communication = input size,
   §8.2), printed and written to BENCH_1.json. One ablation varies the
   annotation ring width of one constrained join. Every context garbles
   for real; OEP stays dealer-simulated (DESIGN.md §2 item 5). Sections
   (argv): figure2 .. figure6, ablation-ring, or the groups figures,
   ablations and all (the default). *)

open Secyan_crypto
open Secyan_relational
open Secyan_obs
module Datagen = Secyan_tpch.Datagen
module Queries = Secyan_tpch.Queries
module Cartesian_gc = Secyan_smcql.Cartesian_gc

let seed = 20210618L (* SIGMOD'21 *)

let line fmt = Printf.printf (fmt ^^ "\n%!")

let banner title =
  let rule = String.make 100 '-' in
  line "%s\n%s\n%s" rule title rule

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let megabytes bytes = bytes /. (1024. *. 1024.)

(* ------------------------------------------------------------------ *)
(* Figures *)

(* What one figure point runs on a generated dataset. *)
type spec = {
  inner : Secyan.Query.t;
      (* one inner query: the input size, and what the baseline evaluates *)
  gc_runs : int;  (* inner queries the baseline evaluates for the answer *)
  factor : int;  (* runs of [run]'s shape the answer takes; > 1 extrapolates *)
  run : Context.t -> Comm.tally;
  plaintext : unit -> unit;
}

let records = ref []

(* The garbled-circuit baseline's rate on Q3 at xs: run the real garbler
   over a few product rows and time it per AND gate (the median of five
   runs after a warm-up). Each figure calibrates at its start, so its
   baseline columns share the host speed of its secure columns. *)
let calibrate_seconds_per_and () =
  let q = Queries.q3 (Datagen.generate ~sf:(Datagen.preset_sf "xs") ~seed) in
  let lo, median, hi = Cartesian_gc.calibrate ~seed q ~rows:32 in
  line
    "(garbled-circuit baseline calibrated: %.3g s per AND gate, median of 5 runs, min %.3g, \
     max %.3g; real half-gates garbling)"
    median lo hi;
  median

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

(* Secure runs per figure point: one timing of a shared host is noise. *)
let runs_per_point = 3

(* One figure point: print its row, record it, and return its scale and
   the baseline / secure Yannakakis ratios in time and communication. The
   secure run executes [runs_per_point] times, each on a fresh context
   under a tracer; the point takes the median time and that run's
   per-phase breakdown (unscaled). The tracer adds only span bookkeeping
   to the timed region. The runs' tallies are deterministic, so they must
   agree. *)
let measure ~section ~query ~scale ~sf ~seconds_per_and s =
  let runs =
    List.init runs_per_point (fun _ ->
        let ctx = Queries.context ~gc_backend:Context.Real ~seed () in
        time (fun () -> Trace.with_tracing ~name:query ctx (fun () -> s.run ctx)))
  in
  let tally = fst (fst (List.hd runs)) in
  if not (List.for_all (fun ((t, _), _) -> Comm.equal t tally) runs) then
    failwith (Printf.sprintf "%s at %s: the secure runs' tallies differ" query scale);
  let (_, root), secyan_s =
    List.nth (List.sort (fun (_, a) (_, b) -> Float.compare a b) runs) (runs_per_point / 2)
  in
  let (), plain_s = time s.plaintext in
  let eff = float_of_int (Queries.effective_input_bytes s.inner) in
  let est = Cartesian_gc.estimate ~seconds_per_and s.inner in
  let f = float_of_int s.factor and g = float_of_int s.gc_runs in
  let secyan_s = f *. secyan_s and secyan_mb = f *. Comm.total_megabytes tally in
  let rounds = s.factor * tally.Comm.rounds in
  let gc_s = g *. est.Cartesian_gc.seconds and gc_mb = g *. megabytes est.Cartesian_gc.comm_bytes in
  line "%-6s %12.1f %10.3f %11.2f %7d %12.3g %13.3g %9.4f %10.3f"
    (if s.factor > 1 then scale ^ "*" else scale)
    (eff /. 1024.) secyan_s secyan_mb rounds gc_s gc_mb plain_s (megabytes eff);
  records :=
    Json.Obj
      [
        ("section", Json.Str section);
        ("query", Json.Str query);
        ("scale", Json.Str scale);
        ("sf", Json.Float sf);
        ("eff_input_kb", Json.Float (eff /. 1024.));
        ("secyan_seconds", Json.Float secyan_s);
        ("secyan_mb", Json.Float secyan_mb);
        ("rounds", Json.Int rounds);
        ("secyan_extrapolated", Json.Bool (s.factor > 1));
        ("gc_seconds_extrapolated", Json.Float gc_s);
        ("gc_mb_extrapolated", Json.Float gc_mb);
        ("plain_seconds", Json.Float plain_s);
        ("plain_mb", Json.Float (megabytes eff));
        ("phases", phase_breakdown root);
      ]
    :: !records;
  (scale, gc_s /. secyan_s, gc_mb /. secyan_mb)

let figure ~section ~title ~query spec () =
  let seconds_per_and = calibrate_seconds_per_and () (* before the table prints *) in
  banner title;
  line "%-6s %12s %10s %11s %7s %12s %13s %9s %10s" "scale" "eff-input-KB" "secyan-s"
    "secyan-MB" "rounds" "gc-s(extr.)" "gc-MB(extr.)" "plain-s" "plain-MB";
  let last =
    List.fold_left
      (fun _ (scale, sf) ->
        (* settle the heap so one point's garbage does not time the next *)
        Gc.compact ();
        Some
          (measure ~section ~query ~scale ~sf ~seconds_per_and
             (spec (Datagen.generate ~sf ~seed) ~sf)))
      None Datagen.presets
  in
  (* the paper's headline: who wins and by how much at the largest scale *)
  Option.iter
    (fun (scale, t, c) ->
      line "  -> at %s: garbled circuit / secure yannakakis = %.3gx time, %.3gx communication"
        scale t c)
    last

let single make d ~sf:_ =
  let q = make d in
  {
    inner = q;
    gc_runs = 1;
    factor = 1;
    run = (fun ctx -> (snd (Secyan.Secure_yannakakis.run ctx q)).Secyan.Secure_yannakakis.tally);
    plaintext = (fun () -> ignore (Secyan.Query.plaintext q));
  }

(* Q8: two secure runs over the same relations (numerator and denominator
   annotations) + a division circuit per year (query composition). *)
let q8 d ~sf:_ =
  {
    inner = Queries.q8_inner d ~numerator:true;
    gc_runs = 2;
    factor = 1;
    run = (fun ctx -> (Queries.run_q8 ctx d).Queries.tally);
    plaintext = (fun () -> ignore (Queries.q8_plaintext d));
  }

(* Q9: 25 per-nation decompositions x 2 aggregates. At the two smallest
   scales all 25 nations run; above that one nation runs and the secure
   columns are scaled by 25. Nations differ only in the words each
   reveals per output year, so at xs/s 25 x nation 2 is within 0.02% of
   the bits of all 25 runs (rounds within 0.3%). *)
let q9 d ~sf =
  let nations, factor =
    if sf <= 1.5e-4 then (List.init Datagen.n_nations Fun.id, 1) else ([ 2 ], Datagen.n_nations)
  in
  {
    inner = Queries.q9_inner d ~nationkey:2 ~volume:true;
    gc_runs = 2 * Datagen.n_nations;
    factor;
    run = (fun ctx -> (Queries.run_q9 ~nations ctx d).Queries.tally);
    plaintext = (fun () -> ignore (Queries.q9_plaintext d));
  }

let write_bench_1 () =
  if !records <> [] then begin
    let doc =
      Json.Obj
        [
          ("harness", Json.Str "secyan-bench");
          ("section", Json.Str "figures");
          ("backend", Json.Str "real");
          ("seed", Json.Str (Int64.to_string seed));
          ("cores", Json.Int (Domain.recommended_domain_count ()));
          ("records", Json.List (List.rev !records));
        ]
    in
    Out_channel.with_open_text "BENCH_1.json" (fun oc ->
        output_string oc (Json.to_string doc ^ "\n"));
    line "wrote BENCH_1.json (%d records)" (List.length !records)
  end

(* ------------------------------------------------------------------ *)
(* Ablations *)

(* One Q3-shaped constrained join per ring width: an Alice-owned L(a, b)
   of 1000 rows into a Bob-owned R(b) of 200 keys. The paper uses
   l = 32; our TPC-H queries need l = 52 for cent-precision sums.
   Annotation products are OT-based, l*kappa + l(l+1)/2 bits each way,
   and the remaining circuits are ~O(l). *)
let ablation_ring () =
  banner "Ablation: annotation ring width (Q3-shaped constrained join, 1000 tuples)";
  line "%-6s %10s %10s %7s" "bits" "secs" "MB" "rounds";
  let n = 1000 and keys = 200 in
  let left =
    Relation.of_list ~name:"L" ~schema:(Schema.of_list [ "a"; "b" ])
      (List.init n (fun i -> ([| Value.Int i; Value.Int (i mod keys) |], 1L)))
  in
  let right =
    Relation.of_list ~name:"R" ~schema:(Schema.of_list [ "b" ])
      (List.init keys (fun i -> ([| Value.Int i |], Int64.of_int (i + 1))))
  in
  List.iter
    (fun bits ->
      let ctx = Context.create ~bits ~gc_backend:Context.Real ~seed () in
      let sl = Secyan.Shared_relation.of_plain ctx ~owner:Party.Alice left in
      let sr = Secyan.Shared_relation.of_plain ctx ~owner:Party.Bob right in
      let before = Context.tally ctx in
      let (_ : Secyan.Shared_relation.t), secs =
        time (fun () ->
            Secyan.Oblivious_semijoin.join_constrained ctx (Semiring.ring ~bits) ~left:sl
              ~right:sr)
      in
      let t = Comm.diff (Context.tally ctx) before in
      line "%-6d %10.3f %10.2f %7d" bits secs (Comm.total_megabytes t) t.Comm.rounds)
    [ 16; 32; 48; 52; 60 ]

(* ------------------------------------------------------------------ *)

let figures =
  [
    ("figure2", "Q3", "Figure 2: TPC-H Query 3", single Queries.q3);
    ("figure3", "Q10", "Figure 3: TPC-H Query 10", single Queries.q10);
    ("figure4", "Q18", "Figure 4: TPC-H Query 18", single (fun d -> Queries.q18 d));
    ("figure5", "Q8", "Figure 5: TPC-H Query 8 (ratio of two sums, composed per section 7)", q8);
    ( "figure6", "Q9",
      "Figure 6: TPC-H Query 9 (25 per-nation queries x 2 aggregates; * = one nation run, \
       secyan columns x25)",
      q9 );
  ]

let sections =
  List.map
    (fun (section, query, title, spec) -> (section, figure ~section ~query ~title spec))
    figures
  @ [ ("ablation-ring", ablation_ring) ]

let groups =
  [
    ("figures", List.map (fun (section, _, _, _) -> section) figures);
    ("ablations", [ "ablation-ring" ]);
    ("all", List.map fst sections);
  ]

let () =
  let requested =
    match List.tl (Array.to_list Sys.argv) with [] -> [ "all" ] | args -> args
  in
  let names =
    List.concat_map
      (fun n -> Option.value ~default:[ n ] (List.assoc_opt n groups))
      requested
  in
  (match List.filter (fun n -> not (List.mem_assoc n sections)) names with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown section %s; valid: %s, or the groups %s\n"
        (String.concat ", " unknown)
        (String.concat ", " (List.map fst sections))
        (String.concat ", " (List.map fst groups));
      exit 2);
  (* a roomy minor heap: the oblivious operators allocate heavily *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024; space_overhead = 200 };
  line "secure-yannakakis benchmark harness (seed %Ld, Real garbling, dealer-simulated OEP)" seed;
  line "paper scales 1/3/10/33/100 MB map to presets xs/s/m/l/xl (DESIGN.md section 4)";
  List.iter (fun n -> (List.assoc n sections) ()) names;
  write_bench_1 ()
