(* End-to-end, layer-attributed benchmark of Secure Yannakakis.

   One closed loop (one client, one query in flight, one process) runs a
   workload's query for a fixed wall-clock budget, checks every answer
   against the plaintext oracle, and prints every metric by name with its
   unit; the last stdout line is the JSON result. [--trace 1] instead runs
   the per-layer measurement: untraced/traced pairs of one execution each,
   the public tracer's span tree, pool timelines, a timed transport, and
   the GC kernels on a fixed circuit. Everything is measured from outside
   the library. See README.md for the workloads, metrics and network
   model. *)

open Secyan_crypto
module Sy = Secyan.Secure_yannakakis
module Query = Secyan.Query
module Datagen = Secyan_tpch.Datagen
module Queries = Secyan_tpch.Queries
module Json = Secyan_obs.Json
module Span = Secyan_obs.Span
module Trace = Secyan_obs.Trace
module Transport = Secyan_net.Transport
module Resilient = Secyan_net.Resilient
module Relation = Secyan_relational.Relation
module Tuple = Secyan_relational.Tuple

let default_seed = 20210618L

(* The protocol's own randomness is fixed: the workload seed drives data
   generation only, so the library sees nothing but the relations. *)
let protocol_seed = 20210618L

(* Public sizes, and so the exact cost, vary with the data: Q3 at scale s
   takes 63 to 83 rounds depending on the seed (an empty result skips the
   order phase). One run therefore measures several datasets derived from
   its seed, and reports their mean cost and the median time over all of
   them, which keeps a run's figures steady from seed to seed. *)
let datasets_per_run = 6

(* Network model for the projected times: bandwidth (bit/s), round trip (s). *)
let lan_bits_per_s = 1e9
let lan_rtt_s = 0.5e-3
let wan_bits_per_s = 1e8
let wan_rtt_s = 40e-3

let mib = 1048576.

type workload = {
  name : string;
  query : Datagen.dataset -> Query.t;
  scale : string;
  backend : Context.gc_backend;
  domains : int;
  tcp : bool;
}

let workloads =
  [
    { name = "q3-real"; query = Queries.q3; scale = "s"; backend = Context.Real; domains = 1;
      tcp = false };
    { name = "q18-sim"; query = (fun d -> Queries.q18 d); scale = "m"; backend = Context.Sim;
      domains = 1; tcp = false };
    { name = "q10-tcp-2d"; query = Queries.q10; scale = "s"; backend = Context.Real;
      domains = 2; tcp = true };
  ]

let backend_name = function Context.Real -> "real" | Context.Sim -> "sim"
let now = Unix.gettimeofday

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio a b = if b = 0. then 0. else a /. b

(* Dataset [k] of a run: the run's seed itself, then seeds spaced far
   apart so that neighbouring run seeds share no dataset. *)
let dataset_seeds seed n = List.init n (fun k -> Int64.add seed (Int64.of_int (k * 1_000_003)))

(* ---- the timed transport ----------------------------------------------- *)

type net = {
  mutable send_s : float;
  mutable recv_s : float;
  mutable frames : int;
  mutable wire_bytes : int;
}

let net = { send_s = 0.; recv_s = 0.; frames = 0; wire_bytes = 0 }

let reset_net () =
  net.send_s <- 0.;
  net.recv_s <- 0.;
  net.frames <- 0;
  net.wire_bytes <- 0

(* Time every raw frame operation below [Resilient]: framing, CRC and
   envelope work happen inside these calls or above them. *)
let timed_raw (raw : Transport.raw) =
  {
    raw with
    Transport.send_frame =
      (fun dir frame ->
        let t0 = now () in
        raw.Transport.send_frame dir frame;
        net.send_s <- net.send_s +. (now () -. t0);
        net.frames <- net.frames + 1;
        net.wire_bytes <- net.wire_bytes + Bytes.length frame);
    recv_frame =
      (fun dir ~deadline ->
        let t0 = now () in
        let r = raw.Transport.recv_frame dir ~deadline in
        net.recv_s <- net.recv_s +. (now () -. t0);
        r);
  }

(* ---- set-up ------------------------------------------------------------ *)

type dataset = {
  q : Query.t;
  expected : (string * int64) list;  (** the oracle's rows, in query order *)
}

let rows = List.map (fun (t, a) -> (Tuple.repr t, a))

let make_context ?(timed = false) w =
  let transport =
    if w.tcp then
      let raw = Transport.tcp () in
      let raw = if timed then timed_raw raw else raw in
      let config = { Resilient.default_config with sleep = Unix.sleepf } in
      Some (Resilient.create ~config ~seed:protocol_seed raw)
    else None
  in
  let ctx =
    Queries.context ~gc_backend:w.backend ~domains:w.domains ?transport ~seed:protocol_seed ()
  in
  if w.domains > 1 then ignore (Context.pool ctx : Domain_pool.t);
  ctx

let close_context ctx =
  Context.close_transport ctx;
  Context.shutdown_pool ctx

let with_oracle q = { q; expected = rows (Query.ordered_rows q (Query.plaintext q)) }

(* Generate the data, build the query and create the context: the work
   [setup_s] reports. *)
let setup ?timed w ~sf seed =
  let t0 = now () in
  let q = w.query (Datagen.generate ~sf ~seed) in
  let ctx = make_context ?timed w in
  (q, ctx, now () -. t0)

(* ---- one execution ----------------------------------------------------- *)

let protocol_counters =
  Trace_sink.[ And_gates; Ots; Oep_switches; Cuckoo_bins; B2a_words; Gc_circuits ]

let counter (c : int array) k = c.(Trace_sink.counter_index k)

type exec = {
  secs : float;
  tally : Comm.tally;
  counters : int array;  (** this execution's counter deltas *)
  correct : bool;
  n_rows : int;
}

(* Each execution starts from a fully collected heap, so its time does not
   depend on garbage an earlier one left behind. *)
let execute ctx ds =
  Gc.full_major ();
  let c0 = Context.counter_totals ctx in
  let t0 = now () in
  let revealed, r = Sy.run ctx ds.q in
  let secs = now () -. t0 in
  let counters = Array.map2 ( - ) (Context.counter_totals ctx) c0 in
  (* every workload's query is ordered: rows are compared in query order *)
  let got = rows (Relation.nonzero revealed) in
  { secs; tally = r.Sy.tally; counters; correct = got = ds.expected; n_rows = List.length got }

(* Cost is a function of public sizes alone, so two executions over the
   same data must agree exactly on bits, rounds and every protocol
   counter; drift is a failure, not a metric change. *)
let same_cost a b =
  Comm.equal a.tally b.tally
  && List.for_all (fun k -> counter a.counters k = counter b.counters k) protocol_counters

type gate = { mutable attempted : int; mutable failed : int }

(* Run one execution under the correctness and cost gate: [reference] is
   the first execution over the same data, if any. *)
let checked gate ~reference f =
  gate.attempted <- gate.attempted + 1;
  let fail why =
    gate.failed <- gate.failed + 1;
    Printf.eprintf "execution %d failed: %s\n%!" gate.attempted why
  in
  match f () with
  | exception e ->
      fail (Printexc.to_string e);
      None
  | e ->
      if not e.correct then fail "revealed rows differ from the plaintext oracle"
      else (
        match reference with
        | Some r when not (same_cost r e) -> fail "cost differs from the first execution"
        | _ -> ());
      Some e

(* ---- results ------------------------------------------------------------ *)

let print_line name fields = print_endline (name ^ " " ^ Json.to_string (Json.Obj fields))

let print_result gate metrics =
  let metric (name, value, unit) =
    (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.Str unit) ])
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (gate.failed = 0));
            ("attempted", Json.Int gate.attempted);
            ("failed", Json.Int gate.failed);
            ("metrics", Json.Obj (List.map metric metrics));
          ]))

let cost_fields (e : exec) =
  [
    ("a_to_b_bits", Json.Int e.tally.Comm.alice_to_bob_bits);
    ("b_to_a_bits", Json.Int e.tally.Comm.bob_to_alice_bits);
    ("rounds", Json.Int e.tally.Comm.rounds);
    ("and_gates", Json.Int (counter e.counters Trace_sink.And_gates));
    ("rows", Json.Int e.n_rows);
  ]

(* The process's top of heap, read after a run's first execution: the
   memory one query needs in a fresh process. Later executions only add
   fragmentation, since OCaml 5.1 never compacts the major heap. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. mib

(* ---- host speed ------------------------------------------------------- *)

(* The host's CPU speed drifts, by up to ~1.8x over minutes, with other
   tenants' load. A fixed calibration mix, independent of the library,
   runs before every execution and once at the end of the run, and the
   end-to-end times are scaled to a reference host on which one
   calibration takes [reference_calibration_s]. *)
let reference_calibration_s = 0.2

let calib_tables = Array.init 1024 (fun i -> (i * 2654435761) land 0xffffffff)
let calib_data = Array.init (1 lsl 19) (fun i -> (i * 7919) land 0xfffff)

(* Table lookups over 8 KiB, the shape of a byte-wise AES round; then
   random reads over 4 MiB and short-lived allocation. *)
let calibrate () =
  let t = calib_tables in
  let t0 = now () in
  let s0 = ref 1 and s1 = ref 2 and s2 = ref 3 and s3 = ref 4 in
  for _ = 1 to 8_000_000 do
    let a =
      t.(!s0 land 255)
      lxor t.(256 + ((!s1 lsr 8) land 255))
      lxor t.(512 + ((!s2 lsr 16) land 255))
      lxor t.(768 + ((!s3 lsr 24) land 255))
    in
    let b =
      t.(!s1 land 255)
      lxor t.(256 + ((!s2 lsr 8) land 255))
      lxor t.(512 + ((!s3 lsr 16) land 255))
      lxor t.(768 + ((!s0 lsr 24) land 255))
    in
    s0 := !s2 lxor a;
    s1 := !s3 lxor b;
    s2 := a;
    s3 := b
  done;
  let mask = Array.length calib_data - 1 in
  let acc = ref 0 and live = ref [] in
  for r = 1 to 8 do
    for i = 0 to 65535 do
      let j = ((i * 40503) + (r * 977) + !acc) land mask in
      acc := ((!acc * 31) + calib_data.(j)) land 0xffffff
    done;
    live := List.init 20_000 (fun k -> (k, !acc)) :: (match !live with x :: _ -> [ x ] | [] -> [])
  done;
  ignore (Sys.opaque_identity (!s0 + !s1, !acc, !live));
  now () -. t0

(* ---- the end-to-end run (--trace 0) ------------------------------------ *)

let end_to_end w ~sf ~seed ~seconds ~n_datasets =
  let seeds = Array.of_list (dataset_seeds seed n_datasets) in
  let datasets = Array.make n_datasets None in
  let gate = { attempted = 0; failed = 0 } in
  let first = Array.make n_datasets None in
  let times = ref [] and setups = ref [] and peak_heap = ref 0. and calibs = ref [] in
  let deadline = now () +. seconds in
  let i = ref 0 in
  (* every dataset runs at least once, so the cost figures are exact *)
  while !i < n_datasets || now () < deadline do
    let k = !i mod n_datasets in
    calibs := calibrate () :: !calibs;
    (* Every execution gets its own set-up, so set-up is sampled all over
       the run and no state carries from one execution to the next. *)
    let q, ctx, secs = setup w ~sf seeds.(k) in
    setups := secs :: !setups;
    let ds =
      match datasets.(k) with
      | Some ds -> ds
      | None ->
          let ds = with_oracle q in
          datasets.(k) <- Some ds;
          ds
    in
    (match checked gate ~reference:first.(k) (fun () -> execute ctx ds) with
    | Some e ->
        if !times = [] then peak_heap := peak_heap_mb ();
        times := e.secs :: !times;
        if first.(k) = None then first.(k) <- Some e
    | None -> ());
    close_context ctx;
    incr i
  done;
  calibs := calibrate () :: !calibs;
  let host = reference_calibration_s /. mean !calibs in
  let firsts = List.filter_map Fun.id (Array.to_list first) in
  Array.iteri
    (fun k seed ->
      match first.(k) with
      | Some e -> print_line "dataset" (("seed", Json.Str (Int64.to_string seed)) :: cost_fields e)
      | None -> ())
    seeds;
  let bits = mean (List.map (fun e -> float_of_int (Comm.total_bits e.tally)) firsts) in
  let rounds = mean (List.map (fun e -> float_of_int e.tally.Comm.rounds) firsts) in
  let query_s = median !times *. host in
  print_line "samples"
    [ ("executions", Json.Int (List.length !times)); ("datasets", Json.Int n_datasets);
      ("raw_query_s", Json.List (List.rev_map (fun s -> Json.Float s) !times));
      ("calibration_s", Json.List (List.rev_map (fun s -> Json.Float s) !calibs));
      ("host_factor", Json.Float host) ];
  ( gate,
    [
      ("query_s", query_s, "s");
      ("setup_s", median !setups *. host, "s");
      ("comm_mb", bits /. 8. /. mib, "MiB");
      ("rounds", rounds, "count");
      ("lan_s", query_s +. (bits /. lan_bits_per_s) +. (rounds *. lan_rtt_s), "s");
      ("wan_s", query_s +. (bits /. wan_bits_per_s) +. (rounds *. wan_rtt_s), "s");
      ("peak_heap_mb", !peak_heap, "MiB");
    ] )

(* ---- per-layer attribution (--trace 1) --------------------------------- *)

let has_prefix prefixes (s : Span.t) =
  List.exists (fun prefix -> String.starts_with ~prefix s.Span.name) prefixes

(* Sum [f] over every span whose name starts with one of [prefixes]. *)
let sum_spans prefixes f root =
  let acc = ref 0. in
  Span.iter (fun ~depth:_ ~path:_ s -> if has_prefix prefixes s then acc := !acc +. f s) root;
  !acc

(* Inclusive seconds of a span family, counting only its outermost spans. *)
let rec family_s prefixes (s : Span.t) =
  if has_prefix prefixes s then s.Span.dur_s
  else List.fold_left (fun acc c -> acc +. family_s prefixes c) 0. (Span.children s)

let self_s (s : Span.t) =
  s.Span.dur_s -. List.fold_left (fun acc c -> acc +. c.Span.dur_s) 0. (Span.children s)

let self_mb (s : Span.t) = float_of_int (Comm.total_bits (Span.self_tally s)) /. 8. /. mib

(* Minor words allocated by the calling domain inside [gc:*] spans,
   measured by wrapping the tracer's sink. *)
let gc_minor_words = ref 0.

let with_gc_alloc_probe ctx f =
  let inner = ctx.Context.sink in
  let stack = ref [] in
  Context.set_sink ctx
    {
      inner with
      Trace_sink.enter =
        (fun name ->
          inner.Trace_sink.enter name;
          stack := (String.starts_with ~prefix:"gc:" name, Gc.minor_words ()) :: !stack);
      exit =
        (fun () ->
          (match !stack with
          | (gc, w0) :: rest ->
              if gc then gc_minor_words := !gc_minor_words +. (Gc.minor_words () -. w0);
              stack := rest
          | [] -> ());
          inner.Trace_sink.exit ());
    };
  Fun.protect ~finally:(fun () -> Context.set_sink ctx inner) f

let pool_fracs ctx =
  match Context.pool_opt ctx with
  | Some pool when Domain_pool.size pool > 1 ->
      let tl = Domain_pool.timelines pool in
      let sum f = List.fold_left (fun acc t -> acc +. f t) 0. tl in
      let wall = sum (fun t -> t.Domain_pool.wall_ns) in
      ( ratio (sum (fun t -> t.Domain_pool.busy_ns)) wall,
        ratio (sum (fun t -> t.Domain_pool.queue_wait_ns)) wall,
        ratio (sum (fun t -> t.Domain_pool.lock_wait_ns)) wall )
  | _ -> (0., 0., 0.)

let retries ctx =
  match ctx.Context.transport with
  | Some tr -> (Resilient.stats tr).Resilient.retries
  | None -> 0

(* The layer metrics of one traced execution. *)
let layer_metrics ctx (e : exec) root ~retries =
  let ands = float_of_int (counter e.counters Trace_sink.And_gates) in
  let count k = float_of_int (Span.counter root k) in
  let gc_shares = sum_spans [ "gc:shares" ] self_s root in
  let gc_reveal = sum_spans [ "gc:reveal" ] self_s root in
  let busy, queue_wait, lock_wait = pool_fracs ctx in
  let phase name = family_s [ "phase:" ^ name ] root in
  [
    ("phase.share_s", phase "share", "s");
    ("phase.reduce_s", phase "reduce", "s");
    ("phase.semijoin_s", phase "semijoin", "s");
    ("phase.join_s", phase "join", "s");
    ("phase.order_s", phase "order", "s");
    ("op.agg_s", family_s [ "agg:"; "agg1:" ] root, "s");
    ("op.join_constrained_s", family_s [ "join-constrained:" ] root, "s");
    ("op.semijoin_s", family_s [ "semijoin:" ] root, "s");
    ("op.oblivious_join_s", family_s [ "oblivious-join" ] root, "s");
    ("op.sort_s", family_s [ "sort:" ] root, "s");
    ("gc.shares_self_s", gc_shares, "s");
    ("gc.reveal_self_s", gc_reveal, "s");
    ("oep.self_s", sum_spans [ "oep:" ] self_s root, "s");
    ("psi.self_s", sum_spans [ "psi:" ] self_s root, "s");
    ("oprf.self_s", sum_spans [ "oprf:" ] self_s root, "s");
    ("gc.mb", sum_spans [ "gc:" ] self_mb root, "MiB");
    ("oep.mb", sum_spans [ "oep:" ] self_mb root, "MiB");
    ("psi.mb", sum_spans [ "psi:" ] self_mb root, "MiB");
    ("gc.and_gates", ands, "count");
    ("gc.circuits", count Trace_sink.Gc_circuits, "count");
    ("gc.ots", count Trace_sink.Ots, "count");
    ("gc.b2a_words", count Trace_sink.B2a_words, "count");
    ("oep.switches", count Trace_sink.Oep_switches, "count");
    ("psi.cuckoo_bins", count Trace_sink.Cuckoo_bins, "count");
    ("comm.sends", float_of_int (Span.sends root), "count");
    ("gc.query_ns_per_and", ratio ((gc_shares +. gc_reveal) *. 1e9) ands, "ns");
    ("gc.minor_words_per_and", ratio !gc_minor_words ands, "words");
    ("pool.busy_frac", busy, "ratio");
    ("pool.queue_wait_frac", queue_wait, "ratio");
    ("pool.lock_wait_frac", lock_wait, "ratio");
    ("net.send_s", net.send_s, "s");
    ("net.recv_s", net.recv_s, "s");
    ("net.frames", float_of_int net.frames, "count");
    ("net.wire_mb", float_of_int net.wire_bytes /. mib, "MiB");
    ("net.retries", float_of_int retries, "count");
    ( "net.wire_per_tally",
      ratio (float_of_int net.wire_bytes) (float_of_int (Comm.total_bytes e.tally)),
      "ratio" );
  ]

(* Median seconds per call of [f], over at least five calls and [budget]
   seconds, after one warm-up call. *)
let time_kernel ~budget f =
  f ();
  let samples = ref [] and n = ref 0 in
  let t_end = now () +. budget in
  while !n < 5 || now () < t_end do
    let t0 = now () in
    f ();
    samples := (now () -. t0) :: !samples;
    incr n
  done;
  median !samples

(* The GC stages on a fixed ring-width multiply-add circuit, x * y + z:
   build, clear evaluation (the Sim backend's work), garble and evaluate
   (the Real backend's), and one fixed-key AES label hash. *)
let kernel_metrics ~budget =
  let module B = Boolean_circuit.Builder in
  let build () =
    let b = B.create () in
    let word () = Circuits.input_word b Queries.ring_bits in
    let x = word () and y = word () and z = word () in
    let out = Circuits.add_word b (Circuits.mul_word b x y) z in
    B.finalize b ~outputs:(Circuits.materialize_word b 0 out)
  in
  let c = build () in
  let ns_per_and s = s *. 1e9 /. float_of_int (Boolean_circuit.and_count c) in
  let prg = Prg.create 7L in
  let inputs = Array.init c.Boolean_circuit.n_inputs (fun _ -> Prg.bool prg) in
  let kdf = Garbling.Aes128_kdf in
  let arena = Garbling.Arena.create () in
  let build_s = time_kernel ~budget (fun () -> ignore (build () : Boolean_circuit.t)) in
  let clear_s = time_kernel ~budget (fun () -> ignore (Boolean_circuit.eval c inputs : bool array)) in
  let garble_s =
    time_kernel ~budget (fun () -> ignore (Garbling.garble ~kdf ~arena prg c : Garbling.garbled))
  in
  let g = Garbling.garble ~kdf ~arena prg c in
  let eval_s =
    time_kernel ~budget (fun () ->
        ignore (Garbling.eval_colors ~kdf ~arena g (Array.get inputs) : Bytes.t))
  in
  let hashes = 10_000 in
  let label = Garbling.Label.random prg in
  let hash_s =
    time_kernel ~budget (fun () ->
        let l = ref label in
        for i = 1 to hashes do
          l := Garbling.Label.hash_aes !l ~tweak:(Int64.of_int i)
        done)
  in
  [
    ("kernel.build_ns_per_and", ns_per_and build_s, "ns");
    ("kernel.clear_eval_ns_per_and", ns_per_and clear_s, "ns");
    ("kernel.garble_ns_per_and", ns_per_and garble_s, "ns");
    ("kernel.eval_ns_per_and", ns_per_and eval_s, "ns");
    ("kernel.aes_hash_ns", hash_s *. 1e9 /. float_of_int hashes, "ns");
  ]

(* Sim and Real account identically: a Real workload's traced execution
   is compared with the same data under Sim (fresh context, one domain, no
   transport). The Sim workload's Real twin would take ~15 s at its scale,
   so it compares both backends on the same query at scale xs instead. *)
let sim_real_equal w ~seed ~ds ~traced =
  let fresh backend ds =
    let ctx = make_context { w with backend; domains = 1; tcp = false } in
    let e = Fun.protect ~finally:(fun () -> close_context ctx) (fun () -> execute ctx ds) in
    if not e.correct then failwith "twin execution disagrees with the oracle";
    e
  in
  match w.backend with
  | Context.Real -> same_cost traced (fresh Context.Sim ds)
  | Context.Sim ->
      let ds = with_oracle (w.query (Datagen.generate ~sf:(Datagen.preset_sf "xs") ~seed)) in
      same_cost (fresh Context.Sim ds) (fresh Context.Real ds)

(* Per-metric medians over the traced executions; every sample lists the
   same metrics in the same order. *)
let medians = function
  | [] -> []
  | first :: _ as samples ->
      List.mapi
        (fun i (name, _, unit) ->
          (name, median (List.map (fun s -> let _, v, _ = List.nth s i in v) samples), unit))
        first

let per_layer w ~sf ~seed ~seconds ~kernel_budget =
  let q, ctx, _ = setup ~timed:true w ~sf seed in
  let ds = with_oracle q in
  let gate = { attempted = 0; failed = 0 } in
  let reference = ref None and last = ref None in
  let untraced = ref [] and traced = ref [] and samples = ref [] in
  let keep e = if !reference = None then reference := Some e in
  (* A warm-up execution, also the cost reference, keeps the cold start
     out of the first pair and so out of [trace.overhead_frac]. *)
  Option.iter keep (checked gate ~reference:None (fun () -> execute ctx ds));
  let pairs = ref 0 in
  let deadline = now () +. seconds in
  while !pairs = 0 || now () < deadline do
    (match checked gate ~reference:!reference (fun () -> execute ctx ds) with
    | Some e ->
        untraced := e.secs :: !untraced;
        keep e
    | None -> ());
    reset_net ();
    gc_minor_words := 0.;
    Option.iter Domain_pool.reset_timelines (Context.pool_opt ctx);
    let retries0 = retries ctx in
    (* the registry drives the pool's timelines *)
    Secyan_metrics.set_enabled true;
    let r, root =
      Trace.with_tracing ~name:w.name ctx (fun () ->
          with_gc_alloc_probe ctx (fun () ->
              checked gate ~reference:!reference (fun () -> execute ctx ds)))
    in
    Secyan_metrics.set_enabled false;
    (match r with
    | Some e ->
        traced := e.secs :: !traced;
        let layers = layer_metrics ctx e root ~retries:(retries ctx - retries0) in
        (* kernels timed next to each traced execution, so the ratio
           compares figures taken at the same host speed *)
        let kernels = kernel_metrics ~budget:kernel_budget in
        let value name l = List.fold_left (fun acc (n, v, _) -> if n = name then v else acc) 0. l in
        let macro_micro =
          ratio (value "gc.query_ns_per_and" layers)
            (value "kernel.garble_ns_per_and" kernels +. value "kernel.eval_ns_per_and" kernels)
        in
        samples := (layers @ kernels @ [ ("gc.macro_micro_ratio", macro_micro, "ratio") ]) :: !samples;
        keep e;
        last := Some e
    | None -> ());
    incr pairs
  done;
  let sim_real =
    match !last with
    | None -> false
    | Some traced -> (
        try sim_real_equal w ~seed ~ds ~traced
        with e ->
          Printf.eprintf "Sim/Real twin failed: %s\n%!" (Printexc.to_string e);
          false)
  in
  close_context ctx;
  print_line "samples" [ ("pairs", Json.Int !pairs); ("traced", Json.Int (List.length !traced)) ];
  ( gate,
    medians !samples
    @ [
        ("trace.overhead_frac", ratio (median !traced) (median !untraced) -. 1., "ratio");
        ("check.sim_real_equal", (if sim_real then 1. else 0.), "bool");
        ( "check.failed_frac",
          ratio (float_of_int gate.failed) (float_of_int gate.attempted),
          "ratio" );
      ] )

(* ---- command line ------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10. in
  let trace = ref 0 and smoke = ref false in
  let names = String.concat ", " (List.map (fun w -> w.name) workloads) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ names);
      ( "--seed",
        Arg.String
          (fun s ->
            match Int64.of_string_opt s with
            | Some v -> seed := v
            | None -> raise (Arg.Bad ("--seed: not an integer: " ^ s))),
        "N data-generation seed (default 20210618)" );
      ("--seconds", Arg.Set_float seconds, "S measured wall-clock budget of the run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--smoke", Arg.Set smoke, " one execution at scale xs (the benchmark's own check)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (expected one of %s)\n" !workload names;
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then (
    prerr_endline "--trace must be 0 or 1";
    exit 2);
  let scale = if !smoke then "xs" else w.scale in
  let sf = Datagen.preset_sf scale in
  let seconds = if !smoke then 0. else !seconds in
  let n_datasets = if !smoke || !trace = 1 then 1 else datasets_per_run in
  let nproc = Domain.recommended_domain_count () in
  let comparable = w.domains <= nproc in
  print_line "provenance"
    [
      ("workload", Json.Str w.name);
      ("loop", Json.Str "closed: one client, one query in flight, one process");
      ("nproc", Json.Int nproc);
      ("domains", Json.Int w.domains);
      ("comparable", Json.Bool comparable);
      ("backend", Json.Str (backend_name w.backend));
      ("transport", Json.Str (if w.tcp then "tcp" else "none"));
      ("seed", Json.Str (Int64.to_string !seed));
      ( "dataset_seeds",
        Json.List
          (List.map (fun s -> Json.Str (Int64.to_string s)) (dataset_seeds !seed n_datasets)) );
      ("protocol_seed", Json.Str (Int64.to_string protocol_seed));
      ("scale", Json.Str scale);
      ("sf", Json.Float sf);
      ("ocaml", Json.Str Sys.ocaml_version);
      ( "network_model",
        Json.Obj
          [
            ("lan_bits_per_s", Json.Float lan_bits_per_s);
            ("lan_rtt_s", Json.Float lan_rtt_s);
            ("wan_bits_per_s", Json.Float wan_bits_per_s);
            ("wan_rtt_s", Json.Float wan_rtt_s);
          ] );
      ("trace", Json.Int !trace);
      ("seconds", Json.Float seconds);
    ];
  (* More domains than cores measures oversubscription, not the system. *)
  if not comparable then (
    Printf.eprintf "%s needs %d domains but only %d cores are available: not comparable\n"
      w.name w.domains nproc;
    exit 3);
  let gate, metrics =
    if !trace = 1 then
      per_layer w ~sf ~seed:!seed ~seconds ~kernel_budget:(if !smoke then 0. else 0.05)
    else end_to_end w ~sf ~seed:!seed ~seconds ~n_datasets
  in
  print_result gate metrics
