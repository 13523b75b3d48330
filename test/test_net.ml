(* Framed transport, resilience layer, chaos harness — unit tests plus the
   acceptance chaos matrix: every evaluation query at scale xs, under every
   fault class, either completes with the correct result (recoverable
   schedule) or raises a typed [Transport_error] (unrecoverable) — never a
   hang, never a wrong answer. *)

open Secyan_net
module Comm = Secyan_crypto.Comm
module Context = Secyan_crypto.Context
module Queries = Secyan_tpch.Queries
module Datagen = Secyan_tpch.Datagen

(* ------------------------------------------------------------------ *)
(* CRC-32                                                             *)

let test_crc32_vector () =
  let b = Bytes.of_string "123456789" in
  Alcotest.(check int)
    "IEEE check vector" 0xCBF43926
    (Crc32.digest b ~pos:0 ~len:(Bytes.length b))

let test_crc32_incremental () =
  let b = Bytes.of_string "the quick brown fox jumps over the lazy dog" in
  let n = Bytes.length b in
  let whole = Crc32.digest b ~pos:0 ~len:n in
  let split k =
    Crc32.empty
    |> (fun c -> Crc32.update c b ~pos:0 ~len:k)
    |> fun c -> Crc32.update c b ~pos:k ~len:(n - k)
  in
  for k = 0 to n do
    Alcotest.(check int) (Printf.sprintf "split at %d" k) whole (split k)
  done;
  Alcotest.check_raises "slice outside buffer"
    (Invalid_argument
       (Printf.sprintf "Crc32.update: slice [%d, %d) outside buffer of %d bytes" 0 (n + 1)
          n))
    (fun () -> ignore (Crc32.update Crc32.empty b ~pos:0 ~len:(n + 1)))

(* ------------------------------------------------------------------ *)
(* Framing                                                            *)

let test_frame_roundtrip () =
  List.iter
    (fun payload ->
      let p = Bytes.of_string payload in
      let f = Frame.encode ~seq:42L p in
      Alcotest.(check int) "frame size" (Bytes.length p + Frame.overhead) (Bytes.length f);
      match Frame.decode f with
      | Ok (seq, got) ->
          Alcotest.(check int64) "seq" 42L seq;
          Alcotest.(check string) "payload" payload (Bytes.to_string got)
      | Error e -> Alcotest.failf "decode failed: %s" (Frame.error_to_string e))
    [ ""; "x"; String.make 1000 'q' ]

let test_frame_bitflip_detected () =
  let f = Frame.encode ~seq:7L (Bytes.of_string "payload under test") in
  (* every single-bit flip strictly after the magic must be caught by the
     CRC (flips inside the magic are caught as Bad_magic) *)
  for byte = 0 to Bytes.length f - 1 do
    let g = Bytes.copy f in
    Bytes.set g byte (Char.chr (Char.code (Bytes.get g byte) lxor 0x10));
    match Frame.decode g with
    | Ok _ -> Alcotest.failf "bit flip at byte %d went undetected" byte
    | Error _ -> ()
  done

let test_frame_required () =
  let f = Frame.encode ~seq:3L (Bytes.of_string "abc") in
  (match Frame.required f ~pos:0 ~len:(Frame.header_len - 1) with
  | Ok None -> ()
  | Ok (Some _) | Error _ -> Alcotest.fail "short header must report Ok None");
  (match Frame.required f ~pos:0 ~len:(Bytes.length f) with
  | Ok (Some n) -> Alcotest.(check int) "total size" (Bytes.length f) n
  | Ok None | Error _ -> Alcotest.fail "full header must report the frame size");
  let bad = Bytes.copy f in
  Bytes.set bad 0 'Z';
  match Frame.required bad ~pos:0 ~len:(Bytes.length bad) with
  | Error Frame.Bad_magic -> ()
  | Ok _ | Error _ -> Alcotest.fail "desynced stream must report Bad_magic"

(* ------------------------------------------------------------------ *)
(* Raw transports                                                     *)

let test_inproc_roundtrip () =
  let raw = Transport.inproc () in
  let f = Frame.encode ~seq:0L (Bytes.of_string "hello") in
  raw.Transport.send_frame Transport.Alice_to_bob f;
  (match raw.Transport.recv_frame Transport.Alice_to_bob ~deadline:(Unix.gettimeofday ()) with
  | Some got -> Alcotest.(check string) "frame bytes" (Bytes.to_string f) (Bytes.to_string got)
  | None -> Alcotest.fail "frame lost in inproc queue");
  (* directions are independent channels *)
  (match raw.Transport.recv_frame Transport.Bob_to_alice ~deadline:(Unix.gettimeofday ()) with
  | None -> ()
  | Some _ -> Alcotest.fail "frame leaked across directions");
  raw.Transport.close ();
  Alcotest.(check bool) "closed channel raises" true
    (match raw.Transport.send_frame Transport.Alice_to_bob f with
    | () -> false
    | exception Transport.Closed _ -> true)

let test_tcp_large_transfer () =
  (* ~1 MiB in each direction: far beyond the socket buffers, so this
     exercises the interleaved write/drain pump *)
  let t = Resilient.create (Transport.tcp ()) in
  Fun.protect ~finally:(fun () -> Resilient.close t) @@ fun () ->
  let payload = Bytes.init (1 lsl 20) (fun i -> Char.chr (i land 0xff)) in
  let got = Resilient.transfer t ~dir:Transport.Alice_to_bob payload in
  Alcotest.(check bool) "a->b payload intact" true (Bytes.equal payload got);
  let back = Resilient.transfer t ~dir:Transport.Bob_to_alice payload in
  Alcotest.(check bool) "b->a payload intact" true (Bytes.equal payload back);
  Alcotest.(check string) "backend name" "tcp" (Resilient.kind t)

(* ------------------------------------------------------------------ *)
(* Chaos spec parsing                                                 *)

let test_parse_spec () =
  (match Chaos.parse_spec "drop:3,delay:5,disconnect:40" with
  | Ok s ->
      Alcotest.(check string) "roundtrip" "drop:3,delay:5,disconnect:40"
        (Chaos.spec_to_string s)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Chaos.parse_spec "dup:2" with
  | Ok [ (Chaos.Duplicate, 2) ] -> ()
  | Ok _ | Error _ -> Alcotest.fail "dup alias must parse as duplicate");
  (match Chaos.parse_spec " drop:3 , delay:5 " with
  | Ok [ (Chaos.Drop, 3); (Chaos.Delay, 5) ] -> ()
  | Ok _ | Error _ -> Alcotest.fail "blanks around entries must be ignored");
  List.iter
    (fun bad ->
      match Chaos.parse_spec bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "spec %S must be rejected" bad)
    [ "drop"; "drop:"; "drop:x"; "drop:-1"; "teleport:3"; "drop:1,,"; "drop:1, ,delay:2";
      "retag:3" ]

(* ------------------------------------------------------------------ *)
(* Resilience layer under injected faults                             *)

let chaos_channel ?(seed = 5L) spec_str =
  let spec =
    match Chaos.parse_spec spec_str with
    | Ok s -> s
    | Error e -> Alcotest.failf "bad spec %S: %s" spec_str e
  in
  let faulty, fired = Chaos.wrap ~seed ~spec (Transport.inproc ()) in
  (Resilient.create ~seed:7L faulty, fired)

(* drive [n] logical messages through the channel and check each payload
   comes back intact *)
let pump t n =
  for i = 0 to n - 1 do
    let dir = if i land 1 = 0 then Transport.Alice_to_bob else Transport.Bob_to_alice in
    let payload = Bytes.of_string (Printf.sprintf "msg-%d" i) in
    let got = Resilient.transfer t ~dir payload in
    Alcotest.(check string)
      (Printf.sprintf "payload %d intact" i)
      (Bytes.to_string payload) (Bytes.to_string got)
  done

let count_fired fired fault = List.length (List.filter (fun (f, _) -> f = fault) (fired ()))

let test_retry_on_drop () =
  let t, fired = chaos_channel "drop:3" in
  pump t 20;
  let s = Resilient.stats t in
  Alcotest.(check int) "all drops fired" 3 (count_fired fired Chaos.Drop);
  Alcotest.(check bool) "retries happened" true (s.Resilient.retries >= 3);
  Alcotest.(check int) "a timeout per drop" s.Resilient.retries s.Resilient.timeouts;
  Alcotest.(check int) "transfers all delivered" 20 s.Resilient.transfers

let test_dedup_on_duplicate () =
  let t, fired = chaos_channel "dup:3" in
  pump t 20;
  let s = Resilient.stats t in
  Alcotest.(check int) "all duplicates fired" 3 (count_fired fired Chaos.Duplicate);
  Alcotest.(check bool) "stale frames deduplicated" true
    (s.Resilient.duplicates_dropped >= 1);
  Alcotest.(check int) "no retries needed" 0 s.Resilient.retries

let test_delay_recovers () =
  let t, fired = chaos_channel "delay:2" in
  pump t 20;
  let s = Resilient.stats t in
  Alcotest.(check int) "all delays fired" 2 (count_fired fired Chaos.Delay);
  (* a delayed frame costs at least one timeout + retry; a burst can cost
     only one in total, because the retransmission's send flushes the
     stashed original before the burst delays the retransmission itself *)
  Alcotest.(check bool) "delay cost a timeout + retry" true
    (s.Resilient.retries >= 1 && s.Resilient.timeouts >= 1);
  (* the retransmission races the flushed original; the loser is dropped *)
  Alcotest.(check bool) "late twin deduplicated" true (s.Resilient.duplicates_dropped >= 1)

let test_corrupt_detected_and_retried () =
  let t, fired = chaos_channel "corrupt:2" in
  pump t 20;
  let s = Resilient.stats t in
  Alcotest.(check int) "both corruptions fired" 2 (count_fired fired Chaos.Corrupt);
  Alcotest.(check bool) "CRC caught them" true (s.Resilient.corrupt_frames >= 2)

let test_corrupt_burst_exhausts_budget () =
  let t, _ = chaos_channel "corrupt:10" in
  match pump t 20 with
  | () -> Alcotest.fail "a 10-burst must defeat a 5-attempt budget"
  | exception Resilient.Transport_error { kind; attempts; _ } ->
      Alcotest.(check string) "typed as corrupt" "corrupt" (Resilient.error_kind_name kind);
      Alcotest.(check int) "budget exhausted" Resilient.default_config.Resilient.max_attempts
        attempts

let test_disconnect_fails_closed () =
  let t, _ = chaos_channel "disconnect:6" in
  match pump t 20 with
  | () -> Alcotest.fail "disconnect must surface"
  | exception Resilient.Transport_error { kind; attempts; _ } ->
      Alcotest.(check string) "typed as closed" "closed" (Resilient.error_kind_name kind);
      Alcotest.(check int) "not retried" 1 attempts

(* The exact fired (fault, index) schedules of two specs at two seeds
   over 30 transfers: a pin on the burst layout and on which send each
   fault lands, so a change to either shows here. *)
let test_chaos_schedule_pins () =
  List.iter
    (fun (spec, seed, expected) ->
      let t, fired = chaos_channel ~seed spec in
      Fun.protect ~finally:(fun () -> Resilient.close t) @@ fun () ->
      pump t 30;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "%s at seed %Ld" spec seed)
        expected
        (List.map (fun (f, i) -> (Chaos.fault_name f, i)) (fired ())))
    [
      ( "drop:3,delay:5", 5L,
        [ ("drop", 5); ("drop", 6); ("drop", 7); ("delay", 15); ("delay", 16); ("delay", 17);
          ("delay", 18); ("delay", 19) ] );
      ( "drop:3,delay:5", 7L,
        [ ("drop", 3); ("drop", 4); ("drop", 5); ("delay", 13); ("delay", 14); ("delay", 15);
          ("delay", 16); ("delay", 17) ] );
      ( "corrupt:2,dup:3,disconnect:40", 5L,
        [ ("corrupt", 5); ("corrupt", 6); ("duplicate", 14); ("duplicate", 15);
          ("duplicate", 16) ] );
      ( "corrupt:2,dup:3,disconnect:40", 7L,
        [ ("corrupt", 3); ("corrupt", 4); ("duplicate", 12); ("duplicate", 13);
          ("duplicate", 14) ] );
    ]

let test_events_reach_listener () =
  let t, _ = chaos_channel "drop:2,dup:1" in
  let retries = ref 0 and timeouts = ref 0 and dups = ref 0 in
  Resilient.set_listener t
    (Some
       (function
       | Resilient.Retry -> incr retries
       | Resilient.Timeout_hit -> incr timeouts
       | Resilient.Corrupt_frame -> ()
       | Resilient.Duplicate_dropped -> incr dups));
  pump t 20;
  let s = Resilient.stats t in
  Alcotest.(check int) "retry events" s.Resilient.retries !retries;
  Alcotest.(check int) "timeout events" s.Resilient.timeouts !timeouts;
  Alcotest.(check int) "dedup events" s.Resilient.duplicates_dropped !dups

(* ------------------------------------------------------------------ *)
(* Retry jitter determinism (DESIGN.md §15)                           *)

(* Replay the exact same fault schedule twice and record every backoff
   sleep: the jitter is a pure hash of (seed, seq, attempt), so the two
   sleep sequences must be bit-identical — and a different transport
   seed must desynchronize them (no lock-step retry storms). *)
let record_backoffs ~seed =
  let sleeps = ref [] in
  let config =
    { Resilient.default_config with Resilient.sleep = (fun s -> sleeps := s :: !sleeps) }
  in
  let spec =
    match Chaos.parse_spec "drop:3" with
    | Ok s -> s
    | Error e -> Alcotest.failf "bad spec: %s" e
  in
  let faulty, _ = Chaos.wrap ~seed:5L ~spec (Transport.inproc ()) in
  let t = Resilient.create ~config ~seed faulty in
  Fun.protect ~finally:(fun () -> Resilient.close t) @@ fun () ->
  pump t 20;
  List.rev !sleeps

let test_backoff_jitter_reproducible () =
  let a = record_backoffs ~seed:7L in
  Alcotest.(check bool) "retries actually backed off" true (a <> []);
  Alcotest.(check (list (float 0.))) "same seed: sleeps bit-identical" a
    (record_backoffs ~seed:7L);
  Alcotest.(check bool) "different seed: sleeps desynchronized" true
    (a <> record_backoffs ~seed:8L);
  (* pinned: the splitmix64 hash behind the jitter *)
  List.iter
    (fun (seed, seq, attempt, want) ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "jitter_frac %Ld %Ld %d" seed seq attempt)
        want
        (Resilient.jitter_frac ~seed ~seq ~attempt))
    [
      (0L, 0L, 0, 0x1.1c13ade1c7e5cp-3);
      (1L, 2L, 3, 0x1.ac54fedc523fdp-1);
      (0x5EC7A11L, 17L, 1, 0x1.0ed83c22e7eap-4);
      (-1L, 1000L, 7, 0x1.eb9dc4d8b44d8p-4);
    ]

let test_bad_config_rejected () =
  Alcotest.(check bool) "max_attempts 0 rejected" true
    (match
       Resilient.create
         ~config:{ Resilient.default_config with Resilient.max_attempts = 0 }
         (Transport.inproc ())
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Properties: framing and chaos determinism                          *)

let prop_frame_roundtrip =
  QCheck.Test.make ~count:200 ~name:"frame encode/decode roundtrip"
    QCheck.(pair string int64)
    (fun (payload, seq) ->
      let p = Bytes.of_string payload in
      let f = Frame.encode ~seq p in
      Bytes.length f = Bytes.length p + Frame.overhead
      &&
      match Frame.decode f with
      | Ok (seq', got) -> Int64.equal seq seq' && Bytes.equal p got
      | Error _ -> false)

let prop_frame_bitflip_detected =
  QCheck.Test.make ~count:200 ~name:"every single-bit flip is detected"
    QCheck.(pair string small_nat)
    (fun (payload, flip) ->
      let f = Frame.encode ~seq:5L (Bytes.of_string payload) in
      let k = flip mod (8 * Bytes.length f) in
      let byte = k / 8 and bit = k mod 8 in
      Bytes.set f byte (Char.chr (Char.code (Bytes.get f byte) lxor (1 lsl bit)));
      match Frame.decode f with Ok _ -> false | Error _ -> true)

let fault_of_int = function
  | 0 -> Chaos.Drop
  | 1 -> Chaos.Duplicate
  | 2 -> Chaos.Corrupt
  | 3 -> Chaos.Delay
  | _ -> Chaos.Disconnect

(* Drive a fixed workload through a chaos-wrapped channel and record
   everything observable: outcome and the exact fired schedule. *)
let chaos_trace ~seed ~spec =
  let faulty, fired = Chaos.wrap ~seed ~spec (Transport.inproc ()) in
  let t = Resilient.create ~seed:7L faulty in
  Fun.protect ~finally:(fun () -> Resilient.close t) @@ fun () ->
  let outcome =
    match pump t 30 with
    | () -> "ok"
    | exception Resilient.Transport_error { kind; _ } ->
        "err:" ^ Resilient.error_kind_name kind
  in
  (outcome, fired ())

let prop_chaos_deterministic =
  QCheck.Test.make ~count:40 ~name:"chaos schedule is a function of (spec, seed)"
    QCheck.(pair int64 (small_list (pair (int_bound 4) (int_range 1 3))))
    (fun (seed, raw_spec) ->
      let spec = List.map (fun (f, n) -> (fault_of_int f, n)) raw_spec in
      chaos_trace ~seed ~spec = chaos_trace ~seed ~spec)

(* The per-attempt jitter fraction is a pure function of the transport
   seed, the transfer's sequence number, and the attempt index — and it
   varies across attempts, so concurrent retry loops don't resonate. *)
let prop_jitter_pure_and_bounded =
  QCheck.Test.make ~count:300 ~name:"retry jitter: pure in (seed, seq, attempt), in [0,1)"
    QCheck.(triple int64 int64 (int_range 1 8))
    (fun (seed, seq, attempt) ->
      let j = Resilient.jitter_frac ~seed ~seq ~attempt in
      j = Resilient.jitter_frac ~seed ~seq ~attempt
      && j >= 0. && j < 1.
      && Resilient.jitter_frac ~seed ~seq ~attempt:(attempt + 1) <> j
      && Resilient.jitter_frac ~seed ~seq:(Int64.add seq 1L) ~attempt <> j)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)

let test_rng_below_uniform () =
  (* rejection sampling makes [below] exactly uniform; with the old
     [Int64.rem]-only draw a bound this close to a power of two would
     still pass, so also pin per-value counts tightly enough to catch a
     reintroduced bias on small bounds *)
  let rng = Rng.create 2024L in
  let bound = 3 in
  let n = 30_000 in
  let counts = Array.make bound 0 in
  for _ = 1 to n do
    let v = Rng.below rng bound in
    Alcotest.(check bool) "in range" true (0 <= v && v < bound);
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun v c ->
      if c < 9_500 || c > 10_500 then
        Alcotest.failf "value %d drawn %d times out of %d (expected ~%d)" v c n (n / bound))
    counts;
  Alcotest.(check int) "bound 1 is constant" 0 (Rng.below rng 1);
  Alcotest.check_raises "bound 0 rejected"
    (Invalid_argument "Rng.below: bound = 0, expected a positive integer") (fun () ->
      ignore (Rng.below rng 0))

(* ------------------------------------------------------------------ *)
(* Accounting equivalence: sim vs real channel                        *)

let project_content output (r : Secyan_relational.Relation.t) =
  let open Secyan_relational in
  Relation.nonzero r
  |> List.filter (fun (t, _) -> not (Tuple.is_dummy t))
  |> List.map (fun (t, a) -> (Tuple.repr (Tuple.project r.Relation.schema output t), a))
  |> List.sort compare

let test_tally_identical_sim_vs_transport () =
  let run transport =
    let d = Datagen.generate ~sf:4e-5 ~seed:1L in
    let ctx = Queries.context ?transport ~seed:99L () in
    Fun.protect ~finally:(fun () ->
        Context.close_transport ctx;
        Context.shutdown_pool ctx)
    @@ fun () ->
    let q = Queries.q3 d in
    let revealed, stats = Secyan.Secure_yannakakis.run ctx q in
    ( stats.Secyan.Secure_yannakakis.tally,
      project_content q.Secyan.Query.output revealed )
  in
  let sim_tally, sim_content = run None in
  let tr = Resilient.create (Transport.inproc ()) in
  let net_tally, net_content = run (Some tr) in
  Alcotest.(check bool) "tallies bit-identical" true (Comm.equal sim_tally net_tally);
  Alcotest.(check (list (pair string int64))) "same revealed result" sim_content net_content;
  let s = Resilient.stats tr in
  Alcotest.(check bool) "traffic really crossed the channel" true
    (s.Resilient.transfers > 0);
  Alcotest.(check int) "no spurious retries without faults" 0 s.Resilient.retries

(* ------------------------------------------------------------------ *)
(* Chaos matrix: {q3,q10,q18,q8,q9} x every fault class at scale xs   *)

exception Case_timeout of string

(* zero hangs, enforced: every matrix case runs under a wall-clock
   watchdog that aborts the test instead of wedging the suite *)
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

(* A peer that stalls forever: sends vanish, receives block until the
   per-attempt deadline. With a cancel token attached, the retry loop
   must be bounded by the token's remaining budget — not by the (here
   deliberately huge) retry budget. *)
let test_stall_bounded_by_deadline () =
  with_watchdog ~seconds:30.0 "stall-vs-deadline" @@ fun () ->
  let raw = Transport.inproc () in
  let stalled =
    {
      raw with
      Transport.send_frame = (fun _ _ -> ());
      Transport.recv_frame =
        (fun _ ~deadline ->
          let now = Unix.gettimeofday () in
          if deadline > now then Unix.sleepf (deadline -. now);
          None);
      Transport.kind = "stalled";
    }
  in
  let config =
    { Resilient.default_config with Resilient.max_attempts = 1000; Resilient.sleep = Unix.sleepf }
  in
  let t = Resilient.create ~config ~seed:7L stalled in
  Fun.protect ~finally:(fun () -> Resilient.close t) @@ fun () ->
  Resilient.set_cancel t (Some (Secyan_deadline.create ~timeout_s:0.3 ()));
  let t0 = Unix.gettimeofday () in
  (match Resilient.transfer t ~dir:Transport.Alice_to_bob (Bytes.of_string "x") with
  | _ -> Alcotest.fail "a stalled peer cannot deliver"
  | exception Secyan_deadline.Cancelled { where; _ } ->
      Alcotest.(check string) "cancelled at the transfer site" "net:transfer" where);
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "bounded by the deadline, not the retry budget" true (elapsed < 5.0)

(* The accept limit rejects a lying declared length from the header
   alone — before the stream buffer grows toward it (DESIGN.md §16). *)
let test_frame_accept_limit () =
  Fun.protect ~finally:(fun () -> Frame.set_accept_limit Frame.default_accept_limit)
  @@ fun () ->
  Frame.set_accept_limit 64;
  let ok = Frame.encode ~seq:1L (Bytes.make 64 'a') in
  (match Frame.decode ok with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "in-cap frame rejected: %s" (Frame.error_to_string e));
  let big = Frame.encode ~seq:2L (Bytes.make 65 'a') in
  (match Frame.required big ~pos:0 ~len:Frame.header_len with
  | Error Frame.Oversized -> ()
  | Ok _ | Error _ -> Alcotest.fail "oversized declared length must be refused pre-buffer");
  (match Frame.decode big with
  | Error Frame.Oversized -> ()
  | Ok _ | Error _ -> Alcotest.fail "oversized frame must be refused");
  match Frame.set_accept_limit 0 with
  | () -> Alcotest.fail "zero accept limit must be rejected"
  | exception Invalid_argument _ -> ()

(* Patch a frame's own length field upward and refresh the CRC — the
   slow-loris shape: a header promising bytes that never arrive. *)
let lie_in_frame_header frame ~lie =
  let b = Bytes.copy frame in
  Bytes.set b 10 (Char.chr (lie land 0xff));
  Bytes.set b 11 (Char.chr ((lie lsr 8) land 0xff));
  Bytes.set b 12 (Char.chr ((lie lsr 16) land 0xff));
  Bytes.set b 13 (Char.chr ((lie lsr 24) land 0xff));
  let len = Bytes.length b in
  let crc = Crc32.digest b ~pos:2 ~len:(len - 4 - 2) in
  Bytes.set b (len - 4) (Char.chr (crc land 0xff));
  Bytes.set b (len - 3) (Char.chr ((crc lsr 8) land 0xff));
  Bytes.set b (len - 2) (Char.chr ((crc lsr 16) land 0xff));
  Bytes.set b (len - 1) (Char.chr ((crc lsr 24) land 0xff));
  b

(* A peer trickling a never-completed frame must not pin the receiver:
   the per-frame progress deadline cuts the wait and the resilience
   layer types it as a Timeout, never a hang. *)
let test_tcp_slow_loris_times_out () =
  with_watchdog ~seconds:30.0 "slow-loris" @@ fun () ->
  let raw = Transport.tcp ~stall_timeout_s:0.25 () in
  let config =
    { Resilient.default_config with Resilient.max_attempts = 2; sleep = Unix.sleepf }
  in
  let t = Resilient.create ~config raw in
  Fun.protect ~finally:(fun () -> Resilient.close t) @@ fun () ->
  let partial = Frame.encode ~seq:0L (Bytes.of_string "never completed") in
  raw.Transport.send_frame Transport.Alice_to_bob
    (lie_in_frame_header partial ~lie:100_000);
  let t0 = Unix.gettimeofday () in
  (match Resilient.transfer t ~dir:Transport.Alice_to_bob (Bytes.of_string "follow-up") with
  | _ -> Alcotest.fail "a slow-loris peer cannot deliver"
  | exception Resilient.Transport_error { kind = Resilient.Timeout; _ } -> ());
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "bounded by the stall window" true (elapsed < 20.0)

type outcome = Correct | Failed of Resilient.error_kind

let outcome_name = function
  | Correct -> "correct"
  | Failed k -> "transport_error:" ^ Resilient.error_kind_name k

(* A fault schedule paired with the outcome it must force. Recoverability
   is legible from the spec (see Chaos): bursts shorter than the 5-attempt
   budget are survivable; a corrupt burst >= the budget, or a disconnect,
   is not. *)
let fault_cases =
  [
    ("drop:3", Correct);
    ("duplicate:3", Correct);
    ("delay:2", Correct);
    ("corrupt:10", Failed Resilient.Corrupt);
    ("disconnect:25", Failed Resilient.Closed);
  ]

let xs () = Datagen.generate ~sf:4e-5 ~seed:1L

let run_simple_query make_query ctx d =
  let q = make_query d in
  let revealed, _ = Secyan.Secure_yannakakis.run ctx q in
  let expected = Secyan.Query.plaintext q in
  Alcotest.(check (list (pair string int64)))
    (q.Secyan.Query.name ^ " under chaos = plaintext")
    (project_content q.Secyan.Query.output expected)
    (project_content q.Secyan.Query.output revealed)

let run_q8 ctx d =
  let r = Queries.run_q8 ctx d in
  Alcotest.(check (list (pair int int64)))
    "q8 under chaos = plaintext" (Queries.q8_plaintext d) r.Queries.shares_per_year

let run_q9 ctx d =
  (* one nation keeps the composed 2x25-run query affordable in a 25-case
     matrix; the transport path is identical across nations *)
  let nations = [ 3 ] in
  let r = Queries.run_q9 ~nations ctx d in
  let got = List.filter (fun (_, _, a) -> a <> 0) r.Queries.rows in
  Alcotest.(check (list (triple int int int)))
    "q9 under chaos = plaintext"
    (List.sort compare (Queries.q9_plaintext ~nations d))
    (List.sort compare got)

let matrix_queries =
  [ ("q3", run_simple_query Queries.q3);
    ("q10", run_simple_query Queries.q10);
    ("q18", run_simple_query (Queries.q18 ?threshold:None));
    ("q8", run_q8);
    ("q9", run_q9) ]

let run_matrix_case ~query ~run ~spec ~expected () =
  let name = Printf.sprintf "%s/%s" query spec in
  with_watchdog ~seconds:120.0 name @@ fun () ->
  let parsed =
    match Chaos.parse_spec spec with
    | Ok s -> s
    | Error e -> Alcotest.failf "bad spec %S: %s" spec e
  in
  let faulty, _ = Chaos.wrap ~seed:7L ~spec:parsed (Transport.inproc ()) in
  let tr = Resilient.create ~seed:7L faulty in
  let d = xs () in
  let ctx = Queries.context ~transport:tr ~seed:99L () in
  Fun.protect ~finally:(fun () ->
      Context.close_transport ctx;
      Context.shutdown_pool ctx)
  @@ fun () ->
  let outcome =
    match run ctx d with
    | () -> Correct
    | exception Resilient.Transport_error { kind; _ } -> Failed kind
  in
  Alcotest.(check string)
    (name ^ " outcome") (outcome_name expected) (outcome_name outcome)

let matrix_cases =
  List.concat_map
    (fun (query, run) ->
      List.map
        (fun (spec, expected) ->
          Alcotest.test_case
            (Printf.sprintf "%s under %s" query spec)
            `Slow
            (run_matrix_case ~query ~run ~spec ~expected))
        fault_cases)
    matrix_queries

(* The ledger is the one record of transport faults: on a fresh run
   (nothing restored from a checkpoint) under a recoverable schedule, its
   [Retries]/[Timeouts]/[Frames_corrupted] equal the transport's own
   stats, which the end-to-end benchmark still reads. *)
let test_ledger_equals_transport_stats () =
  with_watchdog ~seconds:120.0 "ledger-vs-stats" @@ fun () ->
  let spec =
    match Chaos.parse_spec "drop:3,delay:2,corrupt:2" with
    | Ok s -> s
    | Error e -> Alcotest.failf "bad spec: %s" e
  in
  let faulty, _ = Chaos.wrap ~seed:7L ~spec (Transport.inproc ()) in
  let tr = Resilient.create ~seed:7L faulty in
  let ctx = Queries.context ~transport:tr ~seed:99L () in
  Fun.protect ~finally:(fun () ->
      Context.close_transport ctx;
      Context.shutdown_pool ctx)
  @@ fun () ->
  run_simple_query Queries.q3 ctx (xs ());
  let s = Resilient.stats tr in
  let ledger = Context.counter_totals ctx in
  let count c = ledger.(Secyan_crypto.Trace_sink.counter_index c) in
  Alcotest.(check int) "retries" s.Resilient.retries (count Secyan_crypto.Trace_sink.Retries);
  Alcotest.(check int) "timeouts" s.Resilient.timeouts (count Secyan_crypto.Trace_sink.Timeouts);
  Alcotest.(check int) "corrupt frames" s.Resilient.corrupt_frames
    (count Secyan_crypto.Trace_sink.Frames_corrupted);
  Alcotest.(check bool) "faults fired" true
    (s.Resilient.retries > 0 && s.Resilient.timeouts > 0 && s.Resilient.corrupt_frames > 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "secyan_net"
    [
      ( "crc32",
        [
          Alcotest.test_case "check vector" `Quick test_crc32_vector;
          Alcotest.test_case "incremental" `Quick test_crc32_incremental;
        ] );
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "bit flips detected" `Quick test_frame_bitflip_detected;
          Alcotest.test_case "stream parsing" `Quick test_frame_required;
          Alcotest.test_case "accept limit pre-allocation" `Quick test_frame_accept_limit;
        ] );
      ( "transport",
        [
          Alcotest.test_case "inproc roundtrip" `Quick test_inproc_roundtrip;
          Alcotest.test_case "tcp large transfer" `Quick test_tcp_large_transfer;
        ] );
      ("rng", [ Alcotest.test_case "below is uniform" `Quick test_rng_below_uniform ]);
      ("chaos-spec", [ Alcotest.test_case "parse" `Quick test_parse_spec ]);
      ( "resilient",
        [
          Alcotest.test_case "retry on drop" `Quick test_retry_on_drop;
          Alcotest.test_case "dedup on duplicate" `Quick test_dedup_on_duplicate;
          Alcotest.test_case "delay recovers" `Quick test_delay_recovers;
          Alcotest.test_case "corrupt detected" `Quick test_corrupt_detected_and_retried;
          Alcotest.test_case "corrupt burst fails typed" `Quick
            test_corrupt_burst_exhausts_budget;
          Alcotest.test_case "disconnect fails closed" `Quick test_disconnect_fails_closed;
          Alcotest.test_case "events reach listener" `Quick test_events_reach_listener;
          Alcotest.test_case "chaos schedule pins" `Quick test_chaos_schedule_pins;
          Alcotest.test_case "backoff jitter reproducible" `Quick
            test_backoff_jitter_reproducible;
          Alcotest.test_case "bad config rejected" `Quick test_bad_config_rejected;
          Alcotest.test_case "peer stall bounded by deadline" `Quick
            test_stall_bounded_by_deadline;
          Alcotest.test_case "tcp slow-loris fails typed" `Quick
            test_tcp_slow_loris_times_out;
        ] );
      ( "properties",
        qsuite
          [
            prop_frame_roundtrip;
            prop_frame_bitflip_detected;
            prop_chaos_deterministic;
            prop_jitter_pure_and_bounded;
          ] );
      ( "accounting",
        [
          Alcotest.test_case "tally sim = transport" `Slow
            test_tally_identical_sim_vs_transport;
          Alcotest.test_case "ledger = transport stats" `Slow
            test_ledger_equals_transport_stats;
        ] );
      ("chaos-matrix", matrix_cases);
    ]
