(* Checkpoint/resume (DESIGN.md §11): envelope validation, payload codec
   canonicality, the session-resume handshake, and the headline invariant —
   a run killed mid-protocol and resumed is bit-identical to an
   uninterrupted run in revealed result, comm tally, rounds, and protocol
   counters. Damaged or mismatched checkpoints must always fail typed. *)

open Secyan_crypto
open Secyan_net
module Protocol_state = Secyan.Protocol_state
module Queries = Secyan_tpch.Queries
module Datagen = Secyan_tpch.Datagen

let tmpdir () = Filename.temp_dir "secyan-test-ck" ""

let rm_rf_flat dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let expect_error kind f =
  match f () with
  | _ -> Alcotest.failf "expected Checkpoint_error %s" (Checkpoint.error_kind_name kind)
  | exception Checkpoint.Checkpoint_error e ->
      Alcotest.(check string)
        "error kind"
        (Checkpoint.error_kind_name kind)
        (Checkpoint.error_kind_name e.kind)

(* ------------------------------------------------------------------ *)
(* Envelope                                                           *)

let sample_blob () =
  Checkpoint.encode ~fingerprint:"fp-abc" ~session:"sess-1" ~epoch:7 ~label:"share"
    (Bytes.of_string "opaque payload bytes")

let test_envelope_roundtrip () =
  let payload = Bytes.of_string "opaque payload bytes" in
  let blob = sample_blob () in
  Alcotest.(check int)
    "file_size is exact" (Bytes.length blob)
    (Checkpoint.file_size ~fingerprint:"fp-abc" ~session:"sess-1" ~label:"share"
       ~payload_len:(Bytes.length payload));
  let l = Checkpoint.decode ~path:"<mem>" blob in
  Alcotest.(check string) "fingerprint" "fp-abc" l.Checkpoint.fingerprint;
  Alcotest.(check string) "session" "sess-1" l.Checkpoint.session;
  Alcotest.(check int) "epoch" 7 l.Checkpoint.epoch;
  Alcotest.(check string) "label" "share" l.Checkpoint.label;
  Alcotest.(check bool) "payload intact" true (Bytes.equal payload l.Checkpoint.payload)

let test_envelope_rejects_damage () =
  let blob = sample_blob () in
  (* layout: magic (4) | version (1) | crc (4) | body *)
  let flip i =
    let g = Bytes.copy blob in
    Bytes.set g i (Char.chr (Char.code (Bytes.get g i) lxor 0x20));
    g
  in
  expect_error Checkpoint.Bad_magic (fun () -> Checkpoint.decode ~path:"<mem>" (flip 0));
  expect_error Checkpoint.Bad_version (fun () -> Checkpoint.decode ~path:"<mem>" (flip 4));
  (* every single corrupted body byte must be caught by the CRC *)
  for i = 9 to Bytes.length blob - 1 do
    expect_error Checkpoint.Crc_mismatch (fun () -> Checkpoint.decode ~path:"<mem>" (flip i))
  done;
  (* every proper prefix is typed as truncation (or a broken CRC when the
     cut lands inside the length-prefixed tail) *)
  expect_error Checkpoint.Truncated (fun () ->
      Checkpoint.decode ~path:"<mem>" (Bytes.sub blob 0 8));
  expect_error Checkpoint.Crc_mismatch (fun () ->
      Checkpoint.decode ~path:"<mem>" (Bytes.sub blob 0 (Bytes.length blob - 1)))

let test_sink_emit_and_latest () =
  let dir = tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf_flat dir) @@ fun () ->
  let s = Checkpoint.sink ~session:"sess-1" ~dir () in
  let bytes0 = Checkpoint.emit s ~fingerprint:"fp" ~label:"share" (Bytes.of_string "a") in
  Alcotest.(check int)
    "emit matches predict_size"
    (Checkpoint.predict_size s ~fingerprint:"fp" ~label:"share" ~payload_len:1)
    bytes0;
  ignore (Checkpoint.emit s ~fingerprint:"fp" ~label:"fold" (Bytes.of_string "bb"));
  Alcotest.(check int) "two snapshots" 2 s.Checkpoint.written;
  (match Checkpoint.latest_path dir with
  | Some (epoch, path) ->
      Alcotest.(check int) "latest epoch" 1 epoch;
      let l = Checkpoint.read_file path in
      Alcotest.(check string) "latest label" "fold" l.Checkpoint.label
  | None -> Alcotest.fail "latest_path must see the emitted files");
  expect_error Checkpoint.Fingerprint_mismatch (fun () ->
      Checkpoint.load_latest ~dir ~fingerprint:"other-run")

(* ------------------------------------------------------------------ *)
(* Snapshot payload codec                                             *)

let xs () = Datagen.generate ~sf:4e-5 ~seed:1L

let close ctx =
  Secyan_crypto.Context.close_transport ctx;
  Secyan_crypto.Context.shutdown_pool ctx

(* protocol counters with the per-process checkpoint accounting masked
   out: those legitimately differ between a plain run and a checkpointed
   or resumed one. [mask_transport] additionally masks the
   transport-chatter counters (retries, timeouts, corrupt frames) for
   runs resumed over a faulty channel — retransmissions are below the
   protocol's accounting, so everything else must still match exactly. *)
let protocol_counters ?(mask_transport = false) ctx =
  let c = Secyan_crypto.Context.counter_totals ctx in
  c.(Trace_sink.counter_index Trace_sink.Checkpoints_written) <- 0;
  c.(Trace_sink.counter_index Trace_sink.Checkpoint_bytes) <- 0;
  if mask_transport then begin
    c.(Trace_sink.counter_index Trace_sink.Retries) <- 0;
    c.(Trace_sink.counter_index Trace_sink.Timeouts) <- 0;
    c.(Trace_sink.counter_index Trace_sink.Frames_corrupted) <- 0
  end;
  Array.to_list c

(* Run q3 with a sink, then check every emitted payload decodes and
   re-encodes to the same bytes: the codec is canonical, so equality of
   state is equality of files. *)
let test_snapshot_codec_canonical () =
  let dir = tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf_flat dir) @@ fun () ->
  let d = xs () in
  let q = Queries.q3 d in
  let sink = Checkpoint.sink ~dir () in
  let ctx = Queries.context ~checkpoint:sink ~seed:99L () in
  Fun.protect ~finally:(fun () -> close ctx) @@ fun () ->
  ignore (Secyan.Secure_yannakakis.run ctx q);
  Alcotest.(check bool) "several snapshots emitted" true (sink.Checkpoint.written >= 3);
  (* checkpoint emission sits below protocol accounting: a plain run of
     the same query and seed has the same protocol counters, the Comm
     tally (bits each way, rounds) included *)
  let plain_ctx = Queries.context ~seed:99L () in
  Fun.protect ~finally:(fun () -> close plain_ctx) (fun () ->
      ignore (Secyan.Secure_yannakakis.run plain_ctx q);
      Alcotest.(check (list int)) "tally and protocol counters equal a plain run's"
        (protocol_counters plain_ctx) (protocol_counters ctx));
  Array.iter
    (fun f ->
      let l = Checkpoint.read_file (Filename.concat dir f) in
      let s = Protocol_state.decode_snapshot ~path:l.Checkpoint.path l.Checkpoint.payload in
      Alcotest.(check bool)
        (f ^ " payload re-encodes identically") true
        (Bytes.equal l.Checkpoint.payload (Protocol_state.encode_snapshot s));
      (* the payload never embeds its own accounting *)
      let zeroed c = s.Protocol_state.counters.(Trace_sink.counter_index c) = 0 in
      Alcotest.(check bool) "checkpoint counters zeroed in payload" true
        (zeroed Trace_sink.Checkpoints_written && zeroed Trace_sink.Checkpoint_bytes))
    (Sys.readdir dir);
  (* strictness: junk after a valid payload is typed, not ignored *)
  (match Checkpoint.latest_path dir with
  | Some (_, path) ->
      let l = Checkpoint.read_file path in
      let longer = Bytes.extend l.Checkpoint.payload 0 1 in
      expect_error Checkpoint.Malformed (fun () ->
          Protocol_state.decode_snapshot ~path:"<mem>" longer);
      expect_error Checkpoint.Truncated (fun () ->
          Protocol_state.decode_snapshot ~path:"<mem>"
            (Bytes.sub l.Checkpoint.payload 0 3))
  | None -> Alcotest.fail "no latest checkpoint")

(* ------------------------------------------------------------------ *)
(* Session-resume handshake                                           *)

let test_resume_handshake () =
  let t = Resilient.create (Transport.inproc ()) in
  Fun.protect ~finally:(fun () -> Resilient.close t) @@ fun () ->
  (* agreement: completes silently *)
  Resilient.resume_handshake t ~alice:("sess-1", 3) ~bob:("sess-1", 3);
  (* disagreement on epoch or session: typed *)
  (match Resilient.resume_handshake t ~alice:("sess-1", 3) ~bob:("sess-1", 4) with
  | () -> Alcotest.fail "epoch mismatch must raise"
  | exception Resilient.Resume_mismatch m ->
      Alcotest.(check int) "alice epoch" 3 m.alice_epoch;
      Alcotest.(check int) "bob epoch" 4 m.bob_epoch);
  match Resilient.resume_handshake t ~alice:("sess-1", 3) ~bob:("sess-2", 3) with
  | () -> Alcotest.fail "session mismatch must raise"
  | exception Resilient.Resume_mismatch _ -> ()

(* ------------------------------------------------------------------ *)
(* Kill and resume: bit-identity for q3/q10/q18 at xs                 *)

let project_content output (r : Secyan_relational.Relation.t) =
  let open Secyan_relational in
  Relation.nonzero r
  |> List.filter (fun (t, _) -> not (Tuple.is_dummy t))
  |> List.map (fun (t, a) -> (Tuple.repr (Tuple.project r.Relation.schema output t), a))
  |> List.sort compare

(* [resume_chaos] (a Chaos spec string) wraps the RESUME leg's channel in
   recoverable faults: a run killed by a disconnect must resume correctly
   even when the replacement channel is itself unreliable (PR 3 chaos
   composed with PR 4 resume). *)
let kill_and_resume ?(resume_chaos = "") make () =
  let d = xs () in
  let q = make d in
  let mask_transport = resume_chaos <> "" in
  (* 1. uninterrupted reference over a plain channel; its transfer count
     tells us where a late crash lands *)
  let clean_tr = Resilient.create (Transport.inproc ()) in
  let clean_ctx = Queries.context ~transport:clean_tr ~seed:99L () in
  let (clean_rel, clean_stats), clean_counters =
    Fun.protect ~finally:(fun () -> close clean_ctx) @@ fun () ->
    let r = Secyan.Secure_yannakakis.run clean_ctx q in
    (r, protocol_counters ~mask_transport clean_ctx)
  in
  let transfers = (Resilient.stats clean_tr).Resilient.transfers in
  let dir = tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf_flat dir) @@ fun () ->
  (* 2. the same run, checkpointed, killed near the end by a disconnect *)
  let faulty, _ =
    Chaos.wrap ~seed:7L ~spec:[ (Chaos.Disconnect, transfers - 5) ] (Transport.inproc ())
  in
  let crash_tr = Resilient.create ~seed:7L faulty in
  let crash_sink = Checkpoint.sink ~dir () in
  let crash_ctx = Queries.context ~transport:crash_tr ~checkpoint:crash_sink ~seed:99L () in
  (Fun.protect ~finally:(fun () -> close crash_ctx) @@ fun () ->
   match Secyan.Secure_yannakakis.run crash_ctx q with
   | _ -> Alcotest.fail "the disconnect must kill the run"
   | exception Resilient.Transport_error { kind; _ } ->
       Alcotest.(check string) "killed typed" "closed" (Resilient.error_kind_name kind));
  Alcotest.(check bool) "crash left snapshots behind" true (crash_sink.Checkpoint.written > 0);
  (* 3. resume on a fresh channel and compare every observable *)
  let resume_raw =
    if resume_chaos = "" then Transport.inproc ()
    else
      let spec =
        match Chaos.parse_spec resume_chaos with
        | Ok s -> s
        | Error e -> Alcotest.failf "bad resume chaos spec %S: %s" resume_chaos e
      in
      fst (Chaos.wrap ~seed:11L ~spec (Transport.inproc ()))
  in
  let resume_tr = Resilient.create ~seed:11L resume_raw in
  let resume_sink = Checkpoint.sink ~dir () in
  let resume_ctx =
    Queries.context ~transport:resume_tr ~checkpoint:resume_sink ~seed:99L ()
  in
  Fun.protect ~finally:(fun () -> close resume_ctx) @@ fun () ->
  let resumed_rel, resumed_stats = Secyan.Secure_yannakakis.run ~resume:true resume_ctx q in
  Alcotest.(check bool) "really resumed mid-stream" true
    (Option.is_some resume_sink.Checkpoint.resumed_from);
  Alcotest.(check (list (pair string int64)))
    "revealed result identical"
    (project_content q.Secyan.Query.output clean_rel)
    (project_content q.Secyan.Query.output resumed_rel);
  Alcotest.(check bool) "comm tally bit-identical" true
    (Comm.equal clean_stats.Secyan.Secure_yannakakis.tally
       resumed_stats.Secyan.Secure_yannakakis.tally);
  Alcotest.(check int) "rounds identical"
    clean_stats.Secyan.Secure_yannakakis.tally.Comm.rounds
    resumed_stats.Secyan.Secure_yannakakis.tally.Comm.rounds;
  Alcotest.(check (list int)) "protocol counters identical" clean_counters
    (protocol_counters ~mask_transport resume_ctx);
  if mask_transport then
    (* the chaotic channel must actually have been exercised *)
    Alcotest.(check bool) "resume leg really retried" true
      ((Resilient.stats resume_tr).Resilient.retries >= 1)

(* Cancellation always leaves a resumable checkpoint (DESIGN.md §15):
   phase-boundary cancel checks run after the previous operator's save,
   so a run cancelled mid-protocol — here by a watcher domain firing the
   token once snapshots exist — resumes into a run whose result, tally,
   rounds, and protocol counters are bit-identical to an uninterrupted
   one. *)
let cancel_and_resume make () =
  let d = xs () in
  let q = make d in
  let clean_ctx = Queries.context ~seed:99L () in
  let (clean_rel, clean_stats), clean_counters =
    Fun.protect ~finally:(fun () -> close clean_ctx) @@ fun () ->
    let r = Secyan.Secure_yannakakis.run clean_ctx q in
    (r, protocol_counters clean_ctx)
  in
  let dir = tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf_flat dir) @@ fun () ->
  let tok = Secyan_deadline.never () in
  let sink = Checkpoint.sink ~dir () in
  let watcher =
    Domain.spawn (fun () ->
        let t0 = Unix.gettimeofday () in
        while
          sink.Checkpoint.written < 2
          && Secyan_deadline.cancelled tok = None
          && Unix.gettimeofday () -. t0 < 60.0
        do
          Unix.sleepf 0.0002
        done;
        ignore (Secyan_deadline.cancel tok (Secyan_deadline.User "test")))
  in
  let cancel_ctx = Queries.context ~checkpoint:sink ~cancel:tok ~seed:99L () in
  (Fun.protect ~finally:(fun () -> close cancel_ctx) @@ fun () ->
   match Secyan.Secure_yannakakis.run cancel_ctx q with
   | _ -> Alcotest.fail "the fired token must interrupt the run"
   | exception
       Secyan_deadline.Cancelled
         { reason = Secyan_deadline.User _; where } ->
       Alcotest.(check bool) "cancellation names its site" true (where <> ""));
  Domain.join watcher;
  Alcotest.(check bool) "cancel left snapshots behind" true (sink.Checkpoint.written >= 2);
  let resume_sink = Checkpoint.sink ~dir () in
  let resume_ctx = Queries.context ~checkpoint:resume_sink ~seed:99L () in
  Fun.protect ~finally:(fun () -> close resume_ctx) @@ fun () ->
  let resumed_rel, resumed_stats = Secyan.Secure_yannakakis.run ~resume:true resume_ctx q in
  Alcotest.(check bool) "really resumed mid-stream" true
    (Option.is_some resume_sink.Checkpoint.resumed_from);
  Alcotest.(check (list (pair string int64)))
    "revealed result identical"
    (project_content q.Secyan.Query.output clean_rel)
    (project_content q.Secyan.Query.output resumed_rel);
  Alcotest.(check bool) "comm tally bit-identical" true
    (Comm.equal clean_stats.Secyan.Secure_yannakakis.tally
       resumed_stats.Secyan.Secure_yannakakis.tally);
  Alcotest.(check (list int)) "protocol counters identical" clean_counters
    (protocol_counters resume_ctx)

(* a valid checkpoint stream under the WRONG query must refuse to load *)
let test_resume_wrong_query_rejected () =
  let dir = tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf_flat dir) @@ fun () ->
  let d = xs () in
  let ctx = Queries.context ~checkpoint:(Checkpoint.sink ~dir ()) ~seed:99L () in
  (Fun.protect ~finally:(fun () -> close ctx) @@ fun () ->
   ignore (Secyan.Secure_yannakakis.run ctx (Queries.q3 d)));
  let ctx2 = Queries.context ~checkpoint:(Checkpoint.sink ~dir ()) ~seed:99L () in
  Fun.protect ~finally:(fun () -> close ctx2) @@ fun () ->
  expect_error Checkpoint.Fingerprint_mismatch (fun () ->
      Secyan.Secure_yannakakis.run ~resume:true ctx2 (Queries.q10 d))

(* The metrics export renders the ledger, and a resume restores the
   ledger: after a resume the exported traffic totals are the run's whole
   tally (restored work included), equal to an uninterrupted run's. *)
let test_resume_export_equals_tally () =
  let d = xs () in
  let q = Queries.q3 d in
  let clean_tr = Resilient.create (Transport.inproc ()) in
  let clean_ctx = Queries.context ~transport:clean_tr ~seed:99L () in
  let clean_tally =
    Fun.protect ~finally:(fun () -> close clean_ctx) @@ fun () ->
    (snd (Secyan.Secure_yannakakis.run clean_ctx q)).Secyan.Secure_yannakakis.tally
  in
  let transfers = (Resilient.stats clean_tr).Resilient.transfers in
  let dir = tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf_flat dir) @@ fun () ->
  let faulty, _ =
    Chaos.wrap ~seed:7L ~spec:[ (Chaos.Disconnect, transfers - 5) ] (Transport.inproc ())
  in
  let crash_ctx =
    Queries.context ~transport:(Resilient.create ~seed:7L faulty)
      ~checkpoint:(Checkpoint.sink ~dir ()) ~seed:99L ()
  in
  (Fun.protect ~finally:(fun () -> close crash_ctx) @@ fun () ->
   match Secyan.Secure_yannakakis.run crash_ctx q with
   | _ -> Alcotest.fail "the disconnect must kill the run"
   | exception Resilient.Transport_error _ -> ());
  let resume_sink = Checkpoint.sink ~dir () in
  let resume_ctx =
    Queries.context ~transport:(Resilient.create (Transport.inproc ()))
      ~checkpoint:resume_sink ~seed:99L ()
  in
  Fun.protect ~finally:(fun () -> close resume_ctx) @@ fun () ->
  ignore (Secyan.Secure_yannakakis.run ~resume:true resume_ctx q);
  Alcotest.(check bool) "really resumed mid-stream" true
    (Option.is_some resume_sink.Checkpoint.resumed_from);
  let exported name =
    match
      List.find_opt
        (fun s -> s.Secyan_metrics.name = name)
        (Secyan_obs.Metrics.snapshot ~ledger:resume_ctx ())
    with
    | Some { Secyan_metrics.value = Secyan_metrics.Counter n; _ } -> n
    | _ -> Alcotest.failf "no counter %s in the export" name
  in
  let tally = Context.tally resume_ctx in
  Alcotest.(check int) "exported A->B bits = tally" tally.Comm.alice_to_bob_bits
    (exported "secyan_alice_to_bob_bits_total");
  Alcotest.(check int) "exported B->A bits = tally" tally.Comm.bob_to_alice_bits
    (exported "secyan_bob_to_alice_bits_total");
  Alcotest.(check int) "exported rounds = tally" tally.Comm.rounds
    (exported "secyan_rounds_total");
  Alcotest.(check bool) "tally equals the uninterrupted run's" true
    (Comm.equal clean_tally tally)

(* a corrupted latest checkpoint must fail typed, never silently load *)
let test_resume_corrupted_rejected () =
  let dir = tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf_flat dir) @@ fun () ->
  let d = xs () in
  let q = Queries.q3 d in
  let ctx = Queries.context ~checkpoint:(Checkpoint.sink ~dir ()) ~seed:99L () in
  (Fun.protect ~finally:(fun () -> close ctx) @@ fun () ->
   ignore (Secyan.Secure_yannakakis.run ctx q));
  (match Checkpoint.latest_path dir with
  | Some (_, path) ->
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let b = Bytes.create n in
      really_input ic b 0 n;
      close_in ic;
      Bytes.set b (n / 2) (Char.chr (Char.code (Bytes.get b (n / 2)) lxor 1));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc
  | None -> Alcotest.fail "no checkpoint to corrupt");
  let ctx2 = Queries.context ~checkpoint:(Checkpoint.sink ~dir ()) ~seed:99L () in
  Fun.protect ~finally:(fun () -> close ctx2) @@ fun () ->
  expect_error Checkpoint.Crc_mismatch (fun () ->
      Secyan.Secure_yannakakis.run ~resume:true ctx2 q)

(* ------------------------------------------------------------------ *)
(* Resume disagreement: the three ways two parties can disagree on what
   is being resumed — query fingerprint, last-acked checkpoint epoch,
   protocol version — each rejected typed for every checkpointable
   query, never silently resumed (DESIGN.md §16).                      *)

let resume_disagreement make other () =
  let d = xs () in
  let q = make d in
  let dir = tmpdir () in
  Fun.protect ~finally:(fun () -> rm_rf_flat dir) @@ fun () ->
  let ctx = Queries.context ~checkpoint:(Checkpoint.sink ~dir ()) ~seed:99L () in
  (Fun.protect ~finally:(fun () -> close ctx) @@ fun () ->
   ignore (Secyan.Secure_yannakakis.run ctx q));
  (* (a) fingerprint: the stream under a different query refuses to load *)
  let ctx2 = Queries.context ~checkpoint:(Checkpoint.sink ~dir ()) ~seed:99L () in
  (Fun.protect ~finally:(fun () -> close ctx2) @@ fun () ->
   expect_error Checkpoint.Fingerprint_mismatch (fun () ->
       Secyan.Secure_yannakakis.run ~resume:true ctx2 (other d)));
  let epoch =
    match Checkpoint.latest_path dir with
    | Some (epoch, _) -> epoch
    | None -> Alcotest.fail "run left no checkpoint behind"
  in
  let t = Resilient.create (Transport.inproc ()) in
  Fun.protect ~finally:(fun () -> Resilient.close t) @@ fun () ->
  let session = Filename.basename dir in
  (* (b) last-acked checkpoint epoch disagreement *)
  (match Resilient.resume_handshake t ~alice:(session, epoch) ~bob:(session, epoch + 1) with
  | () -> Alcotest.fail "epoch disagreement must raise"
  | exception Resilient.Resume_mismatch m ->
      Alcotest.(check int) "alice epoch" epoch m.alice_epoch;
      Alcotest.(check int) "bob epoch" (epoch + 1) m.bob_epoch);
  (* (c) protocol version skew, same session and epoch *)
  match
    Resilient.resume_handshake t ~alice_version:Resilient.protocol_version
      ~bob_version:(Resilient.protocol_version + 1)
      ~alice:(session, epoch) ~bob:(session, epoch)
  with
  | () -> Alcotest.fail "version skew must raise"
  | exception Resilient.Resume_mismatch m ->
      Alcotest.(check int) "alice version" Resilient.protocol_version m.alice_version;
      Alcotest.(check int) "bob version" (Resilient.protocol_version + 1) m.bob_version

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "secyan_checkpoint"
    [
      ( "envelope",
        [
          Alcotest.test_case "roundtrip" `Quick test_envelope_roundtrip;
          Alcotest.test_case "damage rejected typed" `Quick test_envelope_rejects_damage;
          Alcotest.test_case "sink emit and latest" `Quick test_sink_emit_and_latest;
        ] );
      ( "snapshot",
        [ Alcotest.test_case "codec canonical" `Slow test_snapshot_codec_canonical ] );
      ( "handshake",
        [ Alcotest.test_case "resume handshake" `Quick test_resume_handshake ] );
      ( "kill-and-resume",
        [
          Alcotest.test_case "q3 bit-identical" `Slow (kill_and_resume Queries.q3);
          Alcotest.test_case "q10 bit-identical" `Slow (kill_and_resume Queries.q10);
          Alcotest.test_case "q18 bit-identical" `Slow
            (kill_and_resume (Queries.q18 ?threshold:None));
          Alcotest.test_case "wrong query rejected" `Slow test_resume_wrong_query_rejected;
          Alcotest.test_case "corrupted rejected" `Slow test_resume_corrupted_rejected;
          Alcotest.test_case "resumed export equals tally" `Slow
            test_resume_export_equals_tally;
        ] );
      ( "resume-disagreement",
        [
          Alcotest.test_case "q3 fingerprint/epoch/version" `Slow
            (resume_disagreement Queries.q3 Queries.q10);
          Alcotest.test_case "q10 fingerprint/epoch/version" `Slow
            (resume_disagreement Queries.q10 (Queries.q18 ?threshold:None));
          Alcotest.test_case "q18 fingerprint/epoch/version" `Slow
            (resume_disagreement (Queries.q18 ?threshold:None) Queries.q3);
        ] );
      ( "resume-under-chaos",
        [
          Alcotest.test_case "q3 resumed over drop chaos" `Slow
            (kill_and_resume ~resume_chaos:"drop:3" Queries.q3);
          Alcotest.test_case "q10 resumed over delay+dup chaos" `Slow
            (kill_and_resume ~resume_chaos:"delay:2,duplicate:2" Queries.q10);
          Alcotest.test_case "q18 resumed over drop chaos" `Slow
            (kill_and_resume ~resume_chaos:"drop:3" (Queries.q18 ?threshold:None));
          Alcotest.test_case "q3 cancel-then-resume" `Slow (cancel_and_resume Queries.q3);
          Alcotest.test_case "q18 cancel-then-resume" `Slow
            (cancel_and_resume (Queries.q18 ?threshold:None));
        ] );
    ]
