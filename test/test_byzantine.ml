(* Byzantine-peer hardening (DESIGN.md §16): the typed envelope codec and
   its pre-allocation gate, the protocol state machine's phase tracking
   and legality table, the Byzantine mutations' determinism, and a
   mini adversarial campaign holding the honest party to the hardening
   invariant — typed rejection or correct output, never a crash, hang,
   or silently accepted wrong answer. *)

open Secyan_net
module Protocol_schema = Secyan_crypto.Protocol_schema
module Peer_oracle = Secyan_fuzz.Peer_oracle

(* ------------------------------------------------------------------ *)
(* Envelope codec                                                     *)

let test_envelope_roundtrip () =
  List.iter
    (fun kind ->
      List.iter
        (fun body ->
          let p = Envelope.encode ~kind (Bytes.of_string body) in
          Alcotest.(check int)
            "envelope size" (String.length body + Envelope.header_len) (Bytes.length p);
          match Envelope.decode p with
          | Ok (k, b) ->
              Alcotest.(check string)
                "kind" (Envelope.kind_name kind) (Envelope.kind_name k);
              Alcotest.(check string) "body" body (Bytes.to_string b)
          | Error e -> Alcotest.failf "decode failed: %s" (Envelope.error_to_string e))
        [ ""; "x"; String.make 257 'q' ])
    Envelope.all_kinds

let test_envelope_tags_stable () =
  (* wire tags are a compatibility contract; pin them *)
  Alcotest.(check (list int))
    "tags 0..8 in declaration order"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]
    (List.map Envelope.kind_tag Envelope.all_kinds);
  List.iter
    (fun k ->
      match Envelope.kind_of_tag (Envelope.kind_tag k) with
      | Some k' -> Alcotest.(check string) "tag roundtrip" (Envelope.kind_name k)
                     (Envelope.kind_name k')
      | None -> Alcotest.fail "known tag must resolve")
    Envelope.all_kinds

let le32 b off n =
  Bytes.set b off (Char.chr (n land 0xff));
  Bytes.set b (off + 1) (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b (off + 3) (Char.chr ((n lsr 24) land 0xff))

(* Handcraft a header declaring [declared] regardless of any body. *)
let raw_header ~kind ~declared =
  let h = Bytes.create Envelope.header_len in
  Bytes.set h 0 (Char.chr Envelope.version);
  Bytes.set h 1 (Char.chr (Envelope.kind_tag kind));
  le32 h 2 declared;
  h

let test_envelope_rejects_damage () =
  let p = Envelope.encode ~kind:Envelope.Psi (Bytes.of_string "body") in
  let v = Bytes.copy p in
  Bytes.set v 0 '\002';
  (match Envelope.decode v with
  | Error (Envelope.Bad_version { got }) -> Alcotest.(check int) "version" 2 got
  | Ok _ | Error _ -> Alcotest.fail "wrong version must be rejected");
  let k = Bytes.copy p in
  Bytes.set k 1 '\200';
  (match Envelope.decode k with
  | Error (Envelope.Unknown_kind { tag }) -> Alcotest.(check int) "tag" 200 tag
  | Ok _ | Error _ -> Alcotest.fail "unknown kind must be rejected");
  (match Envelope.decode (Bytes.sub p 0 (Envelope.header_len - 1)) with
  | Error (Envelope.Truncated { have }) ->
      Alcotest.(check int) "have" (Envelope.header_len - 1) have
  | Ok _ | Error _ -> Alcotest.fail "sub-header payload must be rejected");
  let l = Bytes.copy p in
  le32 l 2 3;
  (match Envelope.decode l with
  | Error (Envelope.Length_mismatch { declared; actual }) ->
      Alcotest.(check (pair int int)) "declared/actual" (3, 4) (declared, actual)
  | Ok _ | Error _ -> Alcotest.fail "lying declared length must be rejected");
  (* the pre-allocation gate: an above-cap declared length is refused
     from the 6 header bytes alone, before any body is copied *)
  (match Envelope.check_header (raw_header ~kind:Envelope.Psi ~declared:(Envelope.max_body + 1)) with
  | Error (Envelope.Oversized { declared; limit; _ }) ->
      Alcotest.(check int) "declared" (Envelope.max_body + 1) declared;
      Alcotest.(check int) "limit" Envelope.max_body limit
  | Ok _ | Error _ -> Alcotest.fail "above-cap declared length must be refused pre-copy");
  (* hello has a tighter cap, enforced at both ends *)
  (match Envelope.check_header (raw_header ~kind:Envelope.Hello ~declared:(Envelope.max_hello + 1)) with
  | Error (Envelope.Oversized _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "hello over its cap must be refused");
  match Envelope.encode ~kind:Envelope.Hello (Bytes.make (Envelope.max_hello + 1) 'x') with
  | _ -> Alcotest.fail "encode must refuse an over-cap hello"
  | exception Invalid_argument _ -> ()

let prop_envelope_roundtrip =
  QCheck.Test.make ~count:300 ~name:"envelope encode/decode roundtrip"
    QCheck.(pair (int_bound 8) string)
    (fun (tag, body) ->
      let kind = Option.get (Envelope.kind_of_tag tag) in
      QCheck.assume (String.length body <= Envelope.kind_cap kind);
      match Envelope.decode (Envelope.encode ~kind (Bytes.of_string body)) with
      | Ok (k, b) -> k = kind && Bytes.to_string b = body
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Protocol state machine                                             *)

let test_kind_of_label () =
  List.iter
    (fun (label, want) ->
      Alcotest.(check string)
        label (Envelope.kind_name want)
        (Envelope.kind_name (Protocol_schema.kind_of_label label)))
    [
      ("share:customer", Envelope.Share);
      ("phase:share", Envelope.Share);
      ("psi:hash", Envelope.Psi);
      ("oprf:batch", Envelope.Oprf);
      ("oep:route", Envelope.Oep);
      ("ot:ext", Envelope.Ot);
      ("ot:mul", Envelope.Ot);
      ("gc:shares", Envelope.Gc);
      ("reveal", Envelope.Reveal);
      ("reveal:orders", Envelope.Reveal);
      ("agg:sum", Envelope.Op);
      ("checkpoint", Envelope.Op);
      ("init", Envelope.Op);
    ]

let check_phase name want s =
  Alcotest.(check string)
    name
    (Protocol_schema.phase_name want)
    (Protocol_schema.phase_name (Protocol_schema.phase s))

let test_phase_tracking () =
  let s = Protocol_schema.create () in
  check_phase "initial" Protocol_schema.Unrestricted s;
  Protocol_schema.enter s "phase:share";
  check_phase "share marker" Protocol_schema.Share_phase s;
  Protocol_schema.enter s "share:customer";
  check_phase "inner span inherits" Protocol_schema.Share_phase s;
  Protocol_schema.leave s;
  Protocol_schema.leave s;
  check_phase "unwound" Protocol_schema.Unrestricted s;
  Protocol_schema.enter s "phase:reduce";
  Protocol_schema.enter s "psi:batch";
  check_phase "reduce" Protocol_schema.Reduce s;
  Protocol_schema.leave s;
  Protocol_schema.leave s;
  Protocol_schema.enter s "phase:join";
  check_phase "join" Protocol_schema.Join s;
  Protocol_schema.enter s "reveal";
  check_phase "reveal nested in join" Protocol_schema.Reveal_phase s;
  Protocol_schema.leave s;
  check_phase "back to join" Protocol_schema.Join s;
  Protocol_schema.leave s;
  check_phase "unwound again" Protocol_schema.Unrestricted s

let test_legality_table () =
  let module P = Protocol_schema in
  let cases =
    [
      (P.Unrestricted, Envelope.Psi, true);
      (P.Unrestricted, Envelope.Hello, false);
      (P.Resume, Envelope.Hello, true);
      (P.Resume, Envelope.Share, false);
      (P.Share_phase, Envelope.Share, true);
      (P.Share_phase, Envelope.Psi, false);
      (P.Share_phase, Envelope.Reveal, false);
      (P.Reduce, Envelope.Gc, true);
      (P.Reduce, Envelope.Oprf, true);
      (P.Reduce, Envelope.Reveal, false);
      (P.Semijoin, Envelope.Ot, true);
      (P.Semijoin, Envelope.Share, false);
      (P.Join, Envelope.Reveal, true);
      (P.Join, Envelope.Gc, true);
      (P.Join, Envelope.Hello, false);
      (P.Reveal_phase, Envelope.Reveal, true);
      (P.Reveal_phase, Envelope.Gc, false);
    ]
  in
  List.iter
    (fun (phase, kind, want) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s" (P.phase_name phase) (Envelope.kind_name kind))
        want (P.legal phase kind))
    cases

let test_check_send_violation () =
  let s = Protocol_schema.create () in
  Protocol_schema.enter s "phase:share";
  Protocol_schema.enter s "share:orders";
  (match Protocol_schema.check_send s ~bits:8 with
  | k -> Alcotest.(check string) "share is legal" "share" (Envelope.kind_name k)
  | exception Protocol_schema.Protocol_violation _ ->
      Alcotest.fail "legal send must pass");
  (* a reveal attempted during share distribution is a violation *)
  Protocol_schema.enter s "reveal:orders";
  match Protocol_schema.check_send s ~bits:8 with
  | _ -> Alcotest.fail "reveal during share must be refused"
  | exception Protocol_schema.Protocol_violation { phase; got; _ } ->
      Alcotest.(check string) "phase" "share" phase;
      Alcotest.(check bool) "names the offender" true
        (String.length got >= 15 && String.sub got 0 15 = "outgoing reveal")

let expect_violation name ~offset f =
  match f () with
  | () -> Alcotest.failf "%s: expected a protocol violation" name
  | exception Protocol_schema.Protocol_violation v ->
      Alcotest.(check int) (name ^ " offset") offset v.offset

let test_validate_offsets () =
  let s = Protocol_schema.create () in
  let p = Envelope.encode ~kind:Envelope.Psi (Bytes.of_string "abc") in
  (* the honest echo passes *)
  Protocol_schema.validate s ~kind:Envelope.Psi ~expect_body:3 p;
  (* bad version: offset 0 *)
  expect_violation "bad version" ~offset:0 (fun () ->
      let v = Bytes.copy p in
      Bytes.set v 0 '\007';
      Protocol_schema.validate s ~kind:Envelope.Psi ~expect_body:3 v);
  (* retagged kind: offset 1 *)
  expect_violation "retag" ~offset:1 (fun () ->
      Protocol_schema.validate s ~kind:Envelope.Gc ~expect_body:3 p);
  (* hello outside the resume handshake: offset 1 *)
  expect_violation "cross-phase hello" ~offset:1 (fun () ->
      Protocol_schema.validate s ~kind:Envelope.Hello ~expect_body:0
        (Envelope.encode ~kind:Envelope.Hello Bytes.empty));
  (* lying declared length: offset 2 *)
  expect_violation "length lie" ~offset:2 (fun () ->
      let l = Bytes.copy p in
      le32 l 2 2;
      Protocol_schema.validate s ~kind:Envelope.Psi ~expect_body:3 l);
  (* right envelope, wrong size for what this transfer expects: offset 2 *)
  expect_violation "unexpected size" ~offset:2 (fun () ->
      Protocol_schema.validate s ~kind:Envelope.Psi ~expect_body:5 p)

(* ------------------------------------------------------------------ *)
(* Hello caps                                                         *)

let test_hello_identity_cap () =
  let t = Resilient.create (Transport.inproc ()) in
  Fun.protect ~finally:(fun () -> Resilient.close t) @@ fun () ->
  let big = String.make (Resilient.max_identity + 1) 's' in
  match Resilient.resume_handshake t ~alice:(big, 0) ~bob:(big, 0) with
  | () -> Alcotest.fail "oversized identity must be rejected before allocation"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Byzantine mutations (Chaos, Indexed layout)                        *)

let parse_indexed = Chaos.parse_spec ~layout:Chaos.Indexed

let test_mutator_spec_roundtrip () =
  (match parse_indexed "retag:3,replay:12,length-lie:0,reorder:2" with
  | Ok s ->
      Alcotest.(check string)
        "roundtrip" "retag:3,replay:12,length-lie:0,reorder:2"
        (Chaos.spec_to_string ~layout:Chaos.Indexed s)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match parse_indexed "" with
  | Ok [] -> ()
  | Ok _ | Error _ -> Alcotest.fail "empty spec parses to the empty schedule");
  (match parse_indexed "smash:3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown mutation must be rejected");
  (match parse_indexed "drop:3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a --chaos kind must be rejected under --malicious");
  match parse_indexed "retag:-1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative index must be rejected"

(* Pump a fixed synthetic frame sequence through the wrapper and record
   what comes out the other side, plus the realized injection log. *)
let mutator_trace ~seed ~spec =
  let out = ref [] in
  let raw = Transport.inproc () in
  let sink =
    {
      raw with
      Transport.send_frame = (fun dir f -> out := (dir, Bytes.to_string f) :: !out);
    }
  in
  let byz, injected = Chaos.wrap ~seed ~layout:Chaos.Indexed ~spec sink in
  for i = 0 to 19 do
    let kind = List.nth [ Envelope.Psi; Envelope.Gc; Envelope.Op ] (i mod 3) in
    let payload = Envelope.encode ~kind (Bytes.make (4 + i) (Char.chr (65 + i))) in
    let dir = if i mod 2 = 0 then Transport.Alice_to_bob else Transport.Bob_to_alice in
    byz.Transport.send_frame dir (Frame.encode ~seq:(Int64.of_int i) payload)
  done;
  (List.rev !out, injected ())

let prop_mutator_deterministic =
  QCheck.Test.make ~count:40 ~name:"mutation schedule is a function of (spec, seed)"
    QCheck.(pair int64 (small_list (pair (int_bound 6) (int_bound 19))))
    (fun (seed, raw_spec) ->
      let spec =
        List.map (fun (m, i) -> (List.nth Chaos.byzantine m, i)) raw_spec
      in
      mutator_trace ~seed ~spec = mutator_trace ~seed ~spec)

let test_mutator_mutates_scheduled_index () =
  let spec = [ (Chaos.Retag, 4) ] in
  let honest, _ = mutator_trace ~seed:9L ~spec:[] in
  let mutated, injected = mutator_trace ~seed:9L ~spec in
  Alcotest.(check int) "one mutation fired" 1 (List.length injected);
  List.iteri
    (fun i ((_, h), (_, m)) ->
      if i = 4 then
        Alcotest.(check bool) "index 4 differs" true (h <> m)
      else Alcotest.(check string) (Printf.sprintf "index %d intact" i) h m)
    (List.combine honest mutated)

(* A schedule without replay or splice keeps no transcript: 64 honest
   1 MiB frames after a [retag:0] must not stay live in the major heap. *)
let test_mutator_keeps_no_transcript () =
  let raw = Transport.inproc () in
  let sink = { raw with Transport.send_frame = (fun _ _ -> ()) } in
  let byz, _ = Chaos.wrap ~layout:Chaos.Indexed ~spec:[ (Chaos.Retag, 0) ] sink in
  let body = Bytes.make (1 lsl 20) 'x' in
  let frame = Frame.encode ~seq:0L (Envelope.encode ~kind:Envelope.Op body) in
  let live_mib () =
    Gc.full_major ();
    float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.
  in
  let before = live_mib () in
  for _ = 1 to 64 do
    byz.Transport.send_frame Transport.Alice_to_bob frame
  done;
  let grown = live_mib () -. before in
  (* one more send keeps the wrapper reachable across the measurement *)
  byz.Transport.send_frame Transport.Alice_to_bob frame;
  Alcotest.(check bool)
    (Printf.sprintf "live major heap grew %.1f MiB (bound 32)" grown)
    true (grown < 32.)

(* A length lie in the frame header refreshes the CRC, so the receiver
   rejects the frame at the length check ([Bad_length], not [Bad_crc])
   and a stream reader waits for bytes that never come. The other
   length lies sit in the envelope inside a valid frame. *)
let test_frame_length_lie_passes_crc () =
  let frame = Frame.encode ~seq:3L (Envelope.encode ~kind:Envelope.Gc (Bytes.make 40 'g')) in
  let len = Bytes.length frame in
  let header_lies =
    List.filter_map
      (fun seed ->
        let out = ref Bytes.empty in
        let raw = Transport.inproc () in
        let sink = { raw with Transport.send_frame = (fun _ f -> out := f) } in
        let byz, _ =
          Chaos.wrap ~seed ~layout:Chaos.Indexed ~spec:[ (Chaos.Length_lie, 0) ] sink
        in
        byz.Transport.send_frame Transport.Alice_to_bob frame;
        match Frame.decode !out with Ok _ -> None | Error e -> Some (!out, e))
      (List.init 30 Int64.of_int)
  in
  Alcotest.(check bool) "some seed lies in the frame header" true (header_lies <> []);
  List.iter
    (fun (lied, err) ->
      Alcotest.(check string) "decode: length error" (Frame.error_to_string Frame.Bad_length)
        (Frame.error_to_string err);
      Alcotest.(check int) "same size on the wire" len (Bytes.length lied);
      let field = Frame.header_len - 4 in
      Alcotest.(check bool) "only the length field and CRC differ" true
        (Bytes.sub lied 0 field = Bytes.sub frame 0 field
        && Bytes.sub lied Frame.header_len (len - Frame.header_len - 4)
           = Bytes.sub frame Frame.header_len (len - Frame.header_len - 4));
      Alcotest.(check int) "CRC valid" (Crc32.digest lied ~pos:2 ~len:(len - 6))
        (Int32.to_int (Bytes.get_int32_le lied (len - 4)) land 0xFFFF_FFFF);
      match Frame.required lied ~pos:0 ~len with
      | Ok (Some n) -> Alcotest.(check bool) "required asks for more bytes" true (n > len)
      | Ok None | Error _ -> Alcotest.fail "required must accept the lied header")
    header_lies

(* ------------------------------------------------------------------ *)
(* Peer-fuzz pins and mini adversarial campaign                       *)

(* Seed 42, cases 0-19: the drawn schedule, the mutations that fired and
   the outcome of each case. [Peer_oracle.derive_spec] indexes
   [Chaos.byzantine] by RNG draw, so a reordered list or a drifted
   mutation shows here. *)
let test_peer_fuzz_pins () =
  List.iteri
    (fun case expected ->
      let r = Peer_oracle.run_case ~seed:42L ~case () in
      Alcotest.(check (triple string string string))
        (Printf.sprintf "case %d" case) expected
        ( r.Peer_oracle.spec,
          r.Peer_oracle.injected,
          Peer_oracle.outcome_name r.Peer_oracle.outcome ))
    [
      ("extend:21", "extend:21", "protocol-violation");
      ("replay:19,splice:8,length-lie:13", "splice:8", "protocol-violation");
      ("truncate:13,extend:42", "truncate:13", "protocol-violation");
      ("extend:41", "extend:41", "protocol-violation");
      ("length-lie:35", "length-lie:35", "protocol-violation");
      ("length-lie:17", "length-lie:17", "protocol-violation");
      ("reorder:2,replay:73,replay:3", "reorder:2,replay:3,replay:73", "protocol-violation");
      ("replay:62,length-lie:16", "length-lie:16", "protocol-violation");
      ("truncate:53,reorder:9", "reorder:9,truncate:53", "protocol-violation");
      ("replay:59,retag:43,length-lie:46", "retag:43", "protocol-violation");
      ("length-lie:138,extend:44,replay:167", "extend:44", "protocol-violation");
      ("replay:360,extend:385", "replay:360", "protocol-violation");
      ("extend:106,truncate:89,reorder:133", "truncate:89", "protocol-violation");
      ("length-lie:130", "length-lie:130", "correct");
      ("reorder:65,reorder:9", "reorder:9,reorder:65", "correct");
      ("retag:93,replay:1", "replay:1,retag:93", "protocol-violation");
      ("extend:80", "extend:80", "protocol-violation");
      ("reorder:86,reorder:128", "reorder:86,reorder:128", "correct");
      ("retag:1,extend:7", "retag:1", "protocol-violation");
      ("extend:8,length-lie:4,truncate:7", "length-lie:4", "protocol-violation");
    ]

let test_mini_campaign () =
  let cases = 40 in
  let stats = Peer_oracle.campaign ~deadline_s:30. ~resume_every:10 ~seed:7L ~cases () in
  List.iter
    (fun (f : Peer_oracle.case_report) ->
      Alcotest.failf "case %d (%s): %s — %s" f.Peer_oracle.case f.Peer_oracle.spec
        (Peer_oracle.outcome_name f.Peer_oracle.outcome)
        f.Peer_oracle.detail)
    stats.Peer_oracle.failures;
  Alcotest.(check int)
    "every case classified as correct, violation, or transport fault" cases
    (stats.Peer_oracle.correct + stats.Peer_oracle.violations
    + stats.Peer_oracle.transport_faults);
  Alcotest.(check bool) "resume bit-identity sampled" true
    (stats.Peer_oracle.resumes_checked >= 1)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "secyan_byzantine"
    [
      ( "envelope",
        [
          Alcotest.test_case "roundtrip" `Quick test_envelope_roundtrip;
          Alcotest.test_case "tags stable" `Quick test_envelope_tags_stable;
          Alcotest.test_case "damage rejected typed" `Quick test_envelope_rejects_damage;
        ] );
      ( "schema",
        [
          Alcotest.test_case "kind of label" `Quick test_kind_of_label;
          Alcotest.test_case "phase tracking" `Quick test_phase_tracking;
          Alcotest.test_case "legality table" `Quick test_legality_table;
          Alcotest.test_case "check_send violation" `Quick test_check_send_violation;
          Alcotest.test_case "validate offsets" `Quick test_validate_offsets;
        ] );
      ("hello", [ Alcotest.test_case "identity cap" `Quick test_hello_identity_cap ]);
      ( "mutator",
        [
          Alcotest.test_case "spec roundtrip" `Quick test_mutator_spec_roundtrip;
          Alcotest.test_case "mutates only the scheduled index" `Quick
            test_mutator_mutates_scheduled_index;
          Alcotest.test_case "keeps no transcript without replay" `Quick
            test_mutator_keeps_no_transcript;
          Alcotest.test_case "frame length lie passes CRC" `Quick
            test_frame_length_lie_passes_crc;
        ] );
      ("properties", qsuite [ prop_envelope_roundtrip; prop_mutator_deterministic ]);
      ( "campaign",
        [
          Alcotest.test_case "peer-fuzz pins (seed 42, cases 0-19)" `Quick test_peer_fuzz_pins;
          Alcotest.test_case "mini adversarial campaign" `Slow test_mini_campaign;
        ] );
    ]
