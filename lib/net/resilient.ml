(** The resilience layer: reliable logical transfers over an unreliable
    raw transport.

    One {!transfer} moves one logical message. The payload is framed with
    a fresh per-direction sequence number and sent; the receiving side
    (same process — the runtime plays both parties) then waits for the
    frame with the expected sequence number under a per-attempt timeout.
    A timed-out or CRC-rejected attempt triggers a retransmission {e with
    the same sequence number} after an exponential backoff with
    deterministic jitter; the receiver drops already-delivered sequence
    numbers, so retransmissions racing a delayed original are idempotent.
    After [max_attempts] failures the transfer raises the typed
    {!Transport_error} — never a hang, never a silently wrong delivery:
    the failure names its kind, the attempts spent, and the elapsed time,
    so protocol phases can surface a clean, attributable fault.

    The state machine per transfer:

    {v
      SEND --(recv ok, seq match)--> DELIVERED
      SEND --(timeout | bad CRC)--> BACKOFF --(attempts left)--> SEND
      BACKOFF --(attempts exhausted)--> error Timeout | Corrupt
      any --(Transport.Closed)--> error Closed   (no retry: unrecoverable)
    v}
*)

type error_kind = Timeout | Corrupt | Closed

let error_kind_name = function
  | Timeout -> "timeout"
  | Corrupt -> "corrupt"
  | Closed -> "closed"

exception
  Transport_error of {
    kind : error_kind;
    attempts : int;
    elapsed : float;  (** seconds spent inside the failing transfer *)
    detail : string;
  }

let () =
  Printexc.register_printer (function
    | Transport_error { kind; attempts; elapsed; detail } ->
        Some
          (Printf.sprintf "Transport_error { kind = %s; attempts = %d; elapsed = %.3fs; %s }"
             (error_kind_name kind) attempts elapsed detail)
    | _ -> None)

exception
  Resume_mismatch of {
    alice_session : string;
    alice_epoch : int;
    alice_version : int;
    bob_session : string;
    bob_epoch : int;
    bob_version : int;
  }

let () =
  Printexc.register_printer (function
    | Resume_mismatch { alice_session; alice_epoch; alice_version; bob_session; bob_epoch;
                        bob_version } ->
        Some
          (Printf.sprintf
             "Resume_mismatch { alice = (%S, epoch %d, v%d); bob = (%S, epoch %d, v%d) }"
             alice_session alice_epoch alice_version bob_session bob_epoch bob_version)
    | _ -> None)

type event = Retry | Timeout_hit | Corrupt_frame | Duplicate_dropped

type config = {
  timeout : float;  (** per-attempt receive wait, seconds *)
  max_attempts : int;
  backoff_base : float;  (** first backoff, seconds; doubles per retry *)
  backoff_max : float;
  jitter : float;  (** fraction of the backoff added as seeded jitter *)
  sleep : float -> unit;
      (** how to wait out a backoff. [ignore] for the in-process backend
          (its timeouts are instantaneous, so real sleeping would only
          slow tests); [Unix.sleepf] for sockets. *)
}

let default_config =
  { timeout = 0.25; max_attempts = 5; backoff_base = 0.002; backoff_max = 0.05;
    jitter = 0.5; sleep = ignore }

type stats = {
  transfers : int;
  retries : int;
  timeouts : int;
  corrupt_frames : int;
  duplicates_dropped : int;
}

type t = {
  raw : Transport.raw;
  config : config;
  jitter_seed : int64;  (* jitter only; never touches protocol randomness *)
  mutable cancel : Secyan_deadline.t option;
      (* the owning query's cancel token: transfers poll it per attempt
         and cap their waits by its remaining budget *)
  send_seq : int64 array;  (* next seq per direction, index 0 = a->b *)
  expect_seq : int64 array;  (* next undelivered seq per direction *)
  mutable listener : (event -> unit) option;
  mutable transfers : int;
  mutable retries : int;
  mutable timeouts : int;
  mutable corrupt_frames : int;
  mutable duplicates_dropped : int;
}

let dir_index = function Transport.Alice_to_bob -> 0 | Transport.Bob_to_alice -> 1

let create ?(config = default_config) ?(seed = 1L) raw =
  if config.max_attempts < 1 then
    invalid_arg
      (Printf.sprintf "Resilient.create: max_attempts = %d, expected >= 1" config.max_attempts);
  {
    raw;
    config;
    jitter_seed = seed;
    cancel = None;
    send_seq = [| 0L; 0L |];
    expect_seq = [| 0L; 0L |];
    listener = None;
    transfers = 0;
    retries = 0;
    timeouts = 0;
    corrupt_frames = 0;
    duplicates_dropped = 0;
  }

let set_listener t l = t.listener <- l
let set_cancel t c = t.cancel <- c

let event t ev =
  (match ev with
  | Retry -> t.retries <- t.retries + 1
  | Timeout_hit -> t.timeouts <- t.timeouts + 1
  | Corrupt_frame -> t.corrupt_frames <- t.corrupt_frames + 1
  | Duplicate_dropped -> t.duplicates_dropped <- t.duplicates_dropped + 1);
  match t.listener with None -> () | Some f -> f ev

let stats t =
  {
    transfers = t.transfers;
    retries = t.retries;
    timeouts = t.timeouts;
    corrupt_frames = t.corrupt_frames;
    duplicates_dropped = t.duplicates_dropped;
  }

let kind t = t.raw.Transport.kind

let close t = t.raw.Transport.close ()

(* Stateless per-attempt jitter. Early versions drew jitter from a
   shared stream, which re-seeded identically on every attempt within a
   send — retry storms across transfers stayed in lockstep. Hashing
   (seed, seq, attempt) instead gives every attempt of every transfer
   its own fraction, reproducible from the seed alone (the determinism
   test pins this) while desynchronizing concurrent retriers. *)
let jitter_frac ~seed ~seq ~attempt =
  (* one splitmix64 step from state [x]: a stateless 64-bit hash *)
  let mix x = Rng.next (Rng.create x) in
  let h = mix (Int64.logxor seed (mix (Int64.logxor seq (mix (Int64.of_int attempt))))) in
  (* top 53 bits -> [0, 1) exactly representable in a float *)
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.

(* Remaining wall-clock budget of the owning query, [infinity] when the
   transfer is not under a constrained token. *)
let remaining_budget_s t =
  match t.cancel with
  | Some c when Secyan_deadline.constrained c -> Secyan_deadline.remaining_s c
  | _ -> infinity

let backoff t ~seq attempt =
  let b = t.config.backoff_base *. (2. ** float_of_int (attempt - 1)) in
  let b = Float.min b t.config.backoff_max in
  let j = t.config.jitter *. b *. jitter_frac ~seed:t.jitter_seed ~seq ~attempt in
  (* Never sleep past the query deadline: a backoff that outlives the
     budget only delays the typed cancellation. *)
  t.config.sleep (Float.min (b +. j) (Float.max 0. (remaining_budget_s t)))

(* One receive attempt: pop frames until the expected sequence number
   arrives or [deadline] passes. Stale sequence numbers are duplicates of
   already-delivered messages (dropped); CRC failures poison the attempt
   as [`Corrupt] but keep listening — the retransmission may already be
   queued behind the damaged frame. *)
let recv_attempt t dir ~deadline =
  let i = dir_index dir in
  let saw_corrupt = ref false in
  let rec go () =
    match t.raw.Transport.recv_frame dir ~deadline with
    | None -> if !saw_corrupt then `Corrupt else `Timeout
    | Some blob -> (
        match Frame.decode blob with
        | Error _ ->
            event t Corrupt_frame;
            saw_corrupt := true;
            go ()
        | Ok (seq, payload) ->
            if Int64.compare seq t.expect_seq.(i) < 0 then begin
              event t Duplicate_dropped;
              go ()
            end
            else if Int64.equal seq t.expect_seq.(i) then begin
              t.expect_seq.(i) <- Int64.add seq 1L;
              `Delivered payload
            end
            else begin
              (* A sequence number from the future cannot occur in a
                 lock-step two-party run; treat it as line corruption. *)
              event t Corrupt_frame;
              saw_corrupt := true;
              go ()
            end)
  in
  go ()

let transfer t ~dir payload =
  let i = dir_index dir in
  let seq = t.send_seq.(i) in
  t.send_seq.(i) <- Int64.add seq 1L;
  t.transfers <- t.transfers + 1;
  let frame = Frame.encode ~seq payload in
  let start = Unix.gettimeofday () in
  let fail kind detail attempts =
    raise
      (Transport_error
         { kind; attempts; elapsed = Unix.gettimeofday () -. start; detail })
  in
  let rec attempt n last =
    if n > t.config.max_attempts then
      let kind = match last with `Corrupt -> Corrupt | _ -> Timeout in
      fail kind
        (Printf.sprintf "detail = seq %Ld undelivered on %s (%s backend)" seq
           (Transport.direction_name dir) t.raw.Transport.kind)
        (n - 1)
    else begin
      (* Cooperative cancellation: poll the owning query's token before
         every attempt, so a transfer under an expired deadline (or an
         over-budget query) unwinds as [Cancelled] instead of burning the
         rest of its retry budget against a peer that may be fine. *)
      (match t.cancel with
      | Some c -> Secyan_deadline.check ~where:"net:transfer" c
      | None -> ());
      if n > 1 then begin
        event t Retry;
        backoff t ~seq (n - 1)
      end;
      match
        t.raw.Transport.send_frame dir frame;
        (* The attempt's receive wait respects the query's remaining
           budget, not just its own clock: with 10 s left, a 30 s
           [config.timeout] waits at most 10 s. *)
        recv_attempt t dir
          ~deadline:
            (Unix.gettimeofday ()
            +. Float.min t.config.timeout (remaining_budget_s t))
      with
      | `Delivered payload -> payload
      | `Timeout ->
          event t Timeout_hit;
          attempt (n + 1) `Timeout
      | `Corrupt -> attempt (n + 1) `Corrupt
      | exception Transport.Closed msg -> fail Closed ("detail = " ^ msg) n
      | exception Transport.Stalled msg ->
          (* A stalled channel made no frame progress for a whole stall
             window — no retry can help inside this transfer's budget. *)
          fail Timeout ("detail = " ^ msg) n
    end
  in
  attempt 1 `Timeout

(* --- session resume -------------------------------------------------- *)

(** The four sequence counters as one array: next send seq a->b, next
    send seq b->a, next expected seq a->b, next expected seq b->a. A
    checkpoint captures them with {!seq_state} and a resumed run replays
    them with {!restore_seq_state}, so post-resume frames carry the same
    sequence numbers an uninterrupted run would have used. *)
let seq_state t = [| t.send_seq.(0); t.send_seq.(1); t.expect_seq.(0); t.expect_seq.(1) |]

let restore_seq_state t a =
  if Array.length a <> 4 then
    invalid_arg
      (Printf.sprintf "Resilient.restore_seq_state: %d state words, expected 4"
         (Array.length a));
  t.send_seq.(0) <- a.(0);
  t.send_seq.(1) <- a.(1);
  t.expect_seq.(0) <- a.(2);
  t.expect_seq.(1) <- a.(3)

(* Protocol compatibility version announced in every resume hello. Bump
   when the wire protocol changes incompatibly; peers announcing a
   different version are rejected before any state is exchanged. *)
let protocol_version = 1

(* Session ids are short fingerprint-derived strings; anything longer is
   a peer abusing the identity field as an allocation vector. *)
let max_identity = 1024

let hello_payload ?(version = protocol_version) (session, epoch) =
  if String.length session > max_identity then
    invalid_arg
      (Printf.sprintf "Resilient.hello_payload: session id of %d bytes exceeds cap %d"
         (String.length session) max_identity);
  let b = Buffer.create (String.length session + 10) in
  Buffer.add_uint16_be b (version land 0xFFFF);
  Buffer.add_int32_be b (Int32.of_int (String.length session));
  Buffer.add_string b session;
  Buffer.add_int32_be b (Int32.of_int epoch);
  Envelope.encode ~kind:Envelope.Hello (Buffer.to_bytes b)

(* Strict parse of an enveloped hello: kind must be [Hello], the identity
   length must respect [max_identity] *before* the substring is taken,
   and the body must contain exactly the declared fields. *)
let parse_hello payload =
  match Envelope.decode payload with
  | Error _ -> None
  | Ok (kind, _) when kind <> Envelope.Hello -> None
  | Ok (_, body) -> (
      try
        let version = Char.code (Bytes.get body 0) lsl 8 lor Char.code (Bytes.get body 1) in
        let n = Int32.to_int (Bytes.get_int32_be body 2) in
        if n < 0 || n > max_identity then raise Exit;
        if Bytes.length body <> 10 + n then raise Exit;
        let session = Bytes.sub_string body 6 n in
        let epoch = Int32.to_int (Bytes.get_int32_be body (6 + n)) in
        Some (version, session, epoch)
      with Invalid_argument _ | Exit -> None)

(* The session-resume handshake. Run it on a freshly (re)connected
   channel before any protocol traffic: each party transfers its
   (protocol version, session id, last-acked checkpoint epoch) hello to
   the other, and both verify the pair agrees on where to restart.
   Disagreement — incompatible protocol versions, different sessions, or
   different epochs — raises the typed {!Resume_mismatch}; a damaged or
   out-of-schema hello surfaces as {!Transport_error} through the normal
   retry machinery. The handshake runs below the protocol's cost
   accounting (its frames are transport chatter, like retransmissions,
   not protocol communication), and its sequence numbers are overwritten
   when the checkpointed {!seq_state} is restored immediately afterwards.
   Both simulated parties live in this process, so the exchange is two
   transfers over the real channel. [alice_version]/[bob_version] default
   to {!protocol_version}; tests inject skew through them. *)
let resume_handshake ?alice_version ?bob_version t ~alice ~bob =
  let a_hello =
    transfer t ~dir:Transport.Alice_to_bob (hello_payload ?version:alice_version alice)
  in
  let b_hello =
    transfer t ~dir:Transport.Bob_to_alice (hello_payload ?version:bob_version bob)
  in
  let corrupt detail =
    raise
      (Transport_error { kind = Corrupt; attempts = 1; elapsed = 0.; detail = "detail = " ^ detail })
  in
  let a_recv =
    match parse_hello a_hello with
    | Some h -> h
    | None -> corrupt "undecodable resume hello (alice->bob)"
  in
  let b_recv =
    match parse_hello b_hello with
    | Some h -> h
    | None -> corrupt "undecodable resume hello (bob->alice)"
  in
  let alice_version, alice_session, alice_epoch = a_recv
  and bob_version, bob_session, bob_epoch = b_recv in
  if
    not
      (alice_version = bob_version
      && String.equal alice_session bob_session
      && alice_epoch = bob_epoch)
  then
    raise
      (Resume_mismatch
         { alice_session; alice_epoch; alice_version; bob_session; bob_epoch; bob_version })
