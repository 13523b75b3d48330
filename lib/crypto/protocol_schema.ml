(** Per-query protocol state machine: which message kinds (and sizes) are
    legal at each phase of secure Yannakakis.

    The machine mirrors the three-phase plan plus its bracketing steps:

    {v
      Unrestricted --"phase:share"-->    Share_phase   (share only)
      Unrestricted --"phase:reduce"-->   Reduce        (ot/oprf/psi/oep/gc/op)
      Unrestricted --"phase:semijoin"--> Semijoin      (ot/oprf/psi/oep/gc/op)
      Unrestricted --"phase:join"-->     Join          (reduce set + reveal)
      Unrestricted --"reveal"-->         Reveal_phase  (reveal only)
      (session resume)                   Resume        (hello only)
    v}

    Phase tracking piggybacks on the span discipline the tracing layer
    already maintains: {!Context.with_span} reports every span enter/exit
    here, phase-marker labels push a new phase, and all other labels
    inherit the enclosing one — so exiting a phase span restores its
    parent, and nested runs (query compositions) are handled by plain
    stack discipline. The innermost label also classifies what an
    outgoing message {e is} (a ["psi:*"] span sends PSI traffic), which
    is what [Context.send] consults before any payload crosses the wire and
    what the receive path checks the peer's envelope against.

    Everything that fails validation raises the typed
    {!Protocol_violation} naming the phase, what was legal, what arrived,
    and the byte offset of the offending field — never an untyped
    exception escape, and never an allocation driven by a lying length
    field (oversize is checked against the declared length alone). *)

module Envelope = Secyan_net.Envelope

type phase =
  | Unrestricted
  | Resume
  | Share_phase
  | Reduce
  | Semijoin
  | Join
  | Order
  | Reveal_phase

let phase_name = function
  | Unrestricted -> "unrestricted"
  | Resume -> "resume-handshake"
  | Share_phase -> "share"
  | Reduce -> "reduce"
  | Semijoin -> "semijoin"
  | Join -> "join"
  | Order -> "order"
  | Reveal_phase -> "reveal"

exception
  Protocol_violation of {
    phase : string;  (** protocol phase when the message arrived *)
    expected : string;  (** what the state machine would have accepted *)
    got : string;  (** what the peer actually sent *)
    offset : int;  (** byte offset of the offending field in the payload *)
  }

let () =
  Printexc.register_printer (function
    | Protocol_violation { phase; expected; got; offset } ->
        Some
          (Printf.sprintf
             "Protocol_violation { phase = %s; expected = %s; got = %s; offset = %d }" phase
             expected got offset)
    | _ -> None)

(* Registered eagerly so the names appear in every metrics snapshot. *)
let m_violations =
  Secyan_metrics.counter ~help:"peer messages rejected by the protocol state machine"
    "secyan_protocol_violations_total"

let m_rejected_frames =
  Secyan_metrics.counter ~help:"frames rejected at the receive trust boundary"
    "secyan_rejected_frames_total"

(* Message-kind classification of the innermost span label: what traffic
   sent under that label *is*. Unknown labels are generic operator
   traffic. *)
let kind_of_label l =
  let has p = String.length l >= String.length p && String.sub l 0 (String.length p) = p in
  if has "share:" || String.equal l "phase:share" then Envelope.Share
  else if has "psi:" then Envelope.Psi
  else if has "oprf:" then Envelope.Oprf
  else if has "oep:" then Envelope.Oep
  else if has "ot:" then Envelope.Ot
  else if has "gc:" then Envelope.Gc
  else if String.equal l "reveal" || has "reveal:" then Envelope.Reveal
  else Envelope.Op

let phase_of_label current l =
  match l with
  | "phase:share" -> Share_phase
  | "phase:reduce" -> Reduce
  | "phase:semijoin" -> Semijoin
  | "phase:join" -> Join
  | "phase:order" -> Order
  | "reveal" -> Reveal_phase
  | _ -> current

let legal phase (kind : Envelope.kind) =
  match (phase, kind) with
  | Unrestricted, k -> k <> Envelope.Hello
  | Resume, Envelope.Hello -> true
  | Resume, _ -> false
  | Share_phase, Envelope.Share -> true
  | Share_phase, _ -> false
  | (Reduce | Semijoin), (Envelope.Psi | Oprf | Oep | Ot | Gc | Op) -> true
  | (Reduce | Semijoin), _ -> false
  | Join, (Envelope.Psi | Oprf | Oep | Ot | Gc | Op | Reveal) -> true
  | Join, _ -> false
  (* ORDER BY / top-k: oblivious collapse (oep/gc/op) + sort-network GC
     batches + the top-k reveal round all run under "phase:order". *)
  | Order, (Envelope.Psi | Oprf | Oep | Ot | Gc | Op | Reveal) -> true
  | Order, _ -> false
  | Reveal_phase, Envelope.Reveal -> true
  | Reveal_phase, _ -> false

let expected_kinds phase = List.filter (legal phase) Envelope.all_kinds

let expected_kinds_string phase =
  String.concat "|" (List.map Envelope.kind_name (expected_kinds phase))

type t = {
  mutable phases : phase list;  (* span-shaped stack; head = current *)
  mutable labels : string list;  (* parallel label stack; head = innermost *)
}

let create () = { phases = []; labels = [] }

let phase t = match t.phases with [] -> Unrestricted | p :: _ -> p

let label t = match t.labels with [] -> "init" | l :: _ -> l

let enter t name =
  t.phases <- phase_of_label (phase t) name :: t.phases;
  t.labels <- name :: t.labels

let leave t =
  (match t.phases with [] -> () | _ :: rest -> t.phases <- rest);
  match t.labels with [] -> () | _ :: rest -> t.labels <- rest

let outgoing_kind t = kind_of_label (label t)

let violation t ~expected ~got ~offset =
  Secyan_metrics.add m_violations 1;
  raise (Protocol_violation { phase = phase_name (phase t); expected; got; offset })

(* Pre-send consultation from [Context.send]: derive what the outgoing
   message is from the current span and verify the state machine allows
   it — a self-check that protocol code cannot emit traffic the receive
   path would reject. Returns the kind for the wire to tag the envelope
   with. *)
let check_send t ~bits =
  if bits < 0 then invalid_arg "Protocol_schema.check_send: negative bit count";
  let kind = outgoing_kind t in
  if not (legal (phase t) kind) then
    violation t
      ~expected:(expected_kinds_string (phase t))
      ~got:(Printf.sprintf "outgoing %s under span %S" (Envelope.kind_name kind) (label t))
      ~offset:0;
  kind

(* Validate one received payload against what this side just sent: it
   must decode as a current-version envelope, carry the expected kind,
   declare (and carry) exactly the expected body length, and be legal in
   the current phase. [expect_body] is the chunk size the sender put on
   the wire, so any tampering — retag, truncate, extend, length lie,
   cross-phase splice, stale replay of a different shape — surfaces here
   as a typed violation with the offending byte offset. *)
let validate t ~kind ~expect_body payload =
  match Envelope.check_header payload with
  | Error e ->
      Secyan_metrics.add m_rejected_frames 1;
      let offset =
        match e with
        | Envelope.Bad_version _ | Envelope.Truncated _ -> 0
        | Envelope.Unknown_kind _ -> 1
        | Envelope.Length_mismatch _ | Envelope.Oversized _ -> 2
      in
      violation t
        ~expected:(Printf.sprintf "%s envelope v%d" (Envelope.kind_name kind) Envelope.version)
        ~got:(Envelope.error_to_string e) ~offset
  | Ok (got_kind, declared) ->
      let actual = Bytes.length payload - Envelope.header_len in
      if declared <> actual then begin
        Secyan_metrics.add m_rejected_frames 1;
        violation t
          ~expected:(Printf.sprintf "declared length matching %d body bytes" actual)
          ~got:(Printf.sprintf "declares %d" declared)
          ~offset:2
      end;
      if not (legal (phase t) got_kind) then
        violation t
          ~expected:(expected_kinds_string (phase t))
          ~got:(Envelope.kind_name got_kind) ~offset:1;
      if got_kind <> kind then
        violation t
          ~expected:(Envelope.kind_name kind)
          ~got:(Envelope.kind_name got_kind) ~offset:1;
      if actual <> expect_body then
        violation t
          ~expected:(Printf.sprintf "%s of %d body bytes" (Envelope.kind_name kind) expect_body)
          ~got:(Printf.sprintf "%s of %d body bytes" (Envelope.kind_name got_kind) actual)
          ~offset:2
