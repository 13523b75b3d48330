(** Per-query protocol state machine over the typed wire envelope: knows,
    for each phase of secure Yannakakis (share / reduce / semijoin / join
    / order / reveal / resume-handshake), exactly which message kinds and
    sizes
    are legal next, and rejects everything else with the typed
    {!Protocol_violation} — never an untyped exception escape, never an
    allocation driven by a lying length field. Phase tracking piggybacks
    on [Context.with_span]'s span discipline; {!check_send} is consulted
    by [Context.send] before any payload crosses the wire, and {!validate}
    checks everything that arrives. *)

type phase =
  | Unrestricted
  | Resume
  | Share_phase
  | Reduce
  | Semijoin
  | Join
  | Order  (** the oblivious ORDER BY / top-k phase (["phase:order"]) *)
  | Reveal_phase

val phase_name : phase -> string

exception
  Protocol_violation of {
    phase : string;  (** protocol phase when the message arrived *)
    expected : string;  (** what the state machine would have accepted *)
    got : string;  (** what the peer actually sent *)
    offset : int;  (** byte offset of the offending field in the payload *)
  }

(** Classify the traffic sent under a span label (["psi:batch"] sends PSI
    traffic, ["share:customer"] share distribution, ...); unknown labels
    are generic [Op] traffic. *)
val kind_of_label : string -> Secyan_net.Envelope.kind

(** The phase entered by a span label: phase markers (["phase:share"],
    ["phase:reduce"], ["phase:semijoin"], ["phase:join"],
    ["phase:order"], ["reveal"]) push their phase; any other label
    inherits [current]. *)
val phase_of_label : phase -> string -> phase

(** The legality table: which envelope kinds may cross the wire in a
    phase. [Hello] is legal only during the resume handshake. *)
val legal : phase -> Secyan_net.Envelope.kind -> bool

val expected_kinds : phase -> Secyan_net.Envelope.kind list

type t

val create : unit -> t

(** Span bookkeeping, driven by [Context.with_span]. *)
val enter : t -> string -> unit

val leave : t -> unit

(** Current phase ([Unrestricted] outside any phase span). *)
val phase : t -> phase

(** Innermost span label (["init"] outside any span). *)
val label : t -> string

(** The kind an outgoing message sent right now would carry. *)
val outgoing_kind : t -> Secyan_net.Envelope.kind

(** Pre-send consultation from [Context.send]: derive the outgoing message's
    kind from the current span and verify the machine allows it.
    @raise Protocol_violation when the current phase forbids it. *)
val check_send : t -> bits:int -> Secyan_net.Envelope.kind

(** Validate one received payload against the send it answers: a
    current-version envelope of the expected [kind], declaring and
    carrying exactly [expect_body] bytes, legal in the current phase.
    @raise Protocol_violation on any mismatch, naming the offending byte
    offset. *)
val validate : t -> kind:Secyan_net.Envelope.kind -> expect_body:int -> Bytes.t -> unit
