(** Per-query protocol legality check over the typed wire envelope:
    knows, for each phase of secure Yannakakis (share / reduce / semijoin
    / join / order / reveal), exactly which message kinds and sizes are
    legal, and rejects everything else with the typed
    {!Protocol_violation} — never an untyped exception escape, never an
    allocation driven by a lying length field. The module keeps no
    state: [Context.with_span] tracks the current phase and innermost
    span label, [Context.send] passes them to {!check_send} before any
    payload crosses the wire, and to {!validate} for everything that
    arrives. *)

type phase =
  | Unrestricted
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
    expected : string;  (** what the legality table would have accepted *)
    got : string;  (** what the peer actually sent *)
    offset : int;  (** byte offset of the offending field in the payload *)
  }

(** Classify the traffic sent under a span label (["psi:batch"] sends PSI
    traffic, ["share:customer"] share distribution, ...); unknown labels
    are generic [Op] traffic. *)
val kind_of_label : string -> Secyan_net.Envelope.kind

(** Whether a span label opens a phase: the phase markers
    ["phase:share"], ["phase:reduce"], ["phase:semijoin"],
    ["phase:join"], ["phase:order"] and ["reveal"]. The one definition
    of a phase boundary, shared by the [--metrics] phase gauges and the
    progress reporter. *)
val is_phase_marker : string -> bool

(** The phase a span label enters: a phase marker's own phase; any other
    label inherits [current]. *)
val phase_of_label : phase -> string -> phase

(** The legality table: which envelope kinds may cross the wire in a
    phase. [Hello] is legal in none: the resume handshake exchanges its
    hellos below the schema. *)
val legal : phase -> Secyan_net.Envelope.kind -> bool

(** Pre-send consultation from [Context.send]: derive the outgoing
    message's kind from the innermost span [label] and verify [phase]
    allows it.
    @raise Protocol_violation when the phase forbids it. *)
val check_send : phase:phase -> label:string -> bits:int -> Secyan_net.Envelope.kind

(** Validate one received payload against the send it answers: a
    current-version envelope of the expected [kind], declaring and
    carrying exactly [expect_body] bytes, legal in [phase].
    @raise Protocol_violation on any mismatch, naming the offending byte
    offset. *)
val validate :
  phase:phase -> kind:Secyan_net.Envelope.kind -> expect_body:int -> Bytes.t -> unit
