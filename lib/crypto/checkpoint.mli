(** Durable protocol-state checkpoints: versioned self-validating envelope
    (magic, format version, CRC-32 over the body, query fingerprint,
    session id, epoch, label, opaque payload), binary codec primitives for
    payload authors, and an atomic on-disk sink. Loading is strict: a
    truncated, corrupted, version-skewed or query-mismatched file raises
    the typed {!Checkpoint_error} — never a silent load. *)

type error_kind =
  | Io                    (** file missing or unreadable *)
  | Truncated             (** shorter than its own declared layout *)
  | Bad_magic             (** not a checkpoint file *)
  | Bad_version           (** produced by an incompatible format version *)
  | Crc_mismatch          (** body bytes damaged on disk *)
  | Fingerprint_mismatch  (** valid file, but for a different query/config *)
  | Malformed             (** envelope ok, payload fails to decode *)

val error_kind_name : error_kind -> string

exception Checkpoint_error of { path : string; kind : error_kind; detail : string }

(** Append-only binary writer: big-endian fixed-width ints,
    length-prefixed strings. The payload side of the codec. *)
module Writer : sig
  type t

  val create : unit -> t
  val u8 : t -> int -> unit
  val u32 : t -> int -> unit
  val i64 : t -> int64 -> unit
  val str : t -> string -> unit
  val i64_array : t -> int64 array -> unit
  val int_array : t -> int array -> unit
  val length : t -> int
  val contents : t -> Bytes.t
end

(** Strict cursor reader over one payload; any read past the end raises
    the typed error ([Truncated]) of the file the payload came from. *)
module Reader : sig
  type t

  val create : path:string -> Bytes.t -> t
  val u8 : t -> int
  val u32 : t -> int
  val i64 : t -> int64
  val str : t -> string
  val i64_array : t -> int64 array
  val int_array : t -> int array
  val at_end : t -> bool

  (** Raise the typed error with kind [Malformed] for a payload that
      decodes but does not make sense. *)
  val malformed : t -> string -> 'a
end

(** A checkpoint file decoded down to (but not including) its payload. *)
type loaded = {
  path : string;
  fingerprint : string;
  session : string;
  epoch : int;
  label : string;
  payload : Bytes.t;
}

(** Encode an envelope around [payload]. Exposed for tests; runs use
    {!emit}. *)
val encode :
  fingerprint:string -> session:string -> epoch:int -> label:string -> Bytes.t -> Bytes.t

(** Decode and validate one envelope blob. @raise Checkpoint_error *)
val decode : path:string -> Bytes.t -> loaded

(** Read and validate one checkpoint file. @raise Checkpoint_error *)
val read_file : string -> loaded

(** Path of epoch [e]'s file inside a checkpoint directory. *)
val file_of_epoch : string -> int -> string

(** Highest-epoch checkpoint file in a directory (by filename), or [None]
    when the directory is absent or holds none. Does not open the file. *)
val latest_path : string -> (int * string) option

(** Load the latest checkpoint of [dir], verifying it belongs to the run
    identified by [fingerprint]. [None] when the directory holds no
    checkpoints. @raise Checkpoint_error on any invalid or mismatched
    latest file — resumption never silently skips a damaged snapshot. *)
val load_latest : dir:string -> fingerprint:string -> loaded option

(** An on-disk emission stream: directory, session id and dense epoch
    counter. What a run wrote is counted in its context's ledger
    ([Checkpoints_written], [Checkpoint_bytes]). *)
type sink = {
  dir : string;
  mutable session : string;
  mutable next_epoch : int;
  mutable resumed_from : int option;
      (** epoch this run restarted from, for reporting *)
}

(** A sink writing into [dir] (created, with parents, if needed).
    [session] defaults to a name derived from the directory and is
    replaced by the stored session when a run is resumed. *)
val sink : ?session:string -> dir:string -> unit -> sink

(** Emit one snapshot: encode, write to a temp file, atomically rename to
    the epoch's filename (replacing any stale file from a crashed run),
    advance the epoch. Returns bytes written.
    @raise Checkpoint_error with kind [Io] on filesystem failure. *)
val emit : sink -> fingerprint:string -> label:string -> Bytes.t -> int

(** Rebind the sink to continue a loaded checkpoint's stream: adopt its
    session id and write the next snapshot as [epoch + 1]. *)
val continue_from : sink -> loaded -> unit
