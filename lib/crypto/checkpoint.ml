(** Durable protocol-state checkpoints: the envelope format, the binary
    codec primitives, and the on-disk sink.

    A checkpoint is one file holding one phase-boundary snapshot of a
    protocol execution. The envelope is versioned and self-validating:

    {v
      magic   "SYCP"                     4 bytes
      version u8                         currently 2
      crc     u32 big-endian             CRC-32 of every byte after this field
      ----------------------------------- covered by crc ---------------
      fingerprint  str                   canonical query/config digest
      session      str                   resume-handshake session id
      epoch        u32                   dense, 0-based snapshot index
      label        str                   human-readable boundary name
      payload      u32 length + bytes    opaque protocol-state payload
    v}

    The payload is produced by the layer that owns the protocol state
    (the query runtime serializes shares, annotation vectors and captured
    randomness through {!Writer}/{!Reader}); this module neither knows
    nor cares what is inside — it guarantees integrity (CRC-32 over the
    whole body), attribution (fingerprint/session/epoch/label) and
    atomicity (write-to-temp then rename).

    Loading is strict: a truncated, bit-flipped, version-skewed or
    query-mismatched file raises the typed {!Checkpoint_error} — a
    checkpoint is never silently loaded. *)

type error_kind =
  | Io                    (** file missing or unreadable *)
  | Truncated             (** shorter than its own declared layout *)
  | Bad_magic             (** not a checkpoint file *)
  | Bad_version           (** produced by an incompatible format version *)
  | Crc_mismatch          (** body bytes damaged on disk *)
  | Fingerprint_mismatch  (** valid file, but for a different query/config *)
  | Malformed             (** envelope ok, payload fails to decode *)

let error_kind_name = function
  | Io -> "io"
  | Truncated -> "truncated"
  | Bad_magic -> "bad_magic"
  | Bad_version -> "bad_version"
  | Crc_mismatch -> "crc_mismatch"
  | Fingerprint_mismatch -> "fingerprint_mismatch"
  | Malformed -> "malformed"

exception Checkpoint_error of { path : string; kind : error_kind; detail : string }

let () =
  Printexc.register_printer (function
    | Checkpoint_error { path; kind; detail } ->
        Some
          (Printf.sprintf "Checkpoint_error { path = %S; kind = %s; %s }" path
             (error_kind_name kind) detail)
    | _ -> None)

let error ~path kind detail = raise (Checkpoint_error { path; kind; detail })

(* --- binary codec primitives ---------------------------------------- *)

(** Append-only binary writer (big-endian, length-prefixed strings). *)
module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 4096
  let u8 b v = Buffer.add_uint8 b (v land 0xff)
  let u32 b v = Buffer.add_int32_be b (Int32.of_int v)
  let i64 b v = Buffer.add_int64_be b v
  let str b s =
    u32 b (String.length s);
    Buffer.add_string b s

  let i64_array b a =
    u32 b (Array.length a);
    Array.iter (i64 b) a

  let int_array b a =
    u32 b (Array.length a);
    Array.iter (fun v -> i64 b (Int64.of_int v)) a

  let length b = Buffer.length b
  let contents b = Buffer.to_bytes b
end

(** Strict cursor-based reader over one decoded payload; every read that
    would pass the end of the buffer raises the typed error of the file
    it came from. *)
module Reader = struct
  type t = { buf : Bytes.t; mutable pos : int; path : string }

  let create ~path buf = { buf; pos = 0; path }

  let need r n =
    if r.pos + n > Bytes.length r.buf then
      error ~path:r.path Truncated
        (Printf.sprintf "detail = need %d bytes at offset %d of %d" n r.pos
           (Bytes.length r.buf))

  let u8 r =
    need r 1;
    let v = Bytes.get_uint8 r.buf r.pos in
    r.pos <- r.pos + 1;
    v

  let u32 r =
    need r 4;
    let v = Int32.to_int (Bytes.get_int32_be r.buf r.pos) land 0xffffffff in
    r.pos <- r.pos + 4;
    v

  let i64 r =
    need r 8;
    let v = Bytes.get_int64_be r.buf r.pos in
    r.pos <- r.pos + 8;
    v

  let str r =
    let n = u32 r in
    need r n;
    let s = Bytes.sub_string r.buf r.pos n in
    r.pos <- r.pos + n;
    s

  let i64_array r =
    let n = u32 r in
    Array.init n (fun _ -> i64 r)

  let int_array r =
    let n = u32 r in
    Array.init n (fun _ -> Int64.to_int (i64 r))

  let at_end r = r.pos = Bytes.length r.buf

  let malformed r detail = error ~path:r.path Malformed ("detail = " ^ detail)
end

(* --- envelope -------------------------------------------------------- *)

let magic = "SYCP"
let version = 2

let encode ~fingerprint ~session ~epoch ~label (payload : Bytes.t) : Bytes.t =
  let body = Writer.create () in
  Writer.str body fingerprint;
  Writer.str body session;
  Writer.u32 body epoch;
  Writer.str body label;
  Writer.u32 body (Bytes.length payload);
  Buffer.add_bytes body payload;
  let body = Buffer.to_bytes body in
  let crc = Secyan_net.Crc32.digest body ~pos:0 ~len:(Bytes.length body) in
  let out = Buffer.create (Bytes.length body + 9) in
  Buffer.add_string out magic;
  Buffer.add_uint8 out version;
  Buffer.add_int32_be out (Int32.of_int crc);
  Buffer.add_bytes out body;
  Buffer.to_bytes out

type loaded = {
  path : string;
  fingerprint : string;
  session : string;
  epoch : int;
  label : string;
  payload : Bytes.t;
}

let decode ~path (blob : Bytes.t) : loaded =
  let len = Bytes.length blob in
  if len < 9 then error ~path Truncated (Printf.sprintf "detail = %d-byte file" len);
  if Bytes.sub_string blob 0 4 <> magic then
    error ~path Bad_magic
      (Printf.sprintf "detail = leading bytes %S" (Bytes.sub_string blob 0 4));
  let v = Bytes.get_uint8 blob 4 in
  if v <> version then
    error ~path Bad_version (Printf.sprintf "detail = format version %d, expected %d" v version);
  let stored_crc = Int32.to_int (Bytes.get_int32_be blob 5) land 0xffffffff in
  let crc = Secyan_net.Crc32.digest blob ~pos:9 ~len:(len - 9) in
  if crc <> stored_crc then
    error ~path Crc_mismatch
      (Printf.sprintf "detail = stored crc %08x, computed %08x over %d body bytes" stored_crc
         crc (len - 9));
  let r = Reader.create ~path (Bytes.sub blob 9 (len - 9)) in
  let fingerprint = Reader.str r in
  let session = Reader.str r in
  let epoch = Reader.u32 r in
  let label = Reader.str r in
  let payload_len = Reader.u32 r in
  Reader.need r payload_len;
  let payload = Bytes.sub r.Reader.buf r.Reader.pos payload_len in
  r.Reader.pos <- r.Reader.pos + payload_len;
  if not (Reader.at_end r) then
    error ~path Malformed
      (Printf.sprintf "detail = %d trailing bytes after the payload"
         (Bytes.length r.Reader.buf - r.Reader.pos));
  { path; fingerprint; session; epoch; label; payload }

(* --- files and the sink ---------------------------------------------- *)

let file_of_epoch dir epoch = Filename.concat dir (Printf.sprintf "ck-%08d.bin" epoch)

let epoch_of_file name =
  if String.length name = 15 && String.sub name 0 3 = "ck-" && Filename.check_suffix name ".bin"
  then int_of_string_opt (String.sub name 3 8)
  else None

let read_file path : loaded =
  let blob =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg | Invalid_argument msg -> error ~path Io ("detail = " ^ msg)
  in
  decode ~path (Bytes.unsafe_of_string blob)

(** The highest-epoch checkpoint file in [dir] (by filename), or [None]
    for an absent/empty directory. The file is not opened. *)
let latest_path dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> None
  | names ->
      Array.to_list names
      |> List.filter_map (fun n ->
             match epoch_of_file n with
             | Some e -> Some (e, Filename.concat dir n)
             | None -> None)
      |> List.fold_left
           (fun acc (e, p) ->
             match acc with Some (e', _) when e' >= e -> acc | _ -> Some (e, p))
           None

(** Load the latest checkpoint of [dir] and verify it was produced by the
    run identified by [fingerprint]. [None] when the directory holds no
    checkpoint files at all; any invalid or mismatched latest file raises
    — resumption never silently skips back past a damaged snapshot.
    @raise Checkpoint_error *)
let load_latest ~dir ~fingerprint : loaded option =
  match latest_path dir with
  | None -> None
  | Some (_, path) ->
      let l = read_file path in
      if not (String.equal l.fingerprint fingerprint) then
        error ~path Fingerprint_mismatch
          (Printf.sprintf "detail = checkpoint fingerprint %s, this run is %s" l.fingerprint
             fingerprint);
      Some l

type sink = {
  dir : string;
  mutable session : string;
  mutable next_epoch : int;
  mutable resumed_from : int option;
      (** epoch this run restarted from, for reporting; set by the resume
          machinery *)
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

(** A sink writing into [dir] (created if needed). [session] identifies
    the run for the resume handshake; it defaults to a name derived from
    the directory and is replaced by the stored session when a run is
    resumed. *)
let sink ?session ~dir () =
  mkdir_p dir;
  let session =
    match session with Some s -> s | None -> "session:" ^ Filename.basename dir
  in
  { dir; session; next_epoch = 0; resumed_from = None }

(** Emit one snapshot: encode, write to a temp file in [dir], atomically
    rename over the epoch's filename (a stale file from a crashed run is
    replaced), and advance the epoch counter. Returns the bytes written.
    @raise Checkpoint_error with kind [Io] when the directory vanished or
    is not writable. *)
let emit t ~fingerprint ~label (payload : Bytes.t) : int =
  let epoch = t.next_epoch in
  let blob = encode ~fingerprint ~session:t.session ~epoch ~label payload in
  let path = file_of_epoch t.dir epoch in
  let tmp = path ^ ".tmp" in
  (try
     let oc = open_out_bin tmp in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () -> output_bytes oc blob);
     Sys.rename tmp path
   with Sys_error msg -> error ~path Io ("detail = " ^ msg));
  t.next_epoch <- epoch + 1;
  Bytes.length blob

(** Rebind the sink to continue the stream of a loaded checkpoint: adopt
    its session id and write the next snapshot as [epoch + 1]. *)
let continue_from t (l : loaded) =
  t.session <- l.session;
  t.next_epoch <- l.epoch + 1;
  t.resumed_from <- Some l.epoch
