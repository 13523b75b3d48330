(** Raw two-party frame transports.

    Both protocol parties live in one process (the runtime simulates the
    two-party computation), so a transport is a pair of unidirectional
    frame channels owned by that single process: the caller plays the
    sender when it pushes a frame and the receiver when it pops one. Two
    backends implement the same record-of-closures interface so the chaos
    wrapper and the resilience layer compose over either:

    - {!inproc}: a duplex in-memory queue pair. Frames are still passed
      through {!Frame} encode/decode, so framing and CRC verification are
      exercised even in the default single-process configuration.
      [recv_frame] never blocks: an empty queue reports an (instantaneous)
      timeout, which keeps fault-injection tests deterministic and fast.
    - {!tcp}: a connected loopback TCP socket pair. Frames really cross
      the kernel; sends interleave writing with draining the peer socket
      so a frame larger than the socket buffers cannot deadlock the
      single-threaded process. *)

type direction = Alice_to_bob | Bob_to_alice

let direction_name = function Alice_to_bob -> "a->b" | Bob_to_alice -> "b->a"

(** Raised by raw operations once the channel is closed or the peer is
    gone; the resilience layer converts it into the typed, unrecoverable
    [Transport_error]. *)
exception Closed of string

(** Raised by the [tcp] backend when a peer keeps the channel alive but
    stops making frame progress — a partially received frame older than
    the stall window (slow-loris trickling), or a send loop that can
    neither write nor drain for the same window. The resilience layer
    maps it to [Transport_error {kind = Timeout}]. *)
exception Stalled of string

type raw = {
  send_frame : direction -> Bytes.t -> unit;
      (** push one encoded frame. @raise Closed on a dead channel. *)
  recv_frame : direction -> deadline:float -> Bytes.t option;
      (** pop the next frame travelling in [direction]; [None] when
          nothing arrived by [deadline] (absolute [Unix.gettimeofday]
          time). @raise Closed on a dead channel. *)
  close : unit -> unit;  (** idempotent *)
  kind : string;  (** backend name for error messages ("inproc", "tcp") *)
}

(* --- in-process duplex queue --------------------------------------- *)

let inproc () =
  let queues = [| Queue.create (); Queue.create () |] in
  let index = function Alice_to_bob -> 0 | Bob_to_alice -> 1 in
  let closed = ref false in
  let check dir op =
    if !closed then
      raise (Closed (Printf.sprintf "inproc channel closed (%s %s)" op (direction_name dir)))
  in
  {
    send_frame =
      (fun dir frame ->
        check dir "send";
        Queue.push (Bytes.copy frame) queues.(index dir));
    recv_frame =
      (fun dir ~deadline:_ ->
        check dir "recv";
        Queue.take_opt queues.(index dir));
    close = (fun () -> closed := true);
    kind = "inproc";
  }

(* --- loopback TCP socket pair -------------------------------------- *)

(* Growable byte FIFO for the stream reassembly buffers. *)
module Bytebuf = struct
  type t = { mutable data : Bytes.t; mutable start : int; mutable len : int }

  let create () = { data = Bytes.create 4096; start = 0; len = 0 }

  let reserve t extra =
    let cap = Bytes.length t.data in
    if t.start + t.len + extra > cap then
      if t.len + extra <= cap then begin
        (* compact in place *)
        Bytes.blit t.data t.start t.data 0 t.len;
        t.start <- 0
      end
      else begin
        let cap' = max (t.len + extra) (2 * cap) in
        let data' = Bytes.create cap' in
        Bytes.blit t.data t.start data' 0 t.len;
        t.data <- data';
        t.start <- 0
      end

  (* Space for [read] to append into; commit with [grow]. *)
  let tail_slot t extra =
    reserve t extra;
    (t.data, t.start + t.len)

  let grow t n = t.len <- t.len + n

  let drop t n =
    t.start <- t.start + n;
    t.len <- t.len - n;
    if t.len = 0 then t.start <- 0

  let sub t n = Bytes.sub t.data t.start n
end

let chunk = 65536

let tcp ?(stall_timeout_s = 30.) () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let a =
    try
      Unix.setsockopt listener Unix.SO_REUSEADDR true;
      Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen listener 1;
      let addr = Unix.getsockname listener in
      let a = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (* Loopback connect to a listening socket completes without a
         concurrent accept (the connection parks in the backlog). *)
      Unix.connect a addr;
      a
    with e ->
      Unix.close listener;
      raise e
  in
  let b, _ = Unix.accept listener in
  Unix.close listener;
  Unix.set_nonblock a;
  Unix.set_nonblock b;
  (try Unix.setsockopt a Unix.TCP_NODELAY true; Unix.setsockopt b Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> ());
  let closed = ref false in
  let close () =
    if not !closed then begin
      closed := true;
      (try Unix.close a with Unix.Unix_error _ -> ());
      (try Unix.close b with Unix.Unix_error _ -> ())
    end
  in
  (* Alice writes her frames on [a]; they surface on [b]. Bob writes on
     [b]; they surface on [a]. One reassembly buffer per direction. *)
  let fds = function
    | Alice_to_bob -> (a, b)
    | Bob_to_alice -> (b, a)
  in
  let bufs = [| Bytebuf.create (); Bytebuf.create () |] in
  let buf = function Alice_to_bob -> bufs.(0) | Bob_to_alice -> bufs.(1) in
  let check dir op =
    if !closed then
      raise (Closed (Printf.sprintf "tcp channel closed (%s %s)" op (direction_name dir)))
  in
  let die dir op e =
    close ();
    raise
      (Closed
         (Printf.sprintf "tcp %s %s failed: %s" op (direction_name dir)
            (Unix.error_message e)))
  in
  (* Drain whatever is pending on [rfd] into [dir]'s buffer; returns the
     number of bytes consumed. EOF means the peer end is gone. *)
  let drain dir rfd =
    let total = ref 0 in
    let eof = ref false in
    (try
       let continue = ref true in
       while !continue do
         let data, off = Bytebuf.tail_slot (buf dir) chunk in
         let n = Unix.read rfd data off chunk in
         if n = 0 then begin eof := true; continue := false end
         else begin
           Bytebuf.grow (buf dir) n;
           total := !total + n;
           if n < chunk then continue := false
         end
       done
     with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | Unix.Unix_error (e, _, _) -> die dir "read" e);
    if !eof then begin
      close ();
      raise (Closed (Printf.sprintf "tcp peer closed (recv %s)" (direction_name dir)))
    end;
    !total
  in
  let send_frame dir frame =
    check dir "send";
    let wfd, rfd = fds dir in
    let len = Bytes.length frame in
    let pos = ref 0 in
    let last_progress = ref (Unix.gettimeofday ()) in
    while !pos < len do
      (match Unix.write wfd frame !pos (min chunk (len - !pos)) with
      | n ->
          pos := !pos + n;
          last_progress := Unix.gettimeofday ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (* Kernel buffers are full; the only in-flight bytes are our own
             (lock-step protocol), so drain the receiving end to make
             room. Select rather than spin when nothing is pending yet. A
             peer that neither accepts our bytes nor sends any for a whole
             stall window is wedged — fail typed instead of looping. *)
          if drain dir rfd = 0 then begin
            if Unix.gettimeofday () -. !last_progress > stall_timeout_s then begin
              close ();
              raise
                (Stalled
                   (Printf.sprintf "tcp send %s: no progress in %.1fs"
                      (direction_name dir) stall_timeout_s))
            end;
            ignore (Unix.select [ rfd ] [ wfd ] [] (Float.min 1.0 stall_timeout_s))
          end
          else last_progress := Unix.gettimeofday ()
      | exception Unix.Unix_error (e, _, _) -> die dir "write" e);
      ignore (drain dir rfd)
    done
  in
  (* Per-frame progress deadlines: absolute time the currently partial
     frame (per direction) was first seen, [nan] when no frame is in
     flight. A peer trickling bytes can stretch one frame forever against
     per-attempt timeouts alone; the stall clock starts when a frame's
     first bytes arrive and is *not* pushed forward by trickled progress,
     so every frame must complete within one stall window. *)
  let frame_started = [| Float.nan; Float.nan |] in
  let started = function Alice_to_bob -> 0 | Bob_to_alice -> 1 in
  let recv_frame dir ~deadline =
    check dir "recv";
    let _, rfd = fds dir in
    let b = buf dir in
    let i = started dir in
    let rec frame_ready () =
      match Frame.required b.Bytebuf.data ~pos:b.Bytebuf.start ~len:b.Bytebuf.len with
      | Error e ->
          close ();
          raise
            (Closed
               (Printf.sprintf "tcp stream desynchronized (%s): %s" (direction_name dir)
                  (Frame.error_to_string e)))
      | Ok (Some total) when b.Bytebuf.len >= total ->
          let frame = Bytebuf.sub b total in
          Bytebuf.drop b total;
          frame_started.(i) <- Float.nan;
          Some frame
      | Ok _ ->
          let now = Unix.gettimeofday () in
          if b.Bytebuf.len = 0 then frame_started.(i) <- Float.nan
          else if Float.is_nan frame_started.(i) then frame_started.(i) <- now
          else if now -. frame_started.(i) > stall_timeout_s then begin
            close ();
            raise
              (Stalled
                 (Printf.sprintf "tcp recv %s: partial frame made no progress in %.1fs"
                    (direction_name dir) stall_timeout_s))
          end;
          let wait = deadline -. now in
          if wait <= 0. then None
          else begin
            (* Wake up in time to enforce the stall window even when the
               caller's receive deadline is far away. *)
            let wait =
              if Float.is_nan frame_started.(i) then wait
              else Float.min wait (Float.max 0.01 (frame_started.(i) +. stall_timeout_s -. now))
            in
            (match Unix.select [ rfd ] [] [] wait with
            | [], _, _ -> ()
            | _ -> ignore (drain dir rfd));
            if deadline -. Unix.gettimeofday () <= 0. && Bytebuf.(b.len) = 0 then None
            else frame_ready ()
          end
    in
    frame_ready ()
  in
  { send_frame; recv_frame; close; kind = "tcp" }
