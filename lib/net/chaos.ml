(** Deterministic, seeded fault injection over a raw transport: the one
    wrapper for every transport fault, random line faults ([--chaos]) and
    Byzantine mutations ([--malicious]) alike.

    The wrapper intercepts [send_frame] and assigns faults by {e message
    index}: a global counter of send attempts (retransmissions included,
    so a fault burst as long as the retry budget is exactly what makes a
    message unrecoverable). A spec is a list of [kind:n] entries, placed
    on indices by a layout:
    - [Bursts] ([--chaos]): [kind:n] is one burst of [n] consecutive
      indices; bursts are laid out in spec order, separated by seeded
      gaps. [disconnect:i] is special: the channel closes permanently at
      index [i].
    - [Indexed] ([--malicious]): [kind:i] faults index [i] alone.
    Either way a given [(spec, seed)] pair names one reproducible
    schedule, and every fault rides an honest send: the wrapper never
    sends on its own clock.

    Line faults:
    - [drop]: the frame is never transmitted (the receiver times out).
    - [duplicate]: the frame is transmitted twice (the receiver must
      deduplicate by sequence number).
    - [corrupt]: a payload bit (or, for empty payloads, a CRC bit) is
      flipped in a copy; the receiver's CRC check rejects the frame.
      Bits after the frame header only, so stream backends stay
      parseable: the damage is CRC-detectable rot, not a stream desync.
    - [delay] ([reorder] under [--malicious]): the frame is held back and
      released just before the next send in its direction — the receiver
      times out, the retransmission races the original, and the loser is
      deduplicated.
    - [disconnect]: the channel closes; every later operation raises
      {!Transport.Closed}.

    Byzantine mutations decode the frame, rewrite the typed envelope or
    its body, and re-encode it with a valid CRC and the original sequence
    number, so the damage passes every checksum and only the envelope
    and the protocol state machine can reject it. *)

type fault =
  | Drop
  | Duplicate
  | Corrupt
  | Delay
  | Disconnect
  | Truncate
  | Extend
  | Retag
  | Replay
  | Splice
  | Length_lie

type layout = Bursts | Indexed

let line = [ Drop; Duplicate; Corrupt; Delay; Disconnect ]
let byzantine = [ Truncate; Extend; Retag; Replay; Delay; Splice; Length_lie ]

let fault_name ?(layout = Bursts) = function
  | Drop -> "drop"
  | Duplicate -> "duplicate"
  | Corrupt -> "corrupt"
  | Delay -> ( match layout with Bursts -> "delay" | Indexed -> "reorder")
  | Disconnect -> "disconnect"
  | Truncate -> "truncate"
  | Extend -> "extend"
  | Retag -> "retag"
  | Replay -> "replay"
  | Splice -> "splice"
  | Length_lie -> "length-lie"

(* The kinds each layout's flag accepts, with their aliases. *)
let kinds layout =
  match layout with
  | Bursts -> List.map (fun f -> (fault_name f, f)) line @ [ ("dup", Duplicate) ]
  | Indexed -> List.map (fun f -> (fault_name ~layout f, f)) byzantine @ [ ("lie", Length_lie) ]

type spec = (fault * int) list

let parse_entries entry s =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest -> (
        match String.trim e with
        | "" -> Error (Printf.sprintf "empty entry in %S" s)
        | e -> Result.bind (entry (String.split_on_char ':' e)) (fun x -> go (x :: acc) rest))
  in
  match String.trim s with "" -> Ok [] | s' -> go [] (String.split_on_char ',' s')

let parse_spec ?(layout = Bursts) s =
  let known = kinds layout in
  parse_entries
    (function
      | [ kind; n ] -> (
          match (List.assoc_opt kind known, int_of_string_opt n) with
          | None, _ ->
              Error
                (Printf.sprintf "unknown fault %S (expected one of %s)" kind
                   (String.concat ", " (List.map fst known)))
          | Some f, Some n when n >= 0 -> Ok (f, n)
          | Some _, _ -> Error (Printf.sprintf "%S is not a non-negative integer" n))
      | fields ->
          Error (Printf.sprintf "%S is not of the form kind:n" (String.concat ":" fields)))
    s

let spec_to_string ?layout spec =
  String.concat ","
    (List.map (fun (f, n) -> Printf.sprintf "%s:%d" (fault_name ?layout f) n) spec)

(* ------------------------------------------------------------------ *)
(* Frame and envelope surgery                                         *)

(* Flip one bit after the frame header: in the payload when there is
   one, otherwise in the CRC trailer. *)
let corrupt_copy prg frame =
  let b = Bytes.copy frame in
  let lo = Frame.header_len in
  let pos = lo + Rng.below prg (Bytes.length b - lo) in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl Rng.below prg 8)));
  b

(* Both headers end in a 4-byte little-endian length field. *)
let set_length b ~header_len n = Bytes.set_int32_le b (header_len - 4) (Int32.of_int n)

(* Handcraft an envelope whose declared length need not match the body —
   the one thing [Envelope.encode] refuses to build. *)
let raw_envelope ~kind ~declared body =
  let b = Bytes.cat (Envelope.encode ~kind Bytes.empty) body in
  set_length b ~header_len:Envelope.header_len declared;
  b

(* Patch a complete frame's own length field to [lie] and refresh the
   CRC (which covers everything between the magic and the trailer), so
   the rejection happens at the length check, not the checksum: stream
   receivers then wait for (or refuse to buffer) bytes that never come. *)
let frame_length_lie frame ~lie =
  let b = Bytes.copy frame in
  set_length b ~header_len:Frame.header_len lie;
  let crc_at = Bytes.length b - (Frame.overhead - Frame.header_len) in
  let from = Frame.header_len - 12 (* past the magic: seq(8) and length(4) *) in
  Bytes.set_int32_le b crc_at (Int32.of_int (Crc32.digest b ~pos:from ~len:(crc_at - from)));
  b

let other_kind prg kind =
  let others = List.filter (fun k -> k <> kind) Envelope.all_kinds in
  List.nth others (Rng.below prg (List.length others))

(* Re-envelope [body] as [kind], lying raw when the body exceeds the new
   kind's cap (a retag to [Hello] usually does) — the receiver must
   reject that over-cap declaration before allocating. *)
let encode_as kind body =
  if Bytes.length body > Envelope.kind_cap kind then
    raw_envelope ~kind ~declared:(Bytes.length body) body
  else Envelope.encode ~kind body

(* Mutate one envelope payload; [None] means "lie in the frame header
   instead". [recorded] holds earlier honest payloads, newest first. *)
let mutate_payload prg fault ~recorded ~dir payload =
  match Envelope.decode payload with
  | Error _ ->
      (* Not enveloped traffic: garble the kind byte if there is one. *)
      if Bytes.length payload > 1 then begin
        let b = Bytes.copy payload in
        Bytes.set b 1 '\xEE';
        Some b
      end
      else Some (Bytes.make 1 '\xEE')
  | Ok (kind, body) -> (
      let n = Bytes.length body in
      (* a recorded payload in [dir] satisfying [keep]; a retag if none *)
      let pick keep =
        match List.filter (fun (d, p) -> d = dir && keep p) recorded with
        | [] -> Some (encode_as (other_kind prg kind) body)
        | xs -> Some (Bytes.copy (snd (List.nth xs (Rng.below prg (List.length xs)))))
      in
      match fault with
      | Truncate ->
          if n = 0 then Some (Bytes.sub payload 0 (Envelope.header_len - 1))
          else Some (Envelope.encode ~kind (Bytes.sub body 0 (Rng.below prg n)))
      | Extend ->
          let extra = 1 + Rng.below prg 16 in
          let body' = Bytes.extend body 0 extra in
          Bytes.fill body' n extra '\xEE';
          Some (encode_as kind body')
      | Retag -> Some (encode_as (other_kind prg kind) body)
      | Replay -> pick (fun _ -> true)
      | Splice ->
          pick (fun p -> match Envelope.decode p with Ok (k, _) -> k <> kind | Error _ -> false)
      | Length_lie -> (
          match Rng.below prg 3 with
          | 0 ->
              let lie = if n = 0 then 1 + Rng.below prg 64 else Rng.below prg n in
              Some (raw_envelope ~kind ~declared:lie body)
          | 1 ->
              (* allocation bait: declare above the kind's hard cap *)
              Some
                (raw_envelope ~kind ~declared:(Envelope.kind_cap kind + 1 + Rng.below prg 1024)
                   body)
          | _ -> None)
      | Drop | Duplicate | Corrupt | Delay | Disconnect -> assert false)

(* ------------------------------------------------------------------ *)
(* The wrapper                                                        *)

let wrap ?(seed = 1L) ?(layout = Bursts) ~spec raw =
  let prg = Rng.create seed in
  let schedule = Hashtbl.create 64 in
  let place i f = if not (Hashtbl.mem schedule i) then Hashtbl.add schedule i f in
  let disconnect_at = ref None in
  let cursor = ref 0 in
  List.iter
    (fun (fault, n) ->
      match (fault, layout) with
      | Disconnect, _ -> if !disconnect_at = None then disconnect_at := Some n
      | _, Indexed -> place n fault
      | _, Bursts ->
          let start = !cursor + Rng.below prg 8 in
          for i = start to start + n - 1 do
            place i fault
          done;
          cursor := start + n + Rng.below prg 8)
    spec;
  (* Honest payloads are replay/splice material, so they are recorded
     only up to the last index that can use them. *)
  let record_until =
    Hashtbl.fold
      (fun i f acc -> match f with Replay | Splice -> max i acc | _ -> acc)
      schedule (-1)
  in
  let recorded = ref [] in
  let held = Queue.create () in
  let idx = ref 0 in
  let disconnected = ref false in
  let log = ref [] in
  let fired fault = log := (fault, !idx - 1) :: !log in
  let check () =
    if !disconnected then raise (Transport.Closed "chaos: injected disconnect")
  in
  let send dir frame = raw.Transport.send_frame dir frame in
  (* Release frames held in [dir] just before the next send there. *)
  let release dir =
    let rest = Queue.create () in
    Queue.iter
      (fun (d, frame) -> if d = dir then send dir frame else Queue.push (d, frame) rest)
      held;
    Queue.clear held;
    Queue.transfer rest held
  in
  let send_frame dir frame =
    check ();
    let i = !idx in
    incr idx;
    (match !disconnect_at with
    | Some at when i >= at ->
        disconnected := true;
        fired Disconnect;
        raw.Transport.close ();
        raise (Transport.Closed "chaos: injected disconnect")
    | _ -> ());
    release dir;
    match Hashtbl.find_opt schedule i with
    | None ->
        (if i < record_until then
           match Frame.decode frame with
           | Ok (_, payload) -> recorded := (dir, payload) :: !recorded
           | Error _ -> ());
        send dir frame
    | Some Drop -> fired Drop
    | Some Duplicate ->
        fired Duplicate;
        send dir frame;
        send dir frame
    | Some Corrupt ->
        fired Corrupt;
        send dir (corrupt_copy prg frame)
    | Some Delay ->
        fired Delay;
        Queue.push (dir, Bytes.copy frame) held
    | Some Disconnect -> assert false (* never placed by index *)
    | Some mutation -> (
        match Frame.decode frame with
        | Error _ -> send dir frame
        | Ok (seq, payload) -> (
            let mutated = mutate_payload prg mutation ~recorded:!recorded ~dir payload in
            fired mutation;
            match mutated with
            | Some payload' -> send dir (Frame.encode ~seq payload')
            | None ->
                let lie = Bytes.length payload + 1 + Rng.below prg 4096 in
                send dir (frame_length_lie frame ~lie)))
  in
  let recv_frame dir ~deadline =
    check ();
    raw.Transport.recv_frame dir ~deadline
  in
  let suffix = match layout with Bursts -> "+chaos" | Indexed -> "+byzantine" in
  ( { Transport.send_frame; recv_frame; close = raw.Transport.close;
      kind = raw.Transport.kind ^ suffix },
    fun () -> List.rev !log )
