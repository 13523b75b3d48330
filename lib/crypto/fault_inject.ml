(** In-process fault injection for the batch engine — the supervision
    layer's counterpart of the wire fault harness (Secyan_net.Chaos).

    Chaos perturbs the channel; this perturbs the {e compute}: a spec
    like ["raise:12,hang:40:2.5,alloc:7:64"] makes batch item 12 raise,
    item 40 block for 2.5 s, and item 7 allocate (and hold live) 64 MiB.
    Items are addressed by their {e global} index: batches reserve a
    contiguous id range in submission order via {!batch_base}, and the
    protocol submits batches sequentially, so a given (query, scale)
    always assigns the same ids — faults are deterministic and
    reproducible, exactly like a chaos seed.

    The injection point is [Gc_protocol.map_batch]'s per-item wrapper,
    which calls {!fire} on the claiming domain before running the item —
    so a [raise] exercises the fail-fast path, a [hang] the watching
    caller of a watched pool, and an [alloc] the memory-budget guard, all through the
    exact production code paths. Disarmed, {!fire} is one branch on an
    armed flag. *)

type fault =
  | Raise
  | Hang of float  (** seconds the item blocks before proceeding *)
  | Alloc of int  (** MiB allocated and held live until {!disarm} *)

(** What an armed [raise] fault throws inside the item. *)
exception Injected of { item : int }

let () =
  Printexc.register_printer (function
    | Injected { item } -> Some (Printf.sprintf "Fault_inject.Injected { item = %d }" item)
    | _ -> None)

type spec = (int * fault) list

let fault_to_string = function
  | Raise -> "raise"
  | Hang s -> Printf.sprintf "hang(%gs)" s
  | Alloc mb -> Printf.sprintf "alloc(%dMiB)" mb

(* ["raise:N" | "hang:N:SECS" | "alloc:N:MIB"] in the grammar shared
   with --chaos and --malicious; the empty spec is an error here. *)
let parse_spec s =
  let entry fields =
    let part = String.concat ":" fields in
    match fields with
    | [ "raise"; n ] -> (
        match int_of_string_opt n with
        | Some i when i >= 0 -> Ok (i, Raise)
        | _ -> Error (Printf.sprintf "bad item index in %S" part))
    | [ "hang"; n; secs ] -> (
        match (int_of_string_opt n, float_of_string_opt secs) with
        | Some i, Some s when i >= 0 && s >= 0. -> Ok (i, Hang s)
        | _ -> Error (Printf.sprintf "bad hang fault %S (want hang:ITEM:SECS)" part))
    | [ "alloc"; n; mib ] -> (
        match (int_of_string_opt n, int_of_string_opt mib) with
        | Some i, Some m when i >= 0 && m > 0 -> Ok (i, Alloc m)
        | _ -> Error (Printf.sprintf "bad alloc fault %S (want alloc:ITEM:MIB)" part))
    | _ ->
        Error
          (Printf.sprintf
             "unknown fault %S (want raise:ITEM, hang:ITEM:SECS, or alloc:ITEM:MIB)"
             part)
  in
  match Secyan_net.Chaos.parse_entries entry s with
  | Ok [] -> Error "empty fault spec"
  | r -> r

(* Armed state. [armed_spec] is written from the main domain (arm/disarm
   between queries) and read from worker domains mid-batch; the
   publication happens-before the batch via the pool's job posting.
   [ballast] pins alloc-fault bytes live; [fired_log] is mutex-guarded
   because items fire on worker domains. *)
let armed_spec : spec ref = ref []
let next_id = Atomic.make 0
let ballast : Bytes.t list ref = ref []
let fired_log : (int * fault) list ref = ref []
let log_lock = Mutex.create ()

let arm spec =
  armed_spec := spec;
  Atomic.set next_id 0;
  ballast := [];
  fired_log := []

let disarm () =
  armed_spec := [];
  ballast := [];
  fired_log := []

let armed () = !armed_spec <> []

let fired () =
  Mutex.lock log_lock;
  let l = List.rev !fired_log in
  Mutex.unlock log_lock;
  l

(** Reserve [n] consecutive global item ids; returns the base. Disarmed
    it neither reads nor advances the counter, so arming never perturbs
    an unfaulted run and ids restart at 0 per [arm]. *)
let batch_base n = if armed () then Atomic.fetch_and_add next_id n else 0

let fire item =
  if armed () then
    match List.assoc_opt item !armed_spec with
    | None -> ()
    | Some f ->
        Mutex.lock log_lock;
        fired_log := (item, f) :: !fired_log;
        (match f with
        | Alloc mib -> ballast := Bytes.create (mib * 1024 * 1024) :: !ballast
        | Raise | Hang _ -> ());
        Mutex.unlock log_lock;
        (match f with
        | Raise -> raise (Injected { item })
        | Hang s -> Unix.sleepf s
        | Alloc _ -> ())
