(** Canonical serialization of the protocol's working state, and the
    save/restore machinery behind durable checkpoints (DESIGN.md §11).

    A snapshot captures everything a resumed process cannot re-derive
    from the query description alone:

    - the execution stage: either the shared working relations plus the
      number of plan operators already executed, or the completed
      oblivious join;
    - the ledger of {!Context.t} — communication tally and protocol
      counters in one array — so resumed accounting continues from (not
      restarts at) the crash point;
    - the positions of the three PRG streams (Alice's, Bob's, the
      dealer's) and of the global dummy-id stream — all randomness and
      all dummy padding flows through these four, so restoring them makes
      the replay byte-for-byte the run that would have happened;
    - the transport sequence counters, when a real channel is attached.

    {e Not} persisted: garbled circuits, OT correlations, PSI tables and
    other intra-operator material (re-derived deterministically from the
    restored PRG streams when the interrupted operator re-executes), the
    cleartext inputs (the parties still hold them), and the checkpoint
    counters themselves (persistence work is per-process, and excluding
    it keeps resumed and uninterrupted runs in agreement on every
    protocol counter).

    The payload encoding uses {!Secyan_crypto.Checkpoint}'s writer/reader
    and inherits its strictness: a payload that does not decode exactly
    raises the typed [Checkpoint_error]. *)

open Secyan_crypto
open Secyan_relational

module W = Checkpoint.Writer
module R = Checkpoint.Reader

(* --- value/tuple/relation codecs ------------------------------------- *)

let write_value w (v : Value.t) =
  match v with
  | Value.Int i ->
      W.u8 w 0;
      W.i64 w (Int64.of_int i)
  | Value.Str s ->
      W.u8 w 1;
      W.str w s
  | Value.Date d ->
      W.u8 w 2;
      W.i64 w (Int64.of_int d)
  | Value.Dummy i ->
      W.u8 w 3;
      W.i64 w (Int64.of_int i)

let read_value r : Value.t =
  match R.u8 r with
  | 0 -> Value.Int (Int64.to_int (R.i64 r))
  | 1 -> Value.Str (R.str r)
  | 2 -> Value.Date (Int64.to_int (R.i64 r))
  | 3 -> Value.Dummy (Int64.to_int (R.i64 r))
  | tag -> R.malformed r (Printf.sprintf "value tag %d" tag)

let write_tuple w (t : Tuple.t) =
  W.u32 w (Array.length t);
  Array.iter (write_value w) t

let read_tuple r : Tuple.t =
  let n = R.u32 r in
  Array.init n (fun _ -> read_value r)

let write_schema w (s : Schema.t) =
  W.u32 w (Array.length s);
  Array.iter (W.str w) s

let read_schema r : Schema.t =
  let n = R.u32 r in
  Array.init n (fun _ -> R.str r)

let write_relation w (rel : Relation.t) =
  W.str w rel.Relation.name;
  write_schema w rel.Relation.schema;
  W.u32 w (Array.length rel.Relation.tuples);
  Array.iter (write_tuple w) rel.Relation.tuples;
  W.i64_array w rel.Relation.annots

let read_relation r : Relation.t =
  let name = R.str r in
  let schema = read_schema r in
  let n = R.u32 r in
  let tuples = Array.init n (fun _ -> read_tuple r) in
  let annots = R.i64_array r in
  if Array.length annots <> n then
    R.malformed r
      (Printf.sprintf "relation %S: %d annotations for %d tuples" name (Array.length annots) n);
  Relation.create ~name ~schema ~tuples ~annots

let write_share w (s : Secret_share.t) =
  W.i64 w s.Secret_share.a;
  W.i64 w s.Secret_share.b

let read_share r : Secret_share.t =
  let a = R.i64 r in
  let b = R.i64 r in
  { Secret_share.a; b }

let write_shares w (a : Secret_share.t array) =
  W.u32 w (Array.length a);
  Array.iter (write_share w) a

let read_shares r : Secret_share.t array =
  let n = R.u32 r in
  Array.init n (fun _ -> read_share r)

let write_party w (p : Party.t) = W.u8 w (match p with Party.Alice -> 0 | Party.Bob -> 1)

let read_party r : Party.t =
  match R.u8 r with
  | 0 -> Party.Alice
  | 1 -> Party.Bob
  | tag -> R.malformed r (Printf.sprintf "party tag %d" tag)

let write_shared_relation w (sr : Shared_relation.t) =
  write_party w sr.Shared_relation.owner;
  write_relation w sr.Shared_relation.rel;
  write_shares w sr.Shared_relation.annots;
  match sr.Shared_relation.clear_annots with
  | None -> W.u8 w 0
  | Some a ->
      W.u8 w 1;
      W.i64_array w a

let read_shared_relation r : Shared_relation.t =
  let owner = read_party r in
  let rel = read_relation r in
  let annots = read_shares r in
  let clear_annots =
    match R.u8 r with
    | 0 -> None
    | 1 -> Some (R.i64_array r)
    | tag -> R.malformed r (Printf.sprintf "clear-annotation tag %d" tag)
  in
  if Array.length annots <> Relation.cardinality rel then
    R.malformed r
      (Printf.sprintf "shared relation %S: %d share pairs for %d tuples" rel.Relation.name
         (Array.length annots) (Relation.cardinality rel));
  { Shared_relation.owner; rel; annots; clear_annots }

(* --- the snapshot ---------------------------------------------------- *)

type stage =
  | Ops of {
      done_ops : int;  (** plan operators already executed *)
      remaining : string list;  (** node labels not yet folded away *)
      rels : (string * Shared_relation.t) list;  (** the shared working state *)
    }
  | Joined of { joined : Relation.t; annots : Secret_share.t array }

type snapshot = {
  stage : stage;
  prg_alice : int64 array;
  prg_bob : int64 array;
  dealer : int64 array;
  counters : int array;  (** the ledger, traffic included; checkpoint counters zeroed *)
  dummy_count : int;
  transport_seqs : int64 array option;
}

let write_stage w = function
  | Ops { done_ops; remaining; rels } ->
      W.u8 w 0;
      W.u32 w done_ops;
      W.u32 w (List.length remaining);
      List.iter (W.str w) remaining;
      W.u32 w (List.length rels);
      List.iter
        (fun (label, sr) ->
          W.str w label;
          write_shared_relation w sr)
        rels
  | Joined { joined; annots } ->
      W.u8 w 1;
      write_relation w joined;
      write_shares w annots

let read_stage r =
  match R.u8 r with
  | 0 ->
      let done_ops = R.u32 r in
      let n_remaining = R.u32 r in
      let remaining = List.init n_remaining (fun _ -> R.str r) in
      let n_rels = R.u32 r in
      let rels =
        List.init n_rels (fun _ ->
            let label = R.str r in
            (label, read_shared_relation r))
      in
      Ops { done_ops; remaining; rels }
  | 1 ->
      let joined = read_relation r in
      let annots = read_shares r in
      Joined { joined; annots }
  | tag -> R.malformed r (Printf.sprintf "stage tag %d" tag)

let encode_snapshot (s : snapshot) : Bytes.t =
  let w = W.create () in
  write_stage w s.stage;
  W.i64_array w s.prg_alice;
  W.i64_array w s.prg_bob;
  W.i64_array w s.dealer;
  W.int_array w s.counters;
  W.u32 w s.dummy_count;
  (match s.transport_seqs with
  | None -> W.u8 w 0
  | Some seqs ->
      W.u8 w 1;
      W.i64_array w seqs);
  W.contents w

let decode_snapshot ~path (payload : Bytes.t) : snapshot =
  let r = R.create ~path payload in
  let stage = read_stage r in
  let prg_alice = R.i64_array r in
  let prg_bob = R.i64_array r in
  let dealer = R.i64_array r in
  let counters = R.int_array r in
  let dummy_count = R.u32 r in
  let transport_seqs =
    match R.u8 r with
    | 0 -> None
    | 1 -> Some (R.i64_array r)
    | tag -> R.malformed r (Printf.sprintf "transport-seq tag %d" tag)
  in
  if not (R.at_end r) then R.malformed r "trailing bytes after the snapshot";
  if Array.length counters <> Trace_sink.n_counters then
    R.malformed r
      (Printf.sprintf "%d counters, this build has %d" (Array.length counters)
         Trace_sink.n_counters);
  List.iter
    (fun (what, a) ->
      if Array.length a <> 4 then
        R.malformed r (Printf.sprintf "%s: %d state words, expected 4" what (Array.length a)))
    [ ("prg_alice", prg_alice); ("prg_bob", prg_bob); ("dealer", dealer) ];
  (match transport_seqs with
  | Some seqs when Array.length seqs <> 4 ->
      R.malformed r
        (Printf.sprintf "transport seqs: %d state words, expected 4" (Array.length seqs))
  | _ -> ());
  { stage; prg_alice; prg_bob; dealer; counters; dummy_count; transport_seqs }

(* --- query fingerprint ------------------------------------------------ *)

(* The canonical description of "the same run": query structure, input
   content, and every context parameter that shapes the transcript.
   Domains count and transport/checkpoint attachments are deliberately
   absent — PR 2/3 made results and tallies bit-identical across them, so
   a run may legitimately resume with a different pool size or backend. *)
let fingerprint (ctx : Context.t) (q : Query.t) : string =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "secyan-fingerprint v1\n";
  add "query %s\n" q.Query.name;
  add "ring %d kappa %d sigma %d gc %s\n" (Context.ring_bits ctx) Cost_model.kappa
    Cost_model.sigma
    (match ctx.Context.gc_backend with Context.Real -> "real" | Context.Sim -> "sim");
  add "semiring %s\n"
    (match q.Query.semiring.Semiring.kind with
    | Semiring.Ring -> "ring"
    | Semiring.Boolean -> "boolean"
    | Semiring.Tropical_min -> "tropical_min"
    | Semiring.Tropical_max -> "tropical_max");
  add "output %s\n" (String.concat "," (Schema.to_list q.Query.output));
  add "tree root %s\n" (Join_tree.root q.Query.tree);
  List.iter
    (fun label ->
      add "tree node %s parent %s attrs %s\n" label
        (match Join_tree.parent_of q.Query.tree label with Some p -> p | None -> "-")
        (String.concat "," (Schema.to_list (Join_tree.attrs q.Query.tree label))))
    (Join_tree.node_labels q.Query.tree);
  List.iter
    (fun (label, (i : Query.input)) ->
      let rel = i.Query.relation in
      add "input %s owner %s cardinality %d schema %s\n" label
        (match i.Query.owner with Party.Alice -> "alice" | Party.Bob -> "bob")
        (Relation.cardinality rel)
        (String.concat "," (Schema.to_list rel.Relation.schema));
      (* Content hash so a checkpoint can never replay over changed data. *)
      let content = Buffer.create 4096 in
      Array.iteri
        (fun j t ->
          Buffer.add_string content (Tuple.repr t);
          Buffer.add_char content ':';
          Buffer.add_string content (Int64.to_string rel.Relation.annots.(j));
          Buffer.add_char content '\n')
        rel.Relation.tuples;
      add "input %s content %s\n" label
        (Sha256.to_hex (Sha256.digest_string (Buffer.contents content))))
    q.Query.inputs;
  Sha256.to_hex (Sha256.digest_string (Buffer.contents b))

(* --- capture and restore against a context ---------------------------- *)

let capture (ctx : Context.t) ~(stage : stage) : snapshot =
  let counters = Context.counter_totals ctx in
  (* Persistence work is per-process, not protocol state: exclude it so
     resumed and uninterrupted runs agree on every protocol counter. *)
  counters.(Trace_sink.counter_index Trace_sink.Checkpoints_written) <- 0;
  counters.(Trace_sink.counter_index Trace_sink.Checkpoint_bytes) <- 0;
  {
    stage;
    prg_alice = Prg.state ctx.Context.prg_alice;
    prg_bob = Prg.state ctx.Context.prg_bob;
    dealer = Prg.state ctx.Context.dealer;
    counters;
    dummy_count = Value.dummy_count ();
    transport_seqs = Option.map Secyan_net.Resilient.seq_state ctx.Context.transport;
  }

(** Reinstate a snapshot's execution point on [ctx]: the ledger (absolute
    traffic and protocol counters; the process's own checkpoint counters
    are kept), the three PRG stream positions, the dummy-id stream, and
    — when both the snapshot and the context carry one — the transport's
    sequence counters, after the session-resume handshake agrees on the
    checkpoint epoch being resumed. *)
let restore (ctx : Context.t) ~session ~epoch (s : snapshot) : unit =
  (match (s.transport_seqs, ctx.Context.transport) with
  | Some seqs, Some tr ->
      (* Both simulated parties resume from the same loaded checkpoint,
         so their hellos agree by construction; the handshake still runs
         over the real channel so a half-open or mis-wired channel fails
         typed here, before any protocol traffic. *)
      Secyan_net.Resilient.resume_handshake tr ~alice:(session, epoch) ~bob:(session, epoch);
      Secyan_net.Resilient.restore_seq_state tr seqs
  | _ -> ());
  Prg.set_state ctx.Context.prg_alice s.prg_alice;
  Prg.set_state ctx.Context.prg_bob s.prg_bob;
  Prg.set_state ctx.Context.dealer s.dealer;
  let totals = Context.counter_totals ctx in
  let restored = Array.copy s.counters in
  List.iter
    (fun c ->
      let i = Trace_sink.counter_index c in
      restored.(i) <- totals.(i))
    [ Trace_sink.Checkpoints_written; Trace_sink.Checkpoint_bytes ];
  Context.restore_counters ctx restored;
  Value.set_dummy_count s.dummy_count

(* --- save / load ------------------------------------------------------ *)

(** Serialize and emit one snapshot through the context's checkpoint
    sink (no-op without one), under a ["checkpoint"] trace span, bumping
    [Checkpoints_written]/[Checkpoint_bytes]. *)
let save (ctx : Context.t) ~fingerprint ~label ~(stage : stage) : unit =
  match ctx.Context.checkpoint with
  | None -> ()
  | Some sink ->
      Context.with_span ctx "checkpoint" @@ fun () ->
      let payload = encode_snapshot (capture ctx ~stage) in
      let bytes = Checkpoint.emit sink ~fingerprint:(Lazy.force fingerprint) ~label payload in
      Context.bump ctx Trace_sink.Checkpoints_written 1;
      Context.bump ctx Trace_sink.Checkpoint_bytes bytes

type resumed = {
  snapshot : snapshot;
  epoch : int;  (** epoch of the loaded checkpoint *)
  label : string;
}

(** Load the latest checkpoint of the context's sink directory, verify it
    carries [fingerprint], decode it, reinstate it on [ctx], and point the
    sink at the next epoch of the same session. [None] when no sink is
    attached or the directory holds no checkpoints (fresh start).
    @raise Checkpoint.Checkpoint_error on damaged or mismatched files.
    @raise Secyan_net.Resilient.Resume_mismatch on handshake disagreement. *)
let load_and_restore (ctx : Context.t) ~fingerprint : resumed option =
  match ctx.Context.checkpoint with
  | None -> None
  | Some sink -> (
      match
        Checkpoint.load_latest ~dir:sink.Checkpoint.dir ~fingerprint:(Lazy.force fingerprint)
      with
      | None -> None
      | Some loaded ->
          let snapshot =
            decode_snapshot ~path:loaded.Checkpoint.path loaded.Checkpoint.payload
          in
          Checkpoint.continue_from sink loaded;
          restore ctx ~session:loaded.Checkpoint.session ~epoch:loaded.Checkpoint.epoch
            snapshot;
          Some { snapshot; epoch = loaded.Checkpoint.epoch; label = loaded.Checkpoint.label })
