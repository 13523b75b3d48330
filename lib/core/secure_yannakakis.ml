(** The secure Yannakakis protocol (paper §6.4): the oblivious operators
    of §6.1–6.3 orchestrated along the same three-phase plan as the
    plaintext algorithm of §3.2.

    1. Reduce — oblivious aggregation + constrained joins fold leaves into
       their parents; sizes never change, only annotations.
    2. Semijoin — dangling tuples are marked dummy by zeroing their
       (shared) annotations; nothing is removed.
    3. Full join — the oblivious join reveals J* to Alice with shared
       annotations.

    Total cost O~(IN + OUT) and a number of rounds depending only on the
    query, as proved in the paper.

    When the context carries a checkpoint sink, a durable protocol-state
    snapshot is emitted at every phase/operator boundary — after the
    share phase, after each plan operator, and after the full join — and
    [~resume:true] restarts from the latest one: the restored PRG/dummy
    streams make the replay the exact run that would have happened, so a
    resumed execution's results, tally, and protocol counters are
    bit-identical to an uninterrupted one (DESIGN.md §11). *)

open Secyan_crypto
open Secyan_relational
open Secyan_obs

type result = {
  joined : Relation.t;              (** J* (tuples known to Alice) *)
  annots : Secret_share.t array;    (** shared annotations, one per J* tuple *)
  tally : Comm.tally;               (** communication of this execution *)
  seconds : float;                  (** wall-clock protocol time *)
}

let is_reduce_op = function
  | Yannakakis.Fold _ | Yannakakis.Stop _ | Yannakakis.Root_project _ -> true
  | Yannakakis.Semijoin_up _ | Yannakakis.Semijoin_down _ | Yannakakis.Join_up _ -> false

let op_label = function
  | Yannakakis.Fold { child; parent; _ } -> "fold:" ^ child ^ "->" ^ parent
  | Yannakakis.Stop { node; _ } -> "stop:" ^ node
  | Yannakakis.Root_project { node; _ } -> "project:" ^ node
  | Yannakakis.Semijoin_up { child; parent } -> "semijoin-up:" ^ child ^ "->" ^ parent
  | Yannakakis.Semijoin_down { child; parent } -> "semijoin-down:" ^ parent ^ "->" ^ child
  | Yannakakis.Join_up _ -> "join-up"

(** Run the protocol, leaving the result annotations in shared form (needed
    for query composition, §7). [resume] restarts from the latest
    checkpoint in the context's sink directory when one exists (and is a
    fresh start otherwise); it requires a checkpoint sink on the context.
    @raise Checkpoint.Checkpoint_error on a damaged or query-mismatched
    checkpoint. *)
let run_shared ?(resume = false) ctx (q : Query.t) : result =
  if resume && Option.is_none ctx.Context.checkpoint then
    invalid_arg
      "Secure_yannakakis.run_shared: ~resume:true without a checkpoint sink on the context";
  Context.check_cancel ctx;
  let join, seconds, tally =
    Trace.measure ctx @@ fun () ->
    let semiring = q.Query.semiring in
    (* Restoring (inside the measured block) sets the absolute tally of
       the interrupted run, and [Trace.measure] started from zero on this
       fresh context, so the reported diff is the whole run's tally — the
       same figure an uninterrupted execution reports. *)
    let resumed = if resume then Protocol_state.load_and_restore ctx q else None in
    match resumed with
    | Some { snapshot = { stage = Protocol_state.Joined { joined; annots }; _ }; _ } ->
        (* The interrupted run had already completed its join phase. *)
        { Oblivious_join.joined; annots }
    | (None | Some { snapshot = { stage = Protocol_state.Ops _; _ }; _ }) as resumed ->
        let skip_ops, start_remaining, start_rels =
          match resumed with
          | Some
              {
                Protocol_state.snapshot =
                  { stage = Protocol_state.Ops { done_ops; remaining; rels }; _ };
                _;
              } ->
              (done_ops, Some remaining, Some rels)
          | _ -> (0, None, None)
        in
        let rels : (string, Shared_relation.t) Hashtbl.t = Hashtbl.create 8 in
        (match start_rels with
        | Some entries ->
            (* The share phase already happened in the interrupted run;
               its working state is the snapshot's. *)
            List.iter (fun (label, sr) -> Hashtbl.replace rels label sr) entries
        | None ->
            Trace.with_span ctx "phase:share" (fun () ->
                List.iter
                  (fun (label, (i : Query.input)) ->
                    Trace.with_span ctx ("share:" ^ label) @@ fun () ->
                    Hashtbl.replace rels label
                      (Shared_relation.of_plain ctx ~owner:i.Query.owner i.Query.relation))
                  q.Query.inputs));
        let get l = Hashtbl.find rels l in
        let set l r = Hashtbl.replace rels l r in
        let plan = Yannakakis.plan q.Query.tree ~output:q.Query.output in
        (* the plan is phase-ordered: all reduce ops precede all semijoin ops *)
        let reduce_ops, semijoin_ops = List.partition is_reduce_op plan in
        let remaining =
          ref
            (match start_remaining with
            | Some r -> r
            | None -> Join_tree.node_labels q.Query.tree)
        in
        (* Snapshot the working state: every operator an uninterrupted run
           would still execute reads only not-yet-folded relations, so the
           remaining labels (in canonical tree order) are the whole live
           state. *)
        let save ~label ~done_ops =
          Protocol_state.save ctx q ~label
            ~stage:
              (Protocol_state.Ops
                 {
                   done_ops;
                   remaining = !remaining;
                   rels =
                     List.filter_map
                       (fun l ->
                         if List.exists (String.equal l) !remaining then Some (l, get l)
                         else None)
                       (Join_tree.node_labels q.Query.tree);
                 })
        in
        if skip_ops = 0 && start_rels = None then save ~label:"share" ~done_ops:0;
        let exec op =
          match (op : Yannakakis.phase_op) with
          | Yannakakis.Fold { child; parent; group_on } ->
              Trace.with_span ctx (op_label op) (fun () ->
                  let agg =
                    Oblivious_agg.aggregate ctx semiring (get child) ~attrs:group_on
                  in
                  set parent
                    (Oblivious_semijoin.join_constrained ctx semiring ~left:(get parent)
                       ~right:agg));
              remaining := List.filter (fun l -> not (String.equal l child)) !remaining
          | Yannakakis.Stop { node; group_on } ->
              Trace.with_span ctx (op_label op) (fun () ->
                  set node (Oblivious_agg.aggregate ctx semiring (get node) ~attrs:group_on))
          | Yannakakis.Root_project { node; group_on } ->
              Trace.with_span ctx (op_label op) (fun () ->
                  set node (Oblivious_agg.aggregate ctx semiring (get node) ~attrs:group_on))
          | Yannakakis.Semijoin_up { child; parent } ->
              Trace.with_span ctx (op_label op) (fun () ->
                  set parent
                    (Oblivious_semijoin.semijoin ctx semiring ~left:(get parent)
                       ~right:(get child)))
          | Yannakakis.Semijoin_down { child; parent } ->
              Trace.with_span ctx (op_label op) (fun () ->
                  set child
                    (Oblivious_semijoin.semijoin ctx semiring ~left:(get child)
                       ~right:(get parent)))
          | Yannakakis.Join_up _ ->
              (* the oblivious join protocol handles the whole phase at once *)
              ()
        in
        (* [idx] numbers operators across both phases, so a snapshot's
           [done_ops] names one point in the phase-ordered plan. *)
        let idx = ref 0 in
        (* Operator-boundary cancellation: the check runs after the
           previous operator's [save], so a query cancelled here always
           leaves a resumable checkpoint of everything it completed. *)
        let exec_from phase_ops =
          List.iter
            (fun op ->
              let i = !idx in
              incr idx;
              if i >= skip_ops then begin
                Context.check_cancel ctx;
                exec op;
                save ~label:(op_label op) ~done_ops:(i + 1)
              end)
            phase_ops
        in
        Trace.with_span ctx "phase:reduce" (fun () -> exec_from reduce_ops);
        Trace.with_span ctx "phase:semijoin" (fun () -> exec_from semijoin_ops);
        Context.check_cancel ctx;
        let final_rels = List.map get !remaining in
        let join =
          Trace.with_span ctx "phase:join" (fun () ->
              Oblivious_join.run ctx semiring final_rels)
        in
        Protocol_state.save ctx q ~label:"join"
          ~stage:
            (Protocol_state.Joined
               { joined = join.Oblivious_join.joined; annots = join.Oblivious_join.annots });
        join
  in
  {
    joined = join.Oblivious_join.joined;
    annots = join.Oblivious_join.annots;
    tally;
    seconds;
  }

(* ---- the oblivious ORDER BY / top-k phase (DESIGN.md §17) ----------- *)

(* Bit width for values in [0, n). *)
let width_for n =
  let rec go b = if n <= 1 lsl b then b else go (b + 1) in
  go 1

(* Normalized sort words live in the context ring, so no single word may
   be wider than [ring_bits]. Wide clear values (ranks, row indices) are
   split into ring-width limbs, MOST significant first: the comparator's
   composite-key concatenation then compares limb sequences exactly as it
   would the wide word. Returns [(shift, bits)] per limb. *)
let limb_splits ~ring_bits width =
  let rec lsb shift rem =
    if rem <= 0 then []
    else
      let lw = min ring_bits rem in
      (shift, lw) :: lsb (shift + lw) (rem - lw)
  in
  List.rev (lsb 0 width)

let limb_value value (shift, lw) =
  let mask = if lw >= 64 then Int64.minus_one else Int64.sub (Int64.shift_left 1L lw) 1L in
  Int64.logand (Int64.shift_right_logical value shift) mask

(* Dense ranks Alice computes in the clear over data she holds: the sort
   circuit compares fixed-width rank words instead of typed values, so
   one comparator circuit covers ints, strings, and dates uniformly.
   Equal inputs get equal ranks (ties fall through to later keys). *)
let rank_table ~repr ~compare xs =
  let sorted = List.sort_uniq compare (Array.to_list xs) in
  let tbl = Hashtbl.create (List.length sorted * 2) in
  List.iteri (fun i v -> Hashtbl.replace tbl (repr v) i) sorted;
  let width = width_for (max 1 (List.length sorted)) in
  (width, fun v -> Int64.of_int (Hashtbl.find tbl (repr v)))

(* After run_shared, [phase:order] collapses J* to the output attributes
   obliviously (annotations stay shared), sorts the collapsed rows with
   the bitonic GC network, and reveals only the top-k row indices and
   annotations to Alice — never a key word, never a row beyond k. The
   comparison keys: each ORDER BY attribute becomes Alice's private
   dense-rank word; ORDER BY on the aggregate compares the shared
   annotation itself (two's complement, inside the circuit); the final
   tiebreak is the row's rank under ascending [Tuple.repr] — the same
   total order [Query.ordered_rows] applies in the clear. Row validity
   (non-dummy AND nonzero annotation) guards the top of the composite
   key, so dummies and zero-annotated rows sort behind every real row
   and reveal nothing but padding. *)
let order_phase ctx (q : Query.t) (r : result) : Relation.t =
  let semiring = q.Query.semiring in
  let collapsed =
    Oblivious_agg.aggregate ctx semiring
      (Shared_relation.of_shares ~owner:Party.Alice r.joined r.annots)
      ~attrs:q.Query.output
  in
  let tuples = collapsed.Shared_relation.rel.Relation.tuples in
  let out_schema = collapsed.Shared_relation.rel.Relation.schema in
  let n = Array.length tuples in
  let k = match q.Query.limit with Some k -> min k n | None -> n in
  let name = q.Query.name ^ "-ordered" in
  if n = 0 || k = 0 then
    Relation.create ~name ~schema:out_schema ~tuples:[||] ~annots:[||]
  else begin
    let ring_bits = Context.ring_bits ctx in
    let priv value bits =
      { Oblivious_sort.input = Gc_protocol.Priv { owner = Party.Alice; value; bits };
        width = bits }
    in
    (* a clear rank value as one or more ring-width key limbs *)
    let rank_keys ~descending value width =
      List.map
        (fun split ->
          { Oblivious_sort.word = priv (limb_value value split) (snd split);
            descending; signed = false })
        (limb_splits ~ring_bits width)
    in
    let user_keys =
      List.map
        (fun (key, dir) ->
          let descending = match (dir : Query.direction) with Asc -> false | Desc -> true in
          match (key : Query.sort_key) with
          | Query.By_attr a ->
              let vals = Array.map (fun tu -> Tuple.get out_schema a tu) tuples in
              let width, rank = rank_table ~repr:Value.repr ~compare:Value.compare vals in
              fun i -> rank_keys ~descending (rank vals.(i)) width
          | Query.By_agg ->
              fun i ->
                [
                  {
                    Oblivious_sort.word =
                      {
                        Oblivious_sort.input =
                          Gc_protocol.Shared collapsed.Shared_relation.annots.(i);
                        width = ring_bits;
                      };
                    descending;
                    signed = true;
                  };
                ])
        q.Query.order_by
    in
    let tb_width, tb_rank =
      rank_table ~repr:Fun.id ~compare:String.compare (Array.map Tuple.repr tuples)
    in
    let idx_bits = width_for n in
    let idx_splits = limb_splits ~ring_bits idx_bits in
    let rows =
      Array.init n (fun i ->
          {
            Oblivious_sort.valid =
              Gc_protocol.Priv
                {
                  owner = Party.Alice;
                  value = (if Tuple.is_dummy tuples.(i) then 0L else 1L);
                  bits = 1;
                };
            (* the annotation word sits after the index limbs *)
            valid_if_nonzero = Some (List.length idx_splits);
            keys =
              List.concat_map (fun key -> key i) user_keys
              @ rank_keys ~descending:false (tb_rank (Tuple.repr tuples.(i))) tb_width;
            payload =
              List.map (fun split -> priv (limb_value (Int64.of_int i) split) (snd split))
                idx_splits
              @ [
                  {
                    Oblivious_sort.input =
                      Gc_protocol.Shared collapsed.Shared_relation.annots.(i);
                    width = ring_bits;
                  };
                ];
          })
    in
    let top = Oblivious_sort.top_k_reveal ctx ~k ~to_:Party.Alice rows in
    (* reassemble the row index from its revealed limbs (msb first) *)
    let idx_of (payload : int64 array) =
      let v = ref 0L in
      List.iteri
        (fun j (_, lw) -> v := Int64.logor (Int64.shift_left !v lw) payload.(j))
        idx_splits;
      Int64.to_int !v
    in
    let n_idx = List.length idx_splits in
    let result_rows =
      Array.to_list top
      |> List.filter_map (fun (invalid, payload) ->
             if invalid then None
             else Some (tuples.(idx_of payload), payload.(n_idx)))
    in
    Relation.of_list ~name ~schema:out_schema result_rows
  end

(** Run the protocol and reveal the result to Alice (the designated
    receiver): the standard top-level entry point. Queries carrying
    ORDER BY / LIMIT go through the oblivious sort + top-k phase instead
    of the plain batched reveal; the returned relation's row order {e is}
    the query order, truncated to the limit. *)
let run ?resume ctx (q : Query.t) : Relation.t * result =
  let r = run_shared ?resume ctx q in
  (* Phase boundary: the shared result's checkpoint (stage Joined) is
     saved, so a cancellation anywhere past here resumes into this final
     phase with restored PRG/dummy streams — the replayed order phase or
     reveal is the exact one the uninterrupted run would have executed. *)
  Context.check_cancel ctx;
  let revealed, seconds, tally =
    Trace.measure ctx @@ fun () ->
    if Query.has_order q then
      Trace.with_span ctx "phase:order" @@ fun () -> order_phase ctx q r
    else
      Trace.with_span ctx "reveal" @@ fun () ->
      let annots = Secret_share.reveal_batch ctx Party.Alice r.annots in
      (* J* can retain non-output attributes (a Stop-reduced node keeps its
         join attributes), so distinct J* tuples may coincide on the output
         attributes. Alice groups the revealed rows locally — plain share
         addition on her side, zero communication — mirroring the final
         collapse of the plaintext algorithm. *)
      Operators.aggregate q.Query.semiring ~attrs:q.Query.output
        (Relation.with_annots r.joined annots)
  in
  let r = { r with tally = Comm.add r.tally tally; seconds = r.seconds +. seconds } in
  (revealed, r)

(** Rough AND-gate total of a run, for progress estimation (ETA) only,
    from public sizes and owners. It charges the circuits that still
    garble, walking the plan as the run does:
    - a cross-party constrained join or semijoin: one PSI circuit per
      cuckoo bin of the left relation, a [Psi.cmp_bits]-wide equality
      test plus one AND per payload bit (a ring word for clear right
      annotations, an index for shared ones);
    - [project_nonzero] over a semijoin's shared right relation, and the
      oblivious join's reveal circuits: per tuple, an adder that joins
      the two shares and a nonzero test;
    - for the non-ring semirings, the aggregation merge chain and the
      product circuits, [Cost_model.merge_circuit_and_gates] per tuple.
    Ring aggregation (a segmented sum through one OEP) and ring products
    (OT-based) garble nothing. The top-k sort is not charged: its size
    is the output size, which only the run reveals. Progress percentages
    are clamped below 100% until the run actually finishes. *)
let estimate_and_gates ctx (q : Query.t) =
  let bits = Context.ring_bits ctx in
  let per_tuple =
    if q.Query.semiring.Semiring.kind = Semiring.Ring then 0
    else Cost_model.merge_circuit_and_gates ~bits
  in
  let input l = List.assoc l q.Query.inputs in
  let owner l = (input l).Query.owner in
  let card l = Relation.cardinality (input l).Query.relation in
  (* operators keep owners and sizes; what changes is whether a node's
     annotations are still clear to its owner, and whether it is folded *)
  let shared = Hashtbl.create 8 and folded = Hashtbl.create 8 in
  let clear l = not (Hashtbl.mem shared l) in
  let make_shared l = Hashtbl.replace shared l () in
  let shared_word = 2 * (bits - 1) in
  let psi ~left ~right =
    if Party.equal (owner left) (owner right) then 0
    else
      let bins = Cuckoo_hash.n_bins_for (card left) in
      let payload = if clear right then bits else Psi.index_bits (card right + bins) in
      bins * (Psi.cmp_bits ctx - 1 + payload)
  in
  let semijoin ~left ~right =
    let nonzero_chain = if clear right then 0 else card right * (shared_word + 2) in
    let cost = nonzero_chain + psi ~left ~right + (card left * per_tuple) in
    make_shared left;
    cost
  in
  let op = function
    | Yannakakis.Fold { child; parent; _ } ->
        (* the PSI's right side is the child's aggregate, always shared *)
        make_shared child;
        let cost = ((card child + card parent) * per_tuple) + psi ~left:parent ~right:child in
        make_shared parent;
        Hashtbl.replace folded child ();
        cost
    | Yannakakis.Stop { node; _ } | Yannakakis.Root_project { node; _ } ->
        make_shared node;
        card node * per_tuple
    | Yannakakis.Semijoin_up { child; parent } -> semijoin ~left:parent ~right:child
    | Yannakakis.Semijoin_down { child; parent } -> semijoin ~left:child ~right:parent
    | Yannakakis.Join_up _ -> 0
  in
  let plan = Yannakakis.plan q.Query.tree ~output:q.Query.output in
  let operators = List.fold_left (fun acc o -> acc + op o) 0 plan in
  List.fold_left
    (fun acc (l, _) -> if Hashtbl.mem folded l then acc else acc + (card l * shared_word))
    operators q.Query.inputs
