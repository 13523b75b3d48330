(** Oblivious semijoin and constrained join (paper §6.2).

    [join_constrained] computes R = R_F join R_F' under the reduce-phase
    constraint F' subset-of F: the output has exactly the tuples of R_F
    (owner unchanged) with new shared annotations v(t1) x v(t2), or a
    shared 0 for tuples with no join partner. Nobody learns which is
    which.

    Three execution paths, as in §6.2 and the §6.5 optimizations:
    - different owners, right annotations clear to their owner: plain
      PSI-with-payloads (cheap);
    - different owners, shared annotations: PSI with secret-shared
      payloads (§5.5);
    - same owner: no PSI at all — the owner matches tuples locally and a
      single OEP + product re-randomizes.

    [semijoin] is R_F semijoin R_F' = R_F join pi^1(R_F'), with pi^1
    computed locally when the right annotations are clear, and by the
    oblivious pi^1 protocol otherwise. *)

open Secyan_crypto
open Secyan_relational

(* Final step shared by all paths: new annotations v_j x z'_j in one
   batch — an OT-based product for the ring, a circuit otherwise. *)
let multiply_annotations ctx semiring (left : Shared_relation.t)
    (z' : Secret_share.t array) : Secret_share.t array =
  let m = Shared_relation.cardinality left in
  if m = 0 then [||]
  else if semiring.Semiring.kind = Semiring.Ring then
    Secret_share.mul_batch ctx left.Shared_relation.annots z'
  else begin
    let items =
      Array.init m (fun j ->
          [ Gc_protocol.Shared left.Shared_relation.annots.(j); Gc_protocol.Shared z'.(j) ])
    in
    let build b (words : Circuits.word array) =
      [ Semiring.circuit_mul semiring b words.(0) words.(1) ]
    in
    Array.map (fun s -> s.(0)) (Gc_protocol.eval_to_shares_batch ctx ~items ~build)
  end

(* Map each left tuple to the cuckoo bin holding its join key. *)
let xi_from_table (left : Shared_relation.t) ~key_attrs (table : Cuckoo_hash.table) =
  let bin_of = Hashtbl.create 64 in
  Array.iteri
    (fun b slot -> match slot with Some e -> Hashtbl.replace bin_of e b | None -> ())
    table.Cuckoo_hash.slots;
  Array.map
    (fun t ->
      let e = Tuple.encode_on left.Shared_relation.rel.Relation.schema key_attrs t in
      match Hashtbl.find_opt bin_of e with
      | Some b -> b
      | None -> invalid_arg "Oblivious_semijoin: left key missing from cuckoo table")
    left.Shared_relation.rel.Relation.tuples

let join_constrained ctx semiring ~(left : Shared_relation.t) ~(right : Shared_relation.t) :
    Shared_relation.t =
  let key_attrs = Shared_relation.schema right in
  if not (Schema.subset key_attrs (Shared_relation.schema left)) then
    invalid_arg "Oblivious_semijoin.join_constrained: requires F' subset of F";
  Context.with_span ctx ("join-constrained:" ^ left.Shared_relation.rel.Relation.name)
  @@ fun () ->
  let m = Shared_relation.cardinality left in
  let owner = left.Shared_relation.owner in
  let z' =
    if m = 0 then [||]
    else if Party.equal owner right.Shared_relation.owner then begin
      (* Same-owner path: the owner knows both tuple sets, so it matches
         locally; one appended dummy slot catches the no-partner case. *)
      let n = Shared_relation.cardinality right in
      let index_of = Hashtbl.create 64 in
      Array.iteri
        (fun j t2 ->
          if not (Tuple.is_dummy t2) then
            Hashtbl.replace index_of
              (Tuple.repr (Tuple.project (Shared_relation.schema right) key_attrs t2))
              j)
        right.Shared_relation.rel.Relation.tuples;
      let xi =
        Array.map
          (fun t1 ->
            if Tuple.is_dummy t1 then n
            else
              match
                Hashtbl.find_opt index_of
                  (Tuple.repr (Tuple.project (Shared_relation.schema left) key_attrs t1))
              with
              | Some j -> j
              | None -> n)
          left.Shared_relation.rel.Relation.tuples
      in
      let extended = Array.append right.Shared_relation.annots [| Secret_share.zero |] in
      Oep.apply_shared ctx ~holder:owner ~xi ~m:(n + 1) extended
    end
    else begin
      (* Cross-party paths: PSI on the projected keys. *)
      let left_schema = Shared_relation.schema left in
      let encodings =
        Array.map (fun t -> Tuple.encode_on left_schema key_attrs t)
          left.Shared_relation.rel.Relation.tuples
      in
      let distinct =
        let seen = Hashtbl.create 64 in
        Array.to_list encodings
        |> List.filter (fun e ->
               if Hashtbl.mem seen e then false
               else begin
                 Hashtbl.add seen e ();
                 true
               end)
      in
      (* pad X to M with fresh dummy keys so |X| leaks nothing *)
      let pad = m - List.length distinct in
      let padding =
        List.init pad (fun _ -> Tuple.encode (Tuple.dummy (Schema.of_list [ "pad" ])))
      in
      let alice_set = Array.of_list (distinct @ padding) in
      let bob_set =
        Array.map
          (fun t -> Tuple.encode_on (Shared_relation.schema right) key_attrs t)
          right.Shared_relation.rel.Relation.tuples
      in
      let table, bin_payload =
        match right.Shared_relation.clear_annots with
        | Some clear ->
            (* §6.5: right owner knows its annotations — plain PSI with
               payloads suffices *)
            let r = Psi.with_payloads ctx ~receiver:owner ~alice_set ~bob_set ~bob_payloads:clear in
            (r.Psi.table, r.Psi.payload)
        | None ->
            let r =
              Psi_shared_payload.run ctx ~receiver:owner ~alice_set ~bob_set
                ~bob_payload_shares:right.Shared_relation.annots
            in
            (r.Psi_shared_payload.table, r.Psi_shared_payload.payload)
      in
      let xi = xi_from_table left ~key_attrs table in
      Oep.apply_shared ctx ~holder:owner ~xi ~m:(Array.length bin_payload) bin_payload
    end
  in
  let annots = multiply_annotations ctx semiring left z' in
  Shared_relation.of_shares ~owner left.Shared_relation.rel annots

(** R_F semijoin R_F': annotations of left tuples with no nonzero join
    partner become [0]; everything else is preserved. Tuples unchanged. *)
let semijoin ctx semiring ~(left : Shared_relation.t) ~(right : Shared_relation.t) :
    Shared_relation.t =
  Context.with_span ctx ("semijoin:" ^ left.Shared_relation.rel.Relation.name) @@ fun () ->
  let key_attrs =
    Schema.inter (Shared_relation.schema left) (Shared_relation.schema right)
  in
  let projected =
    match right.Shared_relation.clear_annots with
    | Some _ ->
        (* the right owner knows its annotations: compute pi^1 locally and
           re-enter the shared world *)
        let plain =
          Relation.with_annots right.Shared_relation.rel
            (match right.Shared_relation.clear_annots with Some a -> a | None -> assert false)
        in
        let p = Operators.project_nonzero semiring ~attrs:key_attrs plain in
        let padded = Relation.pad_to ~size:(Shared_relation.cardinality right) p in
        Shared_relation.of_plain ctx ~owner:right.Shared_relation.owner padded
    | None -> Oblivious_agg.project_nonzero ctx semiring right ~attrs:key_attrs
  in
  join_constrained ctx semiring ~left ~right:projected
