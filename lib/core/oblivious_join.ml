(** Oblivious full join (paper §6.3).

    Precondition (established by the earlier phases): all dangling tuples
    are zero-annotated, so the nonzero tuples of every relation equal its
    projection of the final join J* — revealing them to Alice reveals
    nothing beyond the query result. The three steps:

    1. Reveal: per relation, a batch of garbled circuits tests v(t) = 0 and
       hands Alice either the tuple or a dummy (positions preserved). The
       test compares Alice's share with the negation of Bob's, so it
       needs no adder to reconstruct v(t) first.
    2. Join: Alice joins the revealed relations locally (plaintext
       Yannakakis) and sends only OUT = |J*| to Bob.
    3. Annotations: per relation, Alice programs the extended permutation
       xi_F(i) = index of pi_F(t_i) in R_F; an OEP aligns the annotation
       shares with J*, and batched products multiply across relations.

    Output: J* (Alice's tuples) with annotations in shared form. *)

open Secyan_crypto
open Secyan_relational

type t = {
  joined : Relation.t;              (** J*: tuple content known to Alice *)
  annots : Secret_share.t array;    (** shared annotations of J* *)
}

(* Step 1 for one relation: Alice's view with dummies at zero-annotated
   positions. The view's annotation column doubles as the keep-mask
   (1 = real revealed tuple, 0 = suppressed): a scalar aggregate has an
   empty schema whose tuples cannot encode dummy-ness in-band. *)
let reveal_to_alice ctx semiring (sr : Shared_relation.t) : Relation.t =
  let n = Shared_relation.cardinality sr in
  if n = 0 then sr.Shared_relation.rel
  else begin
    let items = Array.map (Gc_protocol.nonzero_inputs ctx) sr.Shared_relation.annots in
    let build b (words : Circuits.word array) =
      [ [| Gc_protocol.nonzero_test b words.(0) words.(1) |] ]
    in
    let nonzero =
      Array.map (fun r -> r.(0)) (Gc_protocol.eval_reveal_batch ctx ~to_:Party.Alice ~items ~build)
    in
    (* tuple-or-dummy transfer: for Bob-owned relations the tuple data
       crosses the channel (inside the circuit in the paper; accounted
       here as the equivalent masked transfer) *)
    if Party.equal sr.Shared_relation.owner Party.Bob then begin
      Context.send ctx ~from:Party.Bob
        ~bits:(n * Schema.arity (Shared_relation.schema sr) * 64);
      Context.bump_rounds ctx 1
    end;
    let keep =
      Array.mapi
        (fun i t -> Int64.equal nonzero.(i) 1L && not (Tuple.is_dummy t))
        sr.Shared_relation.rel.Relation.tuples
    in
    let tuples =
      Array.mapi
        (fun i t -> if keep.(i) then t else Tuple.dummy (Shared_relation.schema sr))
        sr.Shared_relation.rel.Relation.tuples
    in
    Relation.create ~name:sr.Shared_relation.rel.Relation.name
      ~schema:(Shared_relation.schema sr) ~tuples
      ~annots:(Array.map (fun k -> if k then Semiring.one semiring else Semiring.zero) keep)
  end

(* The element-wise product of equal-length share columns, one level of
   a balanced tree per batch: adjacent columns multiply pairwise in one
   [Secret_share.mul_batch], and an odd column out passes up unchanged. *)
let rec product_tree ctx = function
  | [] -> invalid_arg "Oblivious_join.product_tree: no columns"
  | [ only ] -> only
  | cols ->
      let rec pair = function
        | x :: y :: rest ->
            let ps, odd = pair rest in
            ((x, y) :: ps, odd)
        | odd -> ([], odd)
      in
      let pairs, odd = pair cols in
      let n = Array.length (List.hd cols) in
      let products =
        Secret_share.mul_batch ctx
          (Array.concat (List.map fst pairs))
          (Array.concat (List.map snd pairs))
      in
      product_tree ctx (List.mapi (fun p _ -> Array.sub products (p * n) n) pairs @ odd)

(** The element-wise product of equal-length annotation columns: for the
    ring, a balanced tree of OT-based product batches (k columns take
    ⌈log₂ k⌉ batches); otherwise one batched circuit chaining
    [Semiring.circuit_mul]. *)
let product ctx semiring = function
  | [] -> invalid_arg "Oblivious_join.product: no columns"
  | [ only ] -> only
  | cols when semiring.Semiring.kind = Semiring.Ring -> product_tree ctx cols
  | cols ->
      let items =
        Array.init
          (Array.length (List.hd cols))
          (fun i -> List.map (fun col -> Gc_protocol.Shared col.(i)) cols)
      in
      let build b (words : Circuits.word array) =
        [ Array.fold_left (Semiring.circuit_mul semiring b) words.(0)
            (Array.sub words 1 (Array.length words - 1)) ]
      in
      Array.map (fun s -> s.(0)) (Gc_protocol.eval_to_shares_batch ctx ~items ~build)

(** Run the oblivious join over the remaining relations. [reveal_out]
    controls whether |J*| (after any padding the caller applied) goes to
    Bob. *)
let run ctx semiring (relations : Shared_relation.t list) : t =
  if relations = [] then invalid_arg "Oblivious_join.run: no relations";
  Context.with_span ctx "oblivious-join" @@ fun () ->
  (* Step 1: reveal R*_F to Alice (dummies in place of dangling tuples). *)
  let views =
    List.map
      (fun (sr : Shared_relation.t) ->
        Context.with_span ctx ("reveal:" ^ sr.Shared_relation.rel.Relation.name) @@ fun () ->
        (sr, reveal_to_alice ctx semiring sr))
      relations
  in
  (* Step 2: local plaintext join of the views; each view's annotations
     carry its keep-mask, so suppressed (zero) tuples never join. *)
  let joined =
    match views with
    (* unreachable: [relations = []] was rejected with invalid_arg above,
       and List.map preserves length *)
    | [] -> assert false
    | (_, first) :: rest ->
        List.fold_left (fun acc (_, view) -> Operators.join semiring acc view) first rest
  in
  (* drop suppressed placeholders (a fold over a single view keeps them) *)
  let joined =
    Relation.of_list ~name:joined.Relation.name ~schema:joined.Relation.schema
      (Array.to_list joined.Relation.tuples
      |> List.mapi (fun i t -> (t, joined.Relation.annots.(i)))
      |> List.filter (fun (t, a) -> (not (Tuple.is_dummy t)) && not (Semiring.is_zero a))
      |> List.map (fun (t, _) -> (t, Semiring.one semiring)))
  in
  let out = Relation.cardinality joined in
  Context.send ctx ~from:Party.Alice ~bits:64;
  Context.bump_rounds ctx 1;
  if out = 0 then { joined; annots = [||] }
  else begin
    (* Step 3: per relation, align annotation shares with J* through an
       OEP programmed by Alice.

       A relation may hold several identical tuples (each with its own
       annotation), and the local join then emits one J* copy per
       combination of duplicates. Alice must pair each copy with a
       *distinct* combination of source indices — mapping every copy to
       the same duplicate would multiply one annotation prod(d_F) times
       instead of summing over the cross product. She enumerates the
       combinations in mixed radix over the group of identical J* rows:
       copy r of a group gets, from relation F, duplicate
       (r / stride_F) mod d_F where stride_F is the product of the
       earlier relations' duplicate counts. The sum of annotation
       products over the group is then exactly prod_F (sum of F's
       duplicate annotations), as in the plaintext join. *)
    let views_arr = Array.of_list views in
    let nrel = Array.length views_arr in
    let indices_of =
      Array.map
        (fun ((sr : Shared_relation.t), (view : Relation.t)) ->
          let schema = Shared_relation.schema sr in
          let tbl : (string, int list) Hashtbl.t = Hashtbl.create 64 in
          (* walk backwards so each key's duplicates come out in index order *)
          for i = Array.length view.Relation.tuples - 1 downto 0 do
            let t = view.Relation.tuples.(i) in
            (* only kept tuples (keep-mask = view annotation) are
               addressable; suppressed empty-schema rows look real *)
            if (not (Tuple.is_dummy t)) && not (Semiring.is_zero view.Relation.annots.(i))
            then begin
              let key = Tuple.repr (Tuple.project schema schema t) in
              let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
              Hashtbl.replace tbl key (i :: prev)
            end
          done;
          Hashtbl.to_seq tbl
          |> Seq.map (fun (key, is) -> (key, Array.of_list is))
          |> Hashtbl.of_seq)
        views_arr
    in
    (* group the (identical) copies of each J* row, preserving order *)
    let groups : (string, int list) Hashtbl.t = Hashtbl.create 64 in
    for j = out - 1 downto 0 do
      let key = Tuple.repr joined.Relation.tuples.(j) in
      let prev = Option.value ~default:[] (Hashtbl.find_opt groups key) in
      Hashtbl.replace groups key (j :: prev)
    done;
    let xis = Array.init nrel (fun _ -> Array.make out 0) in
    Hashtbl.iter
      (fun _ rows ->
        let jt = joined.Relation.tuples.(List.hd rows) in
        let dups =
          Array.init nrel (fun f ->
              let (sr : Shared_relation.t), _ = views_arr.(f) in
              let schema = Shared_relation.schema sr in
              let key = Tuple.repr (Tuple.project joined.Relation.schema schema jt) in
              match Hashtbl.find_opt indices_of.(f) key with
              | Some ds -> ds
              | None -> invalid_arg "Oblivious_join: J* tuple has no source")
        in
        let expected = Array.fold_left (fun p ds -> p * Array.length ds) 1 dups in
        if List.length rows <> expected then
          invalid_arg "Oblivious_join: J* duplicate group does not match its sources";
        List.iteri
          (fun r j ->
            let stride = ref 1 in
            for f = 0 to nrel - 1 do
              let d = Array.length dups.(f) in
              xis.(f).(j) <- dups.(f).((r / !stride) mod d);
              stride := !stride * d
            done)
          rows)
      groups;
    let aligned =
      List.init nrel (fun f ->
          let (sr : Shared_relation.t), _ = views_arr.(f) in
          Oep.apply_shared ctx ~holder:Party.Alice ~xi:xis.(f)
            ~m:(Shared_relation.cardinality sr) sr.Shared_relation.annots)
    in
    (* each J* tuple's annotation: the product of its per-relation ones *)
    { joined; annots = product ctx semiring aligned }
  end
