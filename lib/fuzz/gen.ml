(** Seeded generator of random free-connex join-aggregate instances.

    Every instance is derived deterministically from a [(seed, case)]
    pair: a random acyclic join tree (parent links into earlier nodes),
    one shared join attribute per edge, optional per-node own
    attributes, a random semiring, and an output set drawn from a
    root-connected subtree — a construction that always admits a rooted
    join tree witnessing free-connexity, so [Query.prepare] cannot fail
    structurally. Databases carry skewed key domains, duplicate keys,
    empty relations, all-dummy padded relations, and boundary
    annotation values. *)

open Secyan_crypto
open Secyan_relational
module Rng = Secyan_net.Rng

type instance = { seed : int64; case : int; query : Secyan.Query.t }

(* One stream per (seed, case): the golden-ratio increment keeps nearby
   cases decorrelated under splitmix64. *)
let case_rng seed case =
  Rng.create (Int64.add seed (Int64.mul (Int64.of_int (case + 1)) 0x9E3779B97F4A7C15L))

let node_name i = Printf.sprintf "R%d" i
let join_attr i = Printf.sprintf "j%d" i
let own_attr i = Printf.sprintf "x%d" i

(* Attribute value kinds for own attributes. *)
type attr_kind = K_int | K_str | K_date

let random_value rng = function
  | K_int -> Value.Int (Rng.below rng 6)
  | K_str -> Value.Str (Printf.sprintf "s%d" (Rng.below rng 5))
  | K_date -> Value.Date (8000 + Rng.below rng 100)

(* Boundary annotations sit at the signed/unsigned edges of the ring's
   width l: 2^(l-1) - 1, 2^(l-1) (most negative signed), 2^l - 1 (-1
   signed). *)
let ring_boundary (semiring : Semiring.t) k =
  let half = Int64.shift_left 1L (Semiring.bits semiring - 1) in
  match k with
  | 0 -> Int64.sub half 1L
  | 1 -> half
  | _ -> Int64.sub (Zn.modulus semiring.Semiring.zn) 1L

let random_annot rng (semiring : Semiring.t) =
  match semiring.Semiring.kind with
  | Semiring.Ring ->
      let c = Rng.below rng 8 in
      if c = 0 then 0L
      else if c = 1 then ring_boundary semiring (Rng.below rng 3)
      else Int64.of_int (1 + Rng.below rng 1000)
  | Semiring.Boolean -> if Rng.below rng 4 = 0 then 0L else 1L
  | Semiring.Tropical_min | Semiring.Tropical_max ->
      let c = Rng.below rng 8 in
      if c = 0 then 0L (* the encoded infinity: never met a join partner *)
      else if c = 1 then Semiring.of_value semiring (Int64.of_int (100_000 + Rng.below rng 1000))
      else Semiring.of_value semiring (Int64.of_int (Rng.below rng 1000))

(* The Ring width spans the figure queries' 52 bits; the tropical
   semirings stay at 32 bits. *)
let ring_widths = [| 16; 32; 52 |]

let random_semiring rng ~width_rng =
  match Rng.below rng 4 with
  | 0 ->
      let bits = ring_widths.(Rng.below width_rng (Array.length ring_widths)) in
      Semiring.ring ~bits
  | 1 -> Semiring.boolean
  | 2 -> Semiring.tropical_min ~bits:32
  | _ -> Semiring.tropical_max ~bits:32

let generate ~seed ~case =
  let rng = case_rng seed case in
  let n = 2 + Rng.below rng 4 in
  (* random rooted tree: each node links to an earlier one *)
  let parent = Array.init n (fun i -> if i = 0 then -1 else Rng.below rng i) in
  let has_own = Array.init n (fun _ -> Rng.below rng 3 < 2) in
  let schema_of i =
    let edges = ref [] in
    for k = n - 1 downto 1 do
      if k = i || parent.(k) = i then edges := join_attr k :: !edges
    done;
    let own = if has_own.(i) then [ own_attr i ] else [] in
    !edges @ own
  in
  let schemas = Array.init n schema_of in
  (* the Ring width comes from a SEPARATE stream, like the order clause
     below, so pinned seeds keep their join structure and content *)
  let semiring =
    random_semiring rng ~width_rng:(case_rng (Int64.logxor seed 0x5E1D7E5E1D7E5E1DL) case)
  in
  (* output: attributes of a random root-connected subtree (always
     free-connex for some rooted tree of this acyclic hypergraph), or a
     scalar aggregate *)
  let in_subtree = Array.make n false in
  in_subtree.(0) <- true;
  for i = 1 to n - 1 do
    if in_subtree.(parent.(i)) && Rng.below rng 3 < 2 then in_subtree.(i) <- true
  done;
  let subtree_output =
    List.sort_uniq compare
      (List.concat (List.filteri (fun i _ -> in_subtree.(i)) (Array.to_list schemas)))
  in
  let scalar = Rng.below rng 4 = 0 in
  let trimmed =
    if scalar then []
    else if Rng.below rng 2 = 0 then subtree_output
    else
      (* drop some own attributes; may break free-connexity, in which
         case prepare rejects it and we fall back below *)
      List.filter
        (fun a -> a.[0] = 'j' || Rng.below rng 3 > 0)
        subtree_output
  in
  (* per-attribute join-key domains: small (1-4 values) so duplicates
     and skew are common; both sides of an edge share the domain *)
  let key_domain = Hashtbl.create 8 in
  for i = 1 to n - 1 do
    Hashtbl.replace key_domain (join_attr i) (1 + Rng.below rng 4)
  done;
  let own_kind = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    if has_own.(i) then
      Hashtbl.replace own_kind (own_attr i)
        (match Rng.below rng 3 with 0 -> K_int | 1 -> K_str | _ -> K_date)
  done;
  let relation_of i =
    let schema = Schema.of_list schemas.(i) in
    let size = if Rng.below rng 10 = 0 then 0 else 1 + Rng.below rng 8 in
    let tuple () =
      Array.of_list
        (List.map
           (fun a ->
             if a.[0] = 'j' then Value.Int (Rng.below rng (Hashtbl.find key_domain a))
             else random_value rng (Hashtbl.find own_kind a))
           schemas.(i))
    in
    let rows = List.init size (fun _ -> (tuple (), random_annot rng semiring)) in
    let rel = Relation.of_list ~name:(node_name i) ~schema rows in
    (* sometimes pad with zero-annotated dummies; an empty relation that
       gets padded becomes an all-dummy input *)
    if Rng.below rng 4 = 0 then Relation.pad_to ~size:(size + 1 + Rng.below rng 3) rel
    else rel
  in
  let inputs =
    List.init n (fun i ->
        let owner = if Rng.below rng 2 = 0 then Party.Alice else Party.Bob in
        (node_name i, { Secyan.Query.relation = relation_of i; owner }))
  in
  let name = Printf.sprintf "fuzz-s%Ld-c%d" seed case in
  let prepare output = Secyan.Query.prepare ~name ~semiring ~output ~inputs in
  let query =
    match prepare trimmed with
    | q -> q
    | exception Invalid_argument _ -> prepare subtree_output
  in
  (* ORDER BY / LIMIT drawn from a SEPARATE stream: pinned regression
     seeds keep identical join structure and database content whether or
     not the order dimension evolves. Half the instances stay unordered;
     the rest mix aggregate/attribute keys, both directions, and limits
     covering k = 0, k = 1, k around the group count, and k far above
     it. *)
  let order_rng = case_rng (Int64.logxor seed 0x0DDB1A5E0DDB1A5EL) case in
  let query =
    if Rng.below order_rng 2 = 0 then query
    else begin
      let out_attrs = Schema.to_list query.Secyan.Query.output in
      let key () =
        let dir = if Rng.below order_rng 2 = 0 then Secyan.Query.Asc else Secyan.Query.Desc in
        if out_attrs = [] || Rng.below order_rng 2 = 0 then (Secyan.Query.By_agg, dir)
        else
          ( Secyan.Query.By_attr (List.nth out_attrs (Rng.below order_rng (List.length out_attrs))),
            dir )
      in
      let order_by =
        let ks = List.init (1 + Rng.below order_rng 2) (fun _ -> key ()) in
        (* duplicate sort keys are legal but pointless; drop repeats *)
        List.fold_left (fun acc k -> if List.mem_assoc (fst k) acc then acc else acc @ [ k ]) [] ks
      in
      let limit =
        match Rng.below order_rng 6 with
        | 0 -> None
        | 1 -> Some 0
        | 2 -> Some 1
        | 3 -> Some 1000 (* far above any group count: no truncation *)
        | _ -> Some (Rng.below order_rng 8)
      in
      Secyan.Query.with_order ~order_by ?limit query
    end
  in
  { seed; case; query }

let with_masks (t : instance) (masks : (string * bool array) list) =
  let apply (label, (input : Secyan.Query.input)) =
    match List.assoc_opt label masks with
    | None -> (label, input)
    | Some keep ->
        let r = input.Secyan.Query.relation in
        if Array.length keep <> Array.length r.Relation.tuples then
          invalid_arg
            (Printf.sprintf "Gen.with_masks: mask for %s has %d entries, relation has %d"
               label (Array.length keep) (Array.length r.Relation.tuples));
        let rows = ref [] in
        for i = Array.length keep - 1 downto 0 do
          if keep.(i) then rows := (r.Relation.tuples.(i), r.Relation.annots.(i)) :: !rows
        done;
        let relation =
          Relation.of_list ~name:r.Relation.name ~schema:r.Relation.schema !rows
        in
        (label, { input with Secyan.Query.relation })
  in
  let q = t.query in
  { t with query = { q with Secyan.Query.inputs = List.map apply q.Secyan.Query.inputs } }
