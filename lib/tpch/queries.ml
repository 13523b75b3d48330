(** The five TPC-H queries of the paper's evaluation (§8.1), expressed as
    free-connex join-aggregate queries over annotated relations.

    Following the paper: every selection has *private* selectivity, so
    non-matching tuples are replaced by dummies rather than dropped; the
    nation relation is public knowledge and is rewritten away (Q8, Q9,
    Q10); money amounts are integer cents and revenue annotations are
    scaled by 100 — revenue = l_extendedprice * (100 - l_discount) — so
    reported sums must be divided by 100 at the end.

    Relations are partitioned between the parties in the worst possible
    way (alternating along the join tree), exactly as in §8.1. *)

open Secyan_crypto
open Secyan_relational
open Secyan_obs

(** Annotation ring for all TPC-H queries: 52 bits leaves headroom for
    cent-scale revenues summed over millions of rows. *)
let ring_bits = 52

let semiring = Semiring.ring ~bits:ring_bits

let context ?(gc_backend = Context.Sim) ?(domains = 1) ?transport ~seed () =
  Context.create ~bits:ring_bits ~gc_backend ~domains ?transport ~seed ()

(* --- relation shaping helpers ------------------------------------- *)

let geti schema attr t = match Tuple.get schema attr t with
  | Value.Int i -> i
  | _ -> invalid_arg ("expected int attribute " ^ attr)

let gets schema attr t = match Tuple.get schema attr t with
  | Value.Str s -> s
  | _ -> invalid_arg ("expected string attribute " ^ attr)

(** Project [rel] onto [attrs] (with optional virtual columns), replacing
    tuples failing [keep] by dummies and annotating the rest with
    [annot]. Duplicate projections are locally pre-aggregated (sound —
    the semiring's times distributes over plus, so it is what the reduce
    phase would compute first) and the relation is padded back, keeping
    the cardinality public and the selectivity private (§7 option 2). *)
let shape (rel : Relation.t) ~name ~attrs ?(virtuals = []) ~keep ~annot () : Relation.t =
  let schema = rel.Relation.schema in
  let out_schema = Schema.of_list (attrs @ List.map fst virtuals) in
  let totals = Hashtbl.create (max 16 (Relation.cardinality rel)) in
  let order = ref [] in
  Array.iter
    (fun t ->
      if keep schema t then begin
        let values =
          List.map (fun a -> Tuple.get schema a t) attrs
          @ List.map (fun (_, f) -> f schema t) virtuals
        in
        let tuple = Array.of_list values in
        let key = Tuple.repr tuple in
        (match Hashtbl.find_opt totals key with
        | None ->
            order := (key, tuple) :: !order;
            Hashtbl.add totals key (annot schema t)
        | Some acc -> Hashtbl.replace totals key (Semiring.add semiring acc (annot schema t)))
      end)
    rel.Relation.tuples;
  let rows =
    List.rev_map (fun (key, tuple) -> (tuple, Hashtbl.find totals key)) !order
  in
  Relation.pad_to
    ~size:(Relation.cardinality rel)
    (Relation.of_list ~name ~schema:out_schema rows)

let always _ _ = true
let const_one _ _ = 1L

(** revenue = l_extendedprice * (100 - l_discount), cents x 100. *)
let revenue schema t =
  Int64.of_int (geti schema "l_extendedprice" t * (100 - geti schema "l_discount" t))

let date_lt attr cutoff schema t = Value.compare (Tuple.get schema attr t) cutoff < 0
let date_ge attr cutoff schema t = Value.compare (Tuple.get schema attr t) cutoff >= 0

let year_virtual schema t = Value.Int (Value.year_of (Tuple.get schema "o_orderdate" t))

(* --- Query 3 ------------------------------------------------------- *)

(** Q3: revenue of AUTOMOBILE-segment orders not yet shipped as of
    1995-03-13, grouped by (orderkey, orderdate, shippriority); the
    paper's ORDER BY revenue DESC, o_orderdate LIMIT 10 runs as an
    oblivious top-k phase (DESIGN.md §17). *)
let q3 (d : Datagen.dataset) : Secyan.Query.t =
  let cutoff = Value.date ~year:1995 ~month:3 ~day:13 in
  let customer =
    shape d.Datagen.customer ~name:"customer" ~attrs:[ "custkey" ]
      ~keep:(fun s t -> String.equal (gets s "c_mktsegment" t) "AUTOMOBILE")
      ~annot:const_one ()
  in
  let orders =
    shape d.Datagen.orders ~name:"orders"
      ~attrs:[ "orderkey"; "custkey"; "o_orderdate"; "o_shippriority" ]
      ~keep:(date_lt "o_orderdate" cutoff) ~annot:const_one ()
  in
  let lineitem =
    shape d.Datagen.lineitem ~name:"lineitem" ~attrs:[ "orderkey" ]
      ~keep:(date_ge "l_shipdate" cutoff) ~annot:revenue ()
  in
  Secyan.Query.with_order
    ~order_by:
      [
        (Secyan.Query.By_agg, Secyan.Query.Desc);
        (Secyan.Query.By_attr "o_orderdate", Secyan.Query.Asc);
      ]
    ~limit:10
    (Secyan.Query.prepare_with_tree ~name:"Q3" ~semiring
       ~output:[ "orderkey"; "o_orderdate"; "o_shippriority" ]
       ~inputs:
         [
           ("customer", { Secyan.Query.relation = customer; owner = Party.Alice });
           ("orders", { Secyan.Query.relation = orders; owner = Party.Bob });
           ("lineitem", { Secyan.Query.relation = lineitem; owner = Party.Alice });
         ]
       ~root:"orders"
       ~parents:[ ("customer", "orders"); ("lineitem", "orders") ])

(* --- Query 10 ------------------------------------------------------ *)

(** Q10 (nation rewritten away): revenue of returned items per customer,
    orders from 1993-08-01 for three months; the paper's ORDER BY revenue
    DESC LIMIT 20 runs as an oblivious top-k phase. *)
let q10 (d : Datagen.dataset) : Secyan.Query.t =
  let lo = Value.date ~year:1993 ~month:8 ~day:1 in
  let hi = Value.date ~year:1993 ~month:11 ~day:1 in
  let customer =
    shape d.Datagen.customer ~name:"customer" ~attrs:[ "custkey"; "c_name"; "c_nationkey" ]
      ~keep:always ~annot:const_one ()
  in
  let orders =
    shape d.Datagen.orders ~name:"orders" ~attrs:[ "custkey"; "orderkey" ]
      ~keep:(fun s t ->
        date_ge "o_orderdate" lo s t && date_lt "o_orderdate" hi s t)
      ~annot:const_one ()
  in
  let lineitem =
    shape d.Datagen.lineitem ~name:"lineitem" ~attrs:[ "orderkey" ]
      ~keep:(fun s t -> String.equal (gets s "l_returnflag" t) "R")
      ~annot:revenue ()
  in
  Secyan.Query.with_order
    ~order_by:[ (Secyan.Query.By_agg, Secyan.Query.Desc) ]
    ~limit:20
    (Secyan.Query.prepare_with_tree ~name:"Q10" ~semiring
       ~output:[ "custkey"; "c_name"; "c_nationkey" ]
       ~inputs:
         [
           ("customer", { Secyan.Query.relation = customer; owner = Party.Alice });
           ("orders", { Secyan.Query.relation = orders; owner = Party.Bob });
           ("lineitem", { Secyan.Query.relation = lineitem; owner = Party.Alice });
         ]
       ~root:"customer"
       ~parents:[ ("lineitem", "orders"); ("orders", "customer") ])

(* --- Query 18 ------------------------------------------------------ *)

(** Q18: large-volume orders — the IN-subquery (orders with
    sum(l_quantity) > threshold) is evaluated locally by lineitem's owner
    and padded to |lineitem| to hide its result size; the paper's ORDER BY
    o_totalprice DESC, o_orderdate LIMIT 100 runs as an oblivious top-k
    phase. *)
let q18 ?(threshold = 300) (d : Datagen.dataset) : Secyan.Query.t =
  let customer =
    shape d.Datagen.customer ~name:"customer" ~attrs:[ "custkey"; "c_name" ] ~keep:always
      ~annot:const_one ()
  in
  let orders =
    shape d.Datagen.orders ~name:"orders"
      ~attrs:[ "orderkey"; "custkey"; "o_orderdate"; "o_totalprice" ]
      ~keep:always ~annot:const_one ()
  in
  let lineitem =
    shape d.Datagen.lineitem ~name:"lineitem" ~attrs:[ "orderkey" ] ~keep:always
      ~annot:(fun s t -> Int64.of_int (geti s "l_quantity" t))
      ()
  in
  (* the subquery, computed locally by lineitem's owner *)
  let li = d.Datagen.lineitem in
  let totals = Hashtbl.create 1024 in
  Array.iter
    (fun t ->
      let k = geti li.Relation.schema "orderkey" t in
      let q = geti li.Relation.schema "l_quantity" t in
      Hashtbl.replace totals k (q + Option.value ~default:0 (Hashtbl.find_opt totals k)))
    li.Relation.tuples;
  let qualifying =
    Hashtbl.fold (fun k q acc -> if q > threshold then k :: acc else acc) totals []
    |> List.sort compare
    |> List.map (fun k -> ([| Value.Int k |], 1L))
  in
  let sub =
    Relation.pad_to
      ~size:(Relation.cardinality li)
      (Relation.of_list ~name:"sub" ~schema:(Schema.of_list [ "orderkey" ]) qualifying)
  in
  Secyan.Query.with_order
    ~order_by:
      [
        (Secyan.Query.By_attr "o_totalprice", Secyan.Query.Desc);
        (Secyan.Query.By_attr "o_orderdate", Secyan.Query.Asc);
      ]
    ~limit:100
    (Secyan.Query.prepare_with_tree ~name:"Q18" ~semiring
       ~output:[ "c_name"; "custkey"; "orderkey"; "o_orderdate"; "o_totalprice" ]
       ~inputs:
         [
           ("customer", { Secyan.Query.relation = customer; owner = Party.Bob });
           ("orders", { Secyan.Query.relation = orders; owner = Party.Alice });
           ("lineitem", { Secyan.Query.relation = lineitem; owner = Party.Bob });
           ("sub", { Secyan.Query.relation = sub; owner = Party.Bob });
         ]
       ~root:"orders"
       ~parents:
         [ ("customer", "orders"); ("lineitem", "orders"); ("sub", "orders") ])

(* --- Query 8 (composed from two join-aggregate queries, §7) --------- *)

let q8_nation = 2 (* BRAZIL: the paper's s_nationkey = 8 under its numbering *)
let q8_customer_nations = [ 2; 17; 1; 24; 3 ] (* the AMERICA region under ours *)

(* One of the two inner queries: numerator restricts supplier annotations
   to Ind(s_nationkey = q8_nation), denominator uses 1. *)
let q8_inner (d : Datagen.dataset) ~numerator : Secyan.Query.t =
  let lo = Value.date ~year:1995 ~month:1 ~day:1 in
  let hi = Value.date ~year:1997 ~month:1 ~day:1 in
  let part =
    shape d.Datagen.part ~name:"part" ~attrs:[ "partkey" ]
      ~keep:(fun s t -> String.equal (gets s "p_type" t) "SMALL PLATED COPPER")
      ~annot:const_one ()
  in
  let supplier =
    shape d.Datagen.supplier ~name:"supplier" ~attrs:[ "suppkey" ] ~keep:always
      ~annot:(fun s t ->
        if numerator then if geti s "s_nationkey" t = q8_nation then 1L else 0L else 1L)
      ()
  in
  let lineitem =
    shape d.Datagen.lineitem ~name:"lineitem" ~attrs:[ "partkey"; "suppkey"; "orderkey" ]
      ~keep:always ~annot:revenue ()
  in
  let orders =
    shape d.Datagen.orders ~name:"orders" ~attrs:[ "orderkey"; "custkey" ]
      ~virtuals:[ ("o_year", year_virtual) ]
      ~keep:(fun s t -> date_ge "o_orderdate" lo s t && date_lt "o_orderdate" hi s t)
      ~annot:const_one ()
  in
  let customer =
    shape d.Datagen.customer ~name:"customer" ~attrs:[ "custkey" ]
      ~keep:(fun s t -> List.mem (geti s "c_nationkey" t) q8_customer_nations)
      ~annot:const_one ()
  in
  Secyan.Query.prepare_with_tree
    ~name:(if numerator then "Q8-num" else "Q8-den")
    ~semiring ~output:[ "o_year" ]
    ~inputs:
      [
        ("part", { Secyan.Query.relation = part; owner = Party.Alice });
        ("supplier", { Secyan.Query.relation = supplier; owner = Party.Bob });
        ("lineitem", { Secyan.Query.relation = lineitem; owner = Party.Alice });
        ("orders", { Secyan.Query.relation = orders; owner = Party.Bob });
        ("customer", { Secyan.Query.relation = customer; owner = Party.Alice });
      ]
    ~root:"orders"
    ~parents:
      [
        ("part", "lineitem"); ("supplier", "lineitem"); ("lineitem", "orders");
        ("customer", "orders");
      ]

type q8_result = {
  shares_per_year : (int * int64) list;  (** (year, mkt_share x 1000) *)
  tally : Comm.tally;
  seconds : float;
}

(* Index the shared annotations of a protocol result by their single
   output attribute (an int). *)
let index_by_int_key (r : Secyan.Secure_yannakakis.result) =
  let schema = r.Secyan.Secure_yannakakis.joined.Relation.schema in
  Array.to_list r.Secyan.Secure_yannakakis.joined.Relation.tuples
  |> List.mapi (fun i t ->
         match Tuple.get schema (Schema.to_list schema |> List.hd) t with
         | Value.Int k -> (k, r.Secyan.Secure_yannakakis.annots.(i))
         | _ -> invalid_arg "expected int output attribute")

(** Full composed Q8: two secure Yannakakis runs producing shared per-year
    sums, then one garbled division circuit per year revealing
    sum(brazil volume) * 1000 / sum(volume) to Alice. *)
let run_q8 ctx (d : Datagen.dataset) : q8_result =
  let shares_per_year, seconds, tally =
    Trace.measure ctx @@ fun () ->
    let num = Secyan.Secure_yannakakis.run_shared ctx (q8_inner d ~numerator:true) in
    let den = Secyan.Secure_yannakakis.run_shared ctx (q8_inner d ~numerator:false) in
    let num_by_year = index_by_int_key num in
    let den_by_year = index_by_int_key den in
    List.map
      (fun (year, den_share) ->
        let num = Option.value ~default:Secret_share.zero (List.assoc_opt year num_by_year) in
        ( year,
          Secyan.Composition.reveal_ratio ctx ~to_:Party.Alice ~scale:1000L ~num ~den:den_share
            () ))
      (List.sort compare den_by_year)
  in
  { shares_per_year; tally; seconds }

(** Plaintext reference for Q8. *)
let q8_plaintext (d : Datagen.dataset) : (int * int64) list =
  let result q =
    let r = Secyan.Query.plaintext q in
    Relation.nonzero r
    |> List.map (fun (t, a) ->
           match t.(0) with
           | Value.Int y -> (y, a)
           | v ->
               invalid_arg
                 (Printf.sprintf "q8_plaintext: year column holds %s, expected an int"
                    (Value.repr v)))
  in
  let nums = result (q8_inner d ~numerator:true) in
  let dens = result (q8_inner d ~numerator:false) in
  List.filter_map
    (fun (year, den) ->
      if Int64.equal den 0L then None
      else
        let num = Option.value ~default:0L (List.assoc_opt year nums) in
        Some (year, Int64.div (Int64.mul num 1000L) den))
    (List.sort compare dens)

(* --- Query 9 (25-way decomposition + two aggregates, §8.1) ---------- *)

(* Inner query for one nation; [volume] selects the first aggregate
   (revenue) vs the second (supplycost x quantity). *)
let q9_inner (d : Datagen.dataset) ~nationkey ~volume : Secyan.Query.t =
  let part =
    shape d.Datagen.part ~name:"part" ~attrs:[ "partkey" ]
      ~keep:(fun s t ->
        let name = gets s "p_name" t in
        let green = "green" in
        let rec contains i =
          i + String.length green <= String.length name
          && (String.equal (String.sub name i (String.length green)) green
             || contains (i + 1))
        in
        contains 0)
      ~annot:const_one ()
  in
  let supplier =
    shape d.Datagen.supplier ~name:"supplier" ~attrs:[ "suppkey" ]
      ~keep:(fun s t -> geti s "s_nationkey" t = nationkey)
      ~annot:const_one ()
  in
  let lineitem =
    shape d.Datagen.lineitem ~name:"lineitem" ~attrs:[ "partkey"; "suppkey"; "orderkey" ]
      ~keep:always
      ~annot:(fun s t ->
        if volume then revenue s t else Int64.of_int (geti s "l_quantity" t))
      ()
  in
  let partsupp =
    shape d.Datagen.partsupp ~name:"partsupp" ~attrs:[ "partkey"; "suppkey" ] ~keep:always
      ~annot:(fun s t ->
        if volume then 1L else Int64.of_int (100 * geti s "ps_supplycost" t)
        (* x100 so both aggregates share the revenue scale *))
      ()
  in
  let orders =
    shape d.Datagen.orders ~name:"orders" ~attrs:[ "orderkey" ]
      ~virtuals:[ ("o_year", year_virtual) ]
      ~keep:always ~annot:const_one ()
  in
  Secyan.Query.prepare_with_tree
    ~name:(Printf.sprintf "Q9-n%d-%s" nationkey (if volume then "rev" else "cost"))
    ~semiring ~output:[ "o_year" ]
    ~inputs:
      [
        ("part", { Secyan.Query.relation = part; owner = Party.Alice });
        ("supplier", { Secyan.Query.relation = supplier; owner = Party.Bob });
        ("lineitem", { Secyan.Query.relation = lineitem; owner = Party.Alice });
        ("partsupp", { Secyan.Query.relation = partsupp; owner = Party.Bob });
        ("orders", { Secyan.Query.relation = orders; owner = Party.Bob });
      ]
    ~root:"orders"
    ~parents:
      [
        ("part", "lineitem"); ("supplier", "lineitem"); ("partsupp", "lineitem");
        ("lineitem", "orders");
      ]

type q9_result = {
  rows : (int * int * int) list;  (** (nationkey, year, profit in cents) *)
  tally : Comm.tally;
  seconds : float;
}

(** Full composed Q9: per nation, two secure runs; profits are computed by
    local share subtraction and revealed to Alice (as in §8.1). [nations]
    restricts the decomposition (default: all 25). *)
let run_q9 ?nations ctx (d : Datagen.dataset) : q9_result =
  let nations =
    match nations with Some l -> l | None -> List.init Datagen.n_nations (fun i -> i)
  in
  let rows, seconds, tally =
    Trace.measure ctx @@ fun () ->
    List.concat_map
      (fun nationkey ->
        let rev = Secyan.Secure_yannakakis.run_shared ctx (q9_inner d ~nationkey ~volume:true) in
        let cost =
          Secyan.Secure_yannakakis.run_shared ctx (q9_inner d ~nationkey ~volume:false)
        in
        let rev_by_year = index_by_int_key rev in
        let cost_by_year = index_by_int_key cost in
        let years =
          List.sort_uniq compare (List.map fst rev_by_year @ List.map fst cost_by_year)
        in
        List.map
          (fun year ->
            let get map = Option.value ~default:Secret_share.zero (List.assoc_opt year map) in
            let revealed =
              Secyan.Composition.reveal_difference ctx ~to_:Party.Alice ~pos:(get rev_by_year)
                ~neg:(get cost_by_year)
            in
            (* revenue scale is cents x 100 *)
            (nationkey, year, Semiring.to_signed_int semiring revealed / 100))
          years)
      nations
  in
  { rows; tally; seconds }

(** Plaintext reference for Q9. *)
let q9_plaintext ?nations (d : Datagen.dataset) : (int * int * int) list =
  let nations =
    match nations with Some l -> l | None -> List.init Datagen.n_nations (fun i -> i)
  in
  List.concat_map
    (fun nationkey ->
      let result q =
        Relation.nonzero (Secyan.Query.plaintext q)
        |> List.map (fun (t, a) ->
               match t.(0) with
               | Value.Int y -> (y, a)
               | v ->
                   invalid_arg
                     (Printf.sprintf
                        "q9_plaintext: year column holds %s, expected an int"
                        (Value.repr v)))
      in
      let revs = result (q9_inner d ~nationkey ~volume:true) in
      let costs = result (q9_inner d ~nationkey ~volume:false) in
      let years = List.sort_uniq compare (List.map fst revs @ List.map fst costs) in
      List.filter_map
        (fun year ->
          let get map = Option.value ~default:0L (List.assoc_opt year map) in
          let amount =
            Semiring.to_signed_int semiring
              (Semiring.add semiring (get revs)
                 (Secyan_crypto.Zn.neg semiring.Semiring.zn (get costs)))
          in
          if amount = 0 then None else Some ((nationkey, year, amount / 100)))
        years)
    nations

(* --- shared metadata ---------------------------------------------- *)

(** Effective input size in bytes: total size of the columns involved in
    the query, as plotted on the x-axis of Figures 2-6. *)
let effective_input_bytes (q : Secyan.Query.t) =
  List.fold_left
    (fun acc (_, (i : Secyan.Query.input)) ->
      acc
      + Relation.cardinality i.Secyan.Query.relation
        * (Schema.arity i.Secyan.Query.relation.Relation.schema + 1)
        * 4)
    0 q.Secyan.Query.inputs
