(** TPC-H queries beyond the paper's evaluation set, demonstrating the
    library's coverage of further query shapes:

    - Q1: a single-relation aggregate (the degenerate join tree);
    - Q4: an EXISTS subquery, handled like Q18's IN-subquery — the
      lineitem owner computes the qualifying order keys locally and pads
      them to |lineitem|;
    - Q14: promo revenue share, a ratio of two sums over the same join
      (query composition, §7), like Q8 but over lineitem x part.

    All three reuse the shaping conventions of {!Queries}: private
    selections become dummies, revenue = extendedprice x (100 - discount),
    and the worst-case ownership partition. *)

open Secyan_crypto
open Secyan_relational
open Secyan_obs

let semiring = Queries.semiring
let ring_bits = Queries.ring_bits

(* --- Q1: pricing summary (single relation) -------------------------- *)

(** Q1 (restricted to one aggregate): sum of revenue per
    (l_returnflag) for lineitems shipped before 1998-09-02. A
    single-relation query: the join tree is one node, the protocol is
    reduce + reveal. *)
let q1 (d : Datagen.dataset) : Secyan.Query.t =
  let lineitem =
    Queries.shape d.Datagen.lineitem ~name:"lineitem" ~attrs:[ "l_returnflag" ]
      ~keep:(Queries.date_lt "l_shipdate" (Value.date ~year:1998 ~month:9 ~day:2))
      ~annot:Queries.revenue ()
  in
  Secyan.Query.prepare ~name:"Q1" ~semiring ~output:[ "l_returnflag" ]
    ~inputs:[ ("lineitem", { Secyan.Query.relation = lineitem; owner = Party.Bob }) ]

(* --- Q4: order priority checking (EXISTS subquery) ------------------- *)

(** Q4: count orders placed in the quarter from 1993-07-01 that have at
    least one lineitem received after its commit date, per order
    priority. The EXISTS subquery becomes a padded distinct-orderkey
    relation computed locally by lineitem's owner (cf. Q18). *)
let q4 (d : Datagen.dataset) : Secyan.Query.t =
  let quarter_start = Value.date ~year:1993 ~month:7 ~day:1 in
  let quarter_end = Value.date ~year:1993 ~month:10 ~day:1 in
  (* our generator has no commit/receipt dates; late delivery is modelled
     as shipdate more than 60 days after the order date, which only the
     lineitem owner needs to evaluate *)
  let orders =
    Queries.shape d.Datagen.orders ~name:"orders"
      ~attrs:[ "orderkey"; "o_shippriority" ]
      ~keep:(fun s t ->
        Queries.date_ge "o_orderdate" quarter_start s t
        && Queries.date_lt "o_orderdate" quarter_end s t)
      ~annot:Queries.const_one ()
  in
  let li = d.Datagen.lineitem in
  let order_dates = Hashtbl.create 1024 in
  Array.iter
    (fun t ->
      match
        ( Tuple.get d.Datagen.orders.Relation.schema "orderkey" t,
          Tuple.get d.Datagen.orders.Relation.schema "o_orderdate" t )
      with
      | Value.Int k, Value.Date od -> Hashtbl.replace order_dates k od
      | _ -> ())
    d.Datagen.orders.Relation.tuples;
  let qualifying = Hashtbl.create 1024 in
  Array.iter
    (fun t ->
      match
        ( Tuple.get li.Relation.schema "orderkey" t,
          Tuple.get li.Relation.schema "l_shipdate" t )
      with
      | Value.Int k, Value.Date ship -> (
          match Hashtbl.find_opt order_dates k with
          | Some od when ship - od > 60 -> Hashtbl.replace qualifying k ()
          | _ -> ())
      | _ -> ())
    li.Relation.tuples;
  let sub_rows =
    Hashtbl.fold (fun k () acc -> k :: acc) qualifying []
    |> List.sort compare
    |> List.map (fun k -> ([| Value.Int k |], 1L))
  in
  let sub =
    Relation.pad_to
      ~size:(Relation.cardinality li)
      (Relation.of_list ~name:"late" ~schema:(Schema.of_list [ "orderkey" ]) sub_rows)
  in
  Secyan.Query.prepare_with_tree ~name:"Q4" ~semiring ~output:[ "o_shippriority" ]
    ~inputs:
      [
        ("orders", { Secyan.Query.relation = orders; owner = Party.Alice });
        ("late", { Secyan.Query.relation = sub; owner = Party.Bob });
      ]
    ~root:"orders" ~parents:[ ("late", "orders") ]

(* --- Q14: promo revenue (composition) -------------------------------- *)

(* inner query shared by both aggregates: lineitem x part shipped in
   September 1995 *)
let q14_inner (d : Datagen.dataset) ~promo_only : Secyan.Query.t =
  let month_start = Value.date ~year:1995 ~month:9 ~day:1 in
  let month_end = Value.date ~year:1995 ~month:10 ~day:1 in
  let lineitem =
    Queries.shape d.Datagen.lineitem ~name:"lineitem" ~attrs:[ "partkey" ]
      ~keep:(fun s t ->
        Queries.date_ge "l_shipdate" month_start s t
        && Queries.date_lt "l_shipdate" month_end s t)
      ~annot:Queries.revenue ()
  in
  let part =
    Queries.shape d.Datagen.part ~name:"part" ~attrs:[ "partkey" ]
      ~keep:Queries.always
      ~annot:(fun s t ->
        if promo_only then
          let ty = Queries.gets s "p_type" t in
          if String.length ty >= 5 && String.sub ty 0 5 = "PROMO" then 1L else 0L
        else 1L)
      ()
  in
  Secyan.Query.prepare_with_tree
    ~name:(if promo_only then "Q14-promo" else "Q14-all")
    ~semiring ~output:[]
    ~inputs:
      [
        ("lineitem", { Secyan.Query.relation = lineitem; owner = Party.Alice });
        ("part", { Secyan.Query.relation = part; owner = Party.Bob });
      ]
    ~root:"lineitem" ~parents:[ ("part", "lineitem") ]

type q14_result = {
  promo_share_millis : int64;  (** promo revenue / total revenue x 1000 *)
  tally : Comm.tally;
  seconds : float;
}

(** Composed Q14: two scalar aggregates with shared outputs, one division
    circuit revealing only the ratio. *)
let run_q14 ctx (d : Datagen.dataset) : q14_result =
  let share, seconds, tally =
    Trace.measure ctx @@ fun () ->
    let scalar_share q =
      let r = Secyan.Secure_yannakakis.run_shared ctx q in
      match r.Secyan.Secure_yannakakis.annots with
      | [| s |] -> s
      | [||] -> Secret_share.zero
      | _ -> invalid_arg "q14: scalar aggregate expected"
    in
    let promo = scalar_share (q14_inner d ~promo_only:true) in
    let total = scalar_share (q14_inner d ~promo_only:false) in
    Secyan.Composition.reveal_ratio ctx ~to_:Party.Alice ~scale:1000L ~num:promo ~den:total ()
  in
  { promo_share_millis = share; tally; seconds }

(** Plaintext reference for Q14. *)
let q14_plaintext (d : Datagen.dataset) : int64 =
  let total_of q =
    match Relation.nonzero (Secyan.Query.plaintext q) with
    | [ (_, v) ] -> v
    | [] -> 0L
    | _ -> invalid_arg "q14_plaintext: scalar expected"
  in
  let promo = total_of (q14_inner d ~promo_only:true) in
  let total = total_of (q14_inner d ~promo_only:false) in
  if Int64.equal total 0L then 0L else Int64.div (Int64.mul promo 1000L) total

let _ = ring_bits
