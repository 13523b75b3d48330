(** Deterministic TPC-H data generator (DESIGN.md §2.6): the schema, key
    relationships, and column distributions the evaluation queries touch,
    with row counts proportional to the official TPC-H ratios. Money is
    integer cents; join keys carry shared attribute names. *)

open Secyan_relational

type dataset = {
  sf : float;
  customer : Relation.t;  (** custkey, c_name, c_mktsegment, c_nationkey *)
  orders : Relation.t;    (** orderkey, custkey, o_orderdate, o_shippriority, o_totalprice *)
  lineitem : Relation.t;
      (** orderkey, partkey, suppkey, l_quantity, l_extendedprice,
          l_discount, l_shipdate, l_returnflag *)
  part : Relation.t;      (** partkey, p_type, p_name *)
  supplier : Relation.t;  (** suppkey, s_nationkey *)
  partsupp : Relation.t;  (** partkey, suppkey, ps_supplycost *)
  nation : Relation.t;    (** n_nationkey, n_name — public knowledge *)
}

val nations : string array
val n_nations : int

val generate : sf:float -> seed:int64 -> dataset

(** Total tuple count across base tables (the paper's IN). *)
val total_rows : dataset -> int

(** Named presets standing in for the paper's 1/3/10/33/100 MB datasets
    (same geometric spacing at ~1/25 the absolute size). *)
val presets : (string * float) list

(** @raise Invalid_argument for unknown preset names. *)
val preset_sf : string -> float
