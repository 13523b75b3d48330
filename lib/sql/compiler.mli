(** Compile parsed SQL into secure-Yannakakis queries. Cross-table join
    structure comes from equality conditions; other conditions become
    per-table selections under the [Private] {!Secyan.Selection.policy}
    (non-matching tuples become dummies); SUM/COUNT pick the arithmetic
    ring and MIN/MAX the tropical semirings, with the aggregate expression
    factorized along the semiring's times-operator across the tables it
    references. *)

open Secyan_relational

exception Error of string

type table_input = { relation : Relation.t; owner : Secyan_crypto.Party.t }

type catalog = (string * table_input) list

(** Parse and compile in one step. [bits] sizes the annotation ring
    (default 52).

    @raise Parser.Error on a syntax error.
    @raise Error on unknown tables/columns, ambiguous references,
    unsupported shapes, or non-free-connex join structure. *)
val query : ?bits:int -> catalog -> string -> Secyan.Query.t
