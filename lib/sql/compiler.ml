(** Compile a parsed SELECT into a secure-Yannakakis {!Secyan.Query.t}.

    Semantics mapping (paper §3.1 / §7):
    - equality conditions between columns of different tables become the
      natural-join structure: joined columns are unified under one
      attribute name;
    - every other condition is a per-table selection, applied under the
      {!Secyan.Selection.Private} policy: non-matching tuples become
      dummies and the selectivity stays hidden;
    - SUM(e)/COUNT pick the (+, x) ring; MIN(e)/MAX(e) pick the
      tropical semirings; [e] must use columns of a single table, whose
      tuples it annotates — all other annotations are the times-identity;
    - each table is then projected onto its join + output columns, with
      duplicate projections locally pre-aggregated and the relation padded
      back to its original (public) cardinality.

    The join tree witnessing free-connexity is found automatically;
    cyclic or non-free-connex queries are rejected with an explanation. *)

open Secyan_relational

exception Error of string

let fail fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

type table_input = { relation : Relation.t; owner : Secyan_crypto.Party.t }

type catalog = (string * table_input) list

(* --- column resolution --------------------------------------------- *)

(* resolved column: table name + column name *)
type rcol = string * string

let resolve (catalog : catalog) (tables : string list) (c : Ast.column) : rcol =
  let has table name =
    match List.assoc_opt table catalog with
    | Some entry -> Schema.mem name entry.relation.Relation.schema
    | None -> false
  in
  match c.Ast.table with
  | Some t ->
      if not (List.mem t tables) then fail "table %s is not in FROM" t;
      if not (has t c.Ast.name) then fail "table %s has no column %s" t c.Ast.name;
      (t, c.Ast.name)
  | None -> (
      match List.filter (fun t -> has t c.Ast.name) tables with
      | [ t ] -> (t, c.Ast.name)
      | [] -> fail "unknown column %s" c.Ast.name
      | ts ->
          fail "ambiguous column %s (in %s); qualify it" c.Ast.name (String.concat ", " ts))

let rec expr_columns = function
  | Ast.Col c -> [ c ]
  | Ast.Int_lit _ | Ast.Str_lit _ | Ast.Date_lit _ -> []
  | Ast.Add (a, b) | Ast.Sub (a, b) | Ast.Mul (a, b) -> expr_columns a @ expr_columns b

(* --- scalar evaluation (for selections and annotations) ------------- *)

type lit = VInt of int | VStr of string | VDate of int

let lit_of_value = function
  | Value.Int i -> VInt i
  | Value.Str s -> VStr s
  | Value.Date d -> VDate d
  | Value.Dummy _ -> fail "dummy value in expression"

let rec eval_scalar resolve_col schema tuple (e : Ast.expr) : lit =
  let arith f a b =
    match eval_scalar resolve_col schema tuple a, eval_scalar resolve_col schema tuple b with
    | VInt x, VInt y -> VInt (f x y)
    | _ -> fail "arithmetic requires integer operands in %a" Ast.pp_expr e
  in
  match e with
  | Ast.Col c -> lit_of_value (Tuple.get schema (resolve_col c) tuple)
  | Ast.Int_lit i -> VInt i
  | Ast.Str_lit s -> VStr s
  | Ast.Date_lit d -> VDate d
  | Ast.Add (a, b) -> arith ( + ) a b
  | Ast.Sub (a, b) -> arith ( - ) a b
  | Ast.Mul (a, b) -> arith ( * ) a b

let compare_lits op a b =
  let c =
    match a, b with
    | VInt x, VInt y -> compare x y
    | VStr x, VStr y -> compare x y
    | VDate x, VDate y -> compare x y
    | VInt x, VDate y | VDate x, VInt y -> compare x y
    | VStr _, (VInt _ | VDate _) | (VInt _ | VDate _), VStr _ ->
        fail "type mismatch in comparison"
  in
  match (op : Ast.cmp) with
  | Ast.Eq -> c = 0
  | Ast.Ne -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0

let like_match s pattern =
  (* only '%sub%' patterns *)
  let sub =
    if String.length pattern >= 2
       && pattern.[0] = '%'
       && pattern.[String.length pattern - 1] = '%'
    then String.sub pattern 1 (String.length pattern - 2)
    else fail "only '%%substring%%' LIKE patterns are supported"
  in
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* --- compilation ----------------------------------------------------- *)

let compile ?(bits = 52) (catalog : catalog)
    (q : Ast.select) : Secyan.Query.t =
  let tables = q.Ast.tables in
  List.iter
    (fun t -> if not (List.mem_assoc t catalog) then fail "unknown table %s" t)
    tables;
  if List.length (List.sort_uniq compare tables) <> List.length tables then
    fail "duplicate table in FROM (self-joins need aliased catalog entries)";
  let resolve_c = resolve catalog tables in
  (* 1. group-by must match the non-aggregate select items *)
  let out_res = List.map resolve_c q.Ast.out_columns in
  let group_res = List.map resolve_c q.Ast.group_by in
  if q.Ast.group_by <> [] && List.sort compare out_res <> List.sort compare group_res then
    fail "GROUP BY must list exactly the selected non-aggregate columns";
  if q.Ast.group_by = [] && q.Ast.out_columns <> [] then
    fail "non-aggregate select columns require GROUP BY";
  (* 2. split WHERE into join equalities and per-table selections *)
  let join_pairs, selections =
    List.partition_map
      (fun cond ->
        match cond with
        | Ast.Compare (Ast.Eq, Ast.Col c1, Ast.Col c2) ->
            let r1 = resolve_c c1 and r2 = resolve_c c2 in
            if fst r1 <> fst r2 then Left (r1, r2) else Right cond
        | _ -> Right cond)
      q.Ast.where
  in
  (* 3. union-find over joined columns *)
  let parent : (rcol, rcol) Hashtbl.t = Hashtbl.create 16 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | None -> x
    | Some p ->
        let r = find p in
        Hashtbl.replace parent x r;
        r
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra rb
  in
  List.iter (fun (a, b) -> union a b) join_pairs;
  (* members per class *)
  let classes : (rcol, rcol list) Hashtbl.t = Hashtbl.create 16 in
  let all_cols =
    List.concat_map
      (fun t ->
        let entry = List.assoc t catalog in
        List.map (fun a -> (t, a)) (Schema.to_list entry.relation.Relation.schema))
      tables
  in
  List.iter
    (fun rc ->
      let root = find rc in
      Hashtbl.replace classes root (rc :: Option.value ~default:[] (Hashtbl.find_opt classes root)))
    all_cols;
  (* 4. final attribute names *)
  let taken = Hashtbl.create 16 in
  let fresh_name base =
    if not (Hashtbl.mem taken base) then begin
      Hashtbl.add taken base ();
      base
    end
    else begin
      let rec go k =
        let candidate = Printf.sprintf "%s_%d" base k in
        if Hashtbl.mem taken candidate then go (k + 1)
        else begin
          Hashtbl.add taken candidate ();
          candidate
        end
      in
      go 2
    end
  in
  let final_name : (rcol, string) Hashtbl.t = Hashtbl.create 16 in
  (* multi-table classes first: they must share one name *)
  let multi, single =
    Hashtbl.fold (fun root members acc -> (root, members) :: acc) classes []
    |> List.sort compare
    |> List.partition (fun (_, members) ->
           List.length (List.sort_uniq compare (List.map fst members)) > 1)
  in
  List.iter
    (fun ((_, root_name), members) ->
      let name = fresh_name root_name in
      List.iter (fun rc -> Hashtbl.replace final_name rc name) members)
    multi;
  List.iter
    (fun (_, members) ->
      List.iter
        (fun (t, a) ->
          (* keep the original name when globally unique, else qualify *)
          let holders = List.filter (fun (_, a') -> a' = a) all_cols in
          let base = if List.length holders > 1 then t ^ "_" ^ a else a in
          Hashtbl.replace final_name (t, a) (fresh_name base))
        members)
    single;
  let name_of rc = Hashtbl.find final_name rc in
  (* 5. semiring and per-table annotation expressions. The aggregate
     expression is factorized along the semiring's times-operator — SUM
     splits multiplicatively (SUM(a.x * b.y) annotates table a with x and
     table b with y; the join's annotation product recombines them), and
     MIN/MAX split additively since tropical times is + — with each factor
     confined to one table. *)
  let table_of_factor e =
    match List.sort_uniq compare (List.map (fun c -> fst (resolve_c c)) (expr_columns e)) with
    | [] -> None (* constant *)
    | [ t ] -> Some t
    | ts ->
        fail "aggregate factor %a spans tables %s; factor it per table" Ast.pp_expr e
          (String.concat ", " ts)
  in
  let rec mul_factors = function
    | Ast.Mul (a, b) -> mul_factors a @ mul_factors b
    | e -> [ e ]
  in
  let rec add_terms = function
    | Ast.Add (a, b) -> add_terms a @ add_terms b
    | e -> [ e ]
  in
  (* group factors by table; factors already within one table stay intact *)
  let factorize split e =
    let factors = split e in
    let by_table = Hashtbl.create 4 in
    let constants = ref [] in
    List.iter
      (fun f ->
        match table_of_factor f with
        | None -> constants := f :: !constants
        | Some t ->
            Hashtbl.replace by_table t
              (f :: Option.value ~default:[] (Hashtbl.find_opt by_table t)))
      factors;
    if Hashtbl.length by_table = 0 then fail "aggregate must reference a column";
    (* constants fold into the lexicographically first annotated table *)
    let first =
      List.hd (List.sort compare (Hashtbl.fold (fun t _ acc -> t :: acc) by_table []))
    in
    Hashtbl.replace by_table first (!constants @ Hashtbl.find by_table first);
    Hashtbl.fold (fun t fs acc -> (t, fs) :: acc) by_table []
  in
  let semiring, annot_spec =
    match q.Ast.aggregate with
    | Ast.Count -> (Semiring.ring ~bits, [])
    | Ast.Sum e -> (Semiring.ring ~bits, factorize mul_factors e)
    | Ast.Min e -> (Semiring.tropical_min ~bits, factorize add_terms e)
    | Ast.Max e -> (Semiring.tropical_max ~bits, factorize add_terms e)
  in
  (* combine a table's factors in the clear and encode the result *)
  let combine_factors values =
    match q.Ast.aggregate with
    | Ast.Count ->
        (* annot_spec is [] for COUNT, so no table has factors to combine;
           reaching here means the factorizer produced a spec it shouldn't. *)
        fail "COUNT takes no aggregate factors (internal factorizer error)"
    | Ast.Sum _ ->
        Secyan_crypto.Zn.norm semiring.Semiring.zn
          (Int64.of_int (List.fold_left ( * ) 1 values))
    | Ast.Min _ | Ast.Max _ ->
        Semiring.of_value semiring (Int64.of_int (List.fold_left ( + ) 0 values))
  in
  (* 6. selections grouped by table *)
  let selection_table cond =
    let cols =
      match cond with
      | Ast.Compare (_, a, b) -> expr_columns a @ expr_columns b
      | Ast.In_list (e, es) -> expr_columns e @ List.concat_map expr_columns es
      | Ast.Like (e, _) -> expr_columns e
    in
    match List.sort_uniq compare (List.map (fun c -> fst (resolve_c c)) cols) with
    | [ t ] -> t
    | [] -> fail "selection must reference a column"
    | ts -> fail "selection spans tables %s" (String.concat ", " ts)
  in
  let selections_by_table =
    List.fold_left
      (fun acc cond ->
        let t = selection_table cond in
        (t, cond) :: acc)
      [] selections
  in
  (* 7. build each table's shaped relation *)
  let inputs =
    List.map
      (fun t ->
        let entry = List.assoc t catalog in
        let rel = entry.relation in
        let schema = rel.Relation.schema in
        let resolve_col (c : Ast.column) =
          let rt, rn = resolve_c c in
          if rt <> t then fail "column %s.%s used in the wrong table context" rt rn;
          rn
        in
        let holds cond =
          match cond with
          | Ast.Compare (op, a, b) ->
              fun sch tup ->
                compare_lits op (eval_scalar resolve_col sch tup a)
                  (eval_scalar resolve_col sch tup b)
          | Ast.In_list (e, es) ->
              fun sch tup ->
                let v = eval_scalar resolve_col sch tup e in
                List.exists (fun e' -> eval_scalar resolve_col sch tup e' = v) es
          | Ast.Like (e, pattern) -> (
              fun sch tup ->
                match eval_scalar resolve_col sch tup e with
                | VStr s -> like_match s pattern
                | _ -> fail "LIKE requires a string column")
        in
        let conds =
          List.filter_map (fun (t', c) -> if t' = t then Some (holds c) else None)
            selections_by_table
        in
        let pred sch tup = List.for_all (fun h -> h sch tup) conds in
        let selected = Secyan.Selection.apply Secyan.Selection.Private pred rel in
        (* annotation: this table's aggregate factors, if any *)
        let annot sch tup =
          match List.assoc_opt t annot_spec with
          | Some factors ->
              let values =
                List.map
                  (fun e ->
                    match eval_scalar resolve_col sch tup e with
                    | VInt v -> v
                    | VDate d -> d
                    | VStr _ -> fail "aggregate expression must be numeric")
                  factors
              in
              combine_factors values
          | None -> Semiring.one semiring
        in
        (* columns to keep: output columns of this table + join columns *)
        let keep =
          List.filter
            (fun a ->
              let rc = (t, a) in
              let is_output = List.mem rc out_res in
              let in_multi_class =
                List.exists (fun (_, members) -> List.mem rc members) multi
              in
              is_output || in_multi_class)
            (Schema.to_list schema)
        in
        if keep = [] then
          fail "table %s contributes no join or output column" t;
        (* shaped rows: renamed projection + annotation; non-selected rows
           are already dummies with annotation 0 *)
        let out_schema = Schema.of_list (List.map (fun a -> name_of (t, a)) keep) in
        let rows =
          Array.to_list selected.Relation.tuples
          |> List.mapi (fun i tup ->
                 if Tuple.is_dummy tup then (Tuple.dummy out_schema, 0L)
                 else
                   ( Array.of_list (List.map (fun a -> Tuple.get schema a tup) keep),
                     if Semiring.is_zero selected.Relation.annots.(i) then 0L
                     else annot schema tup ))
        in
        let projected = Relation.of_list ~name:t ~schema:out_schema rows in
        (* merge duplicate projections locally, pad back to public size *)
        let merged = Operators.aggregate semiring ~attrs:out_schema projected in
        let padded = Relation.pad_to ~size:(Relation.cardinality projected) merged in
        (t, { Secyan.Query.relation = padded; owner = entry.owner }))
      tables
  in
  let output = List.map name_of out_res in
  (* 8. ORDER BY / LIMIT: resolve each item to an output attribute (by
     name or AS alias) or to the aggregate (by alias or by repeating its
     spelling), then attach to the query — the secure runtime executes
     them as the oblivious sort + top-k phase. *)
  let order_by =
    List.map
      (fun (target, dir) ->
        let dir =
          match (dir : Ast.order_dir) with
          | Ast.Asc -> Secyan.Query.Asc
          | Ast.Desc -> Secyan.Query.Desc
        in
        let by_column c =
          let rc = resolve_c c in
          if not (List.mem rc out_res) then
            fail "ORDER BY column %a is not a selected output column" Ast.pp_column c;
          (Secyan.Query.By_attr (name_of rc), dir)
        in
        match (target : Ast.order_target) with
        | Ast.Order_agg a ->
            if a <> q.Ast.aggregate then
              fail "ORDER BY aggregate %a does not match the selected aggregate %a"
                Ast.pp_aggregate a Ast.pp_aggregate q.Ast.aggregate;
            (Secyan.Query.By_agg, dir)
        | Ast.Order_ref ({ Ast.table = None; name } as c) -> (
            if q.Ast.aggregate_alias = Some name then (Secyan.Query.By_agg, dir)
            else
              match List.assoc_opt name q.Ast.column_aliases with
              | Some aliased -> by_column aliased
              | None -> by_column c)
        | Ast.Order_ref c -> by_column c)
      q.Ast.order_by
  in
  (match q.Ast.limit with
  | Some k when k < 0 -> fail "LIMIT must be non-negative, got %d" k
  | _ -> ());
  try
    Secyan.Query.with_order ~order_by ?limit:q.Ast.limit
      (Secyan.Query.prepare ~name:"sql" ~semiring ~output ~inputs)
  with Invalid_argument msg -> fail "%s" msg

(** Parse and compile in one step. *)
let query ?bits catalog sql = compile ?bits catalog (Parser.select sql)
