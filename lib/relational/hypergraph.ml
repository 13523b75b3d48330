(** Query hypergraphs (paper §3.1): vertices are attributes, hyperedges are
    relations. Acyclicity is decided by GYO reduction. *)

type edge = { label : string; attrs : Schema.t }

type t = { edges : edge list }

let create edges =
  let labels = List.map (fun e -> e.label) edges in
  (let rec dup = function
     | a :: (b :: _ as rest) -> if String.equal a b then Some a else dup rest
     | _ -> None
   in
   match dup (List.sort String.compare labels) with
   | Some l ->
       invalid_arg
         (Printf.sprintf "Hypergraph.create: duplicate edge label %S (labels must be unique)" l)
   | None -> ());
  { edges }

let edge ~label attrs = { label; attrs = Schema.of_list attrs }

let find t label = List.find (fun e -> String.equal e.label label) t.edges

(** GYO reduction: repeatedly (1) remove attributes occurring in exactly
    one edge, then (2) remove edges contained in another edge. The
    hypergraph is acyclic iff the reduction reaches the empty graph. *)
let is_acyclic t =
  let edges = ref (List.map (fun e -> (e.label, Schema.to_list e.attrs)) t.edges) in
  let changed = ref true in
  while !changed && !edges <> [] do
    changed := false;
    (* isolated attributes *)
    let occurrence a = List.length (List.filter (fun (_, attrs) -> List.mem a attrs) !edges) in
    let edges' =
      List.map (fun (l, attrs) -> (l, List.filter (fun a -> occurrence a > 1) attrs)) !edges
    in
    if edges' <> !edges then begin
      edges := edges';
      changed := true
    end;
    (* contained edges (including now-empty ones) *)
    let contained (l, attrs) =
      List.exists
        (fun (l', attrs') ->
          (not (String.equal l l')) && List.for_all (fun a -> List.mem a attrs') attrs)
        !edges
      || attrs = []
    in
    match List.partition contained !edges with
    | [], _ -> ()
    | _ :: _ as removed, kept ->
        (* remove one at a time to avoid deleting two identical edges that
           only contain each other *)
        (match removed with
        | first :: _ -> edges := List.filter (fun e -> e != first) (kept @ removed)
        | [] -> ());
        changed := true
  done;
  !edges = []

(** A query is free-connex iff it is acyclic and remains acyclic when the
    output attributes are added as an extra hyperedge (Bagan et al.). *)
let is_free_connex t ~output =
  is_acyclic t
  && (Schema.is_empty output
     || is_acyclic { edges = { label = "#output"; attrs = output } :: t.edges })

let pp fmt t =
  Fmt.pf fmt "@[<v>%a@]"
    Fmt.(list (fun fmt e -> Fmt.pf fmt "%s%a" e.label Schema.pp e.attrs))
    t.edges
