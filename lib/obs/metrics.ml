(** The [--metrics] export: one sample list built at export time from a
    run context (its ledger counters and its pool's timelines) and the
    run's span tree (its phase-marker spans), rendered as a pretty table,
    JSONL or Prometheus text exposition. Nothing is recorded on the
    side: every sample is read from a record the run keeps anyway. *)

open Secyan_crypto

type value = Counter of int | Gauge of float
type sample = { name : string; help : string; value : value }

(* The ledger's counters as monotonic [secyan_<name>_total] samples
   (Prometheus convention). *)
let ledger_samples ctx =
  let totals = Context.counter_totals ctx in
  List.map
    (fun c ->
      {
        name = "secyan_" ^ Trace_sink.counter_name c ^ "_total";
        help = Trace_sink.counter_help c;
        value = Counter totals.(Trace_sink.counter_index c);
      })
    Trace_sink.all_counters

(* One gauge family member: [name{labels}]. *)
let labelled name labels help v =
  { name = Printf.sprintf "%s{%s}" name labels; help; value = Gauge v }

(* Per-participant pool timelines ([secyan_domain_busy_seconds{domain="0"}],
   ...), when the context ever spawned its pool. *)
let pool_samples ctx =
  match Context.pool_opt ctx with
  | None -> []
  | Some pool ->
      List.concat_map
        (fun (tl : Domain_pool.timeline_snapshot) ->
          let g name help v =
            labelled name (Printf.sprintf "domain=\"%d\"" tl.Domain_pool.domain) help v
          in
          [
            g "secyan_domain_busy_seconds" "seconds spent running batch items"
              (tl.Domain_pool.busy_ns *. 1e-9);
            g "secyan_domain_queue_wait_seconds"
              "seconds parked or waiting on the batch barrier"
              (tl.Domain_pool.queue_wait_ns *. 1e-9);
            g "secyan_domain_lock_wait_seconds" "seconds acquiring the pool mutex"
              (tl.Domain_pool.lock_wait_ns *. 1e-9);
            g "secyan_domain_wall_seconds" "participant wall-clock (see Domain_pool.timelines)"
              (tl.Domain_pool.wall_ns *. 1e-9);
            g "secyan_domain_batches" "batches this participant claimed items of"
              (float_of_int tl.Domain_pool.batches);
            g "secyan_domain_items" "batch items this participant ran"
              (float_of_int tl.Domain_pool.items);
            g "secyan_domain_wakeups" "condition-variable wakeups"
              (float_of_int tl.Domain_pool.wakeups);
          ])
        (Domain_pool.timelines pool)

(* Phase gauges ([secyan_gc_phase_minor_words{phase="phase:reduce"}],
   ...): each sums the duration and allocation of every phase-marker
   span of that name, so a phase that recurs (a composed query runs the
   protocol more than once) counts whole. *)
let phase_samples root =
  let phases = Hashtbl.create 8 in
  Span.iter
    (fun ~depth:_ ~path:_ (s : Span.t) ->
      if Protocol_schema.is_phase_marker s.Span.name then begin
        let seconds, alloc =
          Option.value (Hashtbl.find_opt phases s.Span.name) ~default:(0., Span.no_alloc)
        in
        Hashtbl.replace phases s.Span.name
          (seconds +. s.Span.dur_s, Span.add_alloc alloc s.Span.alloc)
      end)
    root;
  Hashtbl.fold
    (fun phase (seconds, (a : Span.alloc)) acc ->
      let g name help v = labelled name (Printf.sprintf "phase=%S" phase) help v in
      [
        g "secyan_gc_phase_seconds" "wall-clock seconds inside the phase's spans" seconds;
        g "secyan_gc_phase_minor_words" "minor-heap words allocated during the phase"
          a.Span.minor_words;
        g "secyan_gc_phase_promoted_words" "words promoted during the phase"
          a.Span.promoted_words;
        g "secyan_gc_phase_major_words" "major-heap words allocated during the phase"
          a.Span.major_words;
        g "secyan_gc_phase_minor_collections" "minor collections during the phase"
          (float_of_int a.Span.minor_collections);
        g "secyan_gc_phase_major_collections" "major collections during the phase"
          (float_of_int a.Span.major_collections);
        g "secyan_gc_phase_compactions" "heap compactions during the phase"
          (float_of_int a.Span.compactions);
      ]
      @ acc)
    phases []

let snapshot ?trace ~ledger () =
  let phases = match trace with Some root -> phase_samples root | None -> [] in
  List.sort
    (fun a b -> String.compare a.name b.name)
    (ledger_samples ledger @ pool_samples ledger @ phases)

type format = Pretty | Jsonl | Prometheus

(* A labelled name ("secyan_domain_busy_seconds{domain=\"2\"}") shares
   its family's HELP/TYPE lines under the base name. *)
let base_name name =
  match String.index_opt name '{' with
  | None -> name
  | Some i -> String.sub name 0 i

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge"

(* --- pretty ---------------------------------------------------------- *)

let pp_value ppf v =
  if Float.is_integer v && Float.abs v < 1e15 then Format.fprintf ppf "%.0f" v
  else Format.fprintf ppf "%.6g" v

let pretty ppf samples =
  Format.fprintf ppf "%-44s %-10s %s@." "metric" "kind" "value";
  Format.fprintf ppf "%s@." (String.make 100 '-');
  List.iter
    (fun s ->
      match s.value with
      | Counter n -> Format.fprintf ppf "%-44s %-10s %d@." s.name "counter" n
      | Gauge v -> Format.fprintf ppf "%-44s %-10s %a@." s.name "gauge" pp_value v)
    samples

(* --- JSONL ----------------------------------------------------------- *)

let jsonl ppf samples =
  List.iter
    (fun s ->
      let value = match s.value with Counter n -> Json.Int n | Gauge v -> Json.Float v in
      let fields =
        [ ("name", Json.Str s.name); ("kind", Json.Str (kind_name s.value)); ("value", value) ]
      in
      Format.fprintf ppf "%s@." (Json.to_string (Json.Obj fields)))
    samples

(* --- Prometheus text format ------------------------------------------ *)

(* Integers print bare. *)
let prom_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let prometheus ppf samples =
  let seen_base = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let base = base_name s.name in
      if not (Hashtbl.mem seen_base base) then begin
        Hashtbl.replace seen_base base ();
        Format.fprintf ppf "# HELP %s %s@." base s.help;
        Format.fprintf ppf "# TYPE %s %s@." base (kind_name s.value)
      end;
      match s.value with
      | Counter n -> Format.fprintf ppf "%s %d@." s.name n
      | Gauge v -> Format.fprintf ppf "%s %s@." s.name (prom_float v))
    samples

(* --- entry point ----------------------------------------------------- *)

let export ?trace ~ledger format ppf =
  let samples = snapshot ?trace ~ledger () in
  (match format with
  | Pretty -> pretty ppf samples
  | Jsonl -> jsonl ppf samples
  | Prometheus -> prometheus ppf samples);
  Format.pp_print_flush ppf ()

let export_string ?trace ~ledger format =
  let buf = Buffer.create 4096 in
  export ?trace ~ledger format (Format.formatter_of_buffer buf);
  Buffer.contents buf
