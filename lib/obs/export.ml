(** Trace exporters: human-readable tree, Chrome trace-event JSON
    (loadable in Perfetto / chrome://tracing), and flat JSONL metrics
    for machine diffing. *)

open Secyan_crypto

(* --- pretty tree --- *)

let si_bits bits =
  let b = float_of_int bits in
  if b >= 8. *. 1024. *. 1024. then Printf.sprintf "%.2f MB" (b /. (8. *. 1024. *. 1024.))
  else if b >= 8. *. 1024. then Printf.sprintf "%.1f KB" (b /. (8. *. 1024.))
  else Printf.sprintf "%d b" bits

let si_seconds s =
  if s >= 1. then Printf.sprintf "%.2f s" s
  else if s >= 1e-3 then Printf.sprintf "%.2f ms" (s *. 1e3)
  else Printf.sprintf "%.0f us" (s *. 1e6)

let pretty ppf root =
  (* Pre-render rows so the name column can be sized to the widest entry. *)
  let rows = ref [] in
  Span.iter
    (fun ~depth ~path:_ span ->
      let tally = Span.tally span in
      let counters = Span.counters span in
      let label = String.make (2 * depth) ' ' ^ span.Span.name in
      rows := (label, span, tally, counters) :: !rows)
    root;
  let rows = List.rev !rows in
  let name_w =
    List.fold_left (fun acc (label, _, _, _) -> max acc (String.length label)) 4 rows
  in
  let counter_cols =
    (* Only counters that fired anywhere in the trace get a column. *)
    List.filter
      (fun c -> Span.counter root c > 0)
      Trace_sink.work_counters
  in
  Format.fprintf ppf "%-*s  %10s  %12s  %12s  %6s" name_w "span" "wall" "a->b" "b->a" "rounds";
  List.iter
    (fun c -> Format.fprintf ppf "  %12s" (Trace_sink.counter_name c))
    counter_cols;
  Format.pp_print_newline ppf ();
  List.iter
    (fun (label, span, (tally : Comm.tally), counters) ->
      Format.fprintf ppf "%-*s  %10s  %12s  %12s  %6d" name_w label
        (si_seconds span.Span.dur_s)
        (si_bits tally.Comm.alice_to_bob_bits)
        (si_bits tally.Comm.bob_to_alice_bits)
        tally.Comm.rounds;
      List.iter
        (fun c -> Format.fprintf ppf "  %12d" counters.(Trace_sink.counter_index c))
        counter_cols;
      Format.pp_print_newline ppf ())
    rows

(* --- Chrome trace events --- *)

let span_args span =
  let tally = Span.tally span in
  let self = Span.self_tally span in
  let counters = Span.counters span in
  let counter_fields =
    List.filter_map
      (fun c ->
        let v = counters.(Trace_sink.counter_index c) in
        if v = 0 then None else Some (Trace_sink.counter_name c, Json.Int v))
      Trace_sink.work_counters
  in
  Json.Obj
    ([
       ("alice_to_bob_bits", Json.Int tally.Comm.alice_to_bob_bits);
       ("bob_to_alice_bits", Json.Int tally.Comm.bob_to_alice_bits);
       ("rounds", Json.Int tally.Comm.rounds);
       ("self_alice_to_bob_bits", Json.Int self.Comm.alice_to_bob_bits);
       ("self_bob_to_alice_bits", Json.Int self.Comm.bob_to_alice_bits);
       ("sends", Json.Int (Span.sends span));
     ]
    @ counter_fields)

(** Complete ("X") events: one per span, timestamps and durations in
    microseconds relative to the trace origin, all on pid 1 / tid 1 so
    the viewer renders the tree by interval nesting. *)
let chrome root =
  let events = ref [] in
  Span.iter
    (fun ~depth:_ ~path:_ span ->
      let dur_s = if span.Span.dur_s < 0. then 0. else span.Span.dur_s in
      events :=
        Json.Obj
          [
            ("name", Json.Str span.Span.name);
            ("ph", Json.Str "X");
            ("ts", Json.Float (span.Span.start_s *. 1e6));
            ("dur", Json.Float (dur_s *. 1e6));
            ("pid", Json.Int 1);
            ("tid", Json.Int 1);
            ("args", span_args span);
          ]
        :: !events)
    root;
  Json.Obj
    [
      ("traceEvents", Json.List (List.rev !events));
      ("displayTimeUnit", Json.Str "ms");
    ]

let chrome_string root = Json.to_string (chrome root)

(* --- flat JSONL metrics --- *)

let span_record ~depth ~path span =
  let tally = Span.tally span in
  let self = Span.self_tally span in
  let counters = Span.counters span in
  let counter_fields =
    List.map
      (fun c -> (Trace_sink.counter_name c, Json.Int counters.(Trace_sink.counter_index c)))
      Trace_sink.work_counters
  in
  Json.Obj
    [
      ("path", Json.Str path);
      ("name", Json.Str span.Span.name);
      ("depth", Json.Int depth);
      ("start_s", Json.Float span.Span.start_s);
      ("dur_s", Json.Float span.Span.dur_s);
      ("alice_to_bob_bits", Json.Int tally.Comm.alice_to_bob_bits);
      ("bob_to_alice_bits", Json.Int tally.Comm.bob_to_alice_bits);
      ("rounds", Json.Int tally.Comm.rounds);
      ("self_alice_to_bob_bits", Json.Int self.Comm.alice_to_bob_bits);
      ("self_bob_to_alice_bits", Json.Int self.Comm.bob_to_alice_bits);
      ("self_rounds", Json.Int self.Comm.rounds);
      ("sends", Json.Int (Span.sends span));
      ("counters", Json.Obj counter_fields);
    ]

(** One compact JSON object per line per span, pre-order. Lines carry
    the slash-separated path so two traces can be joined by path and
    diffed field-by-field. *)
let jsonl ppf root =
  Span.iter
    (fun ~depth ~path span ->
      Format.fprintf ppf "%s@\n" (Json.to_string (span_record ~depth ~path span)))
    root

let jsonl_string root =
  let b = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer b in
  jsonl ppf root;
  Format.pp_print_flush ppf ();
  Buffer.contents b
