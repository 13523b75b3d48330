(** Field-by-field comparison of two BENCH JSON files (the regression
    gate behind [bench diff BASE NEW]).

    BENCH files mix three kinds of fields, and a useful gate must treat
    them differently or it is either blind or flaky:

    - {b exact} fields — booleans ([identical_to_sequential],
      [tally_identical]) and deterministic integers ([and_gates],
      [checkpoint_bytes]): any change is a regression.
    - {b ratio} fields — same-machine relative measures ([speedup_*],
      [*_pct], [*_frac]): gated by default under a tolerance, and only
      in the direction that means "worse" where the name implies one
      ([speedup] higher is better, [*_pct] lower is better).
    - {b machine-absolute} fields — wall-clock and throughput
      ([*_seconds], [ns_per_*], [*_per_s], [*_ms]), allocation volumes
      ([*_words*] — deterministic on one toolchain, compiler-dependent
      across hosts — and the derived [alloc_reduction*] factors), plus
      scheduling noise ([wakeups], [batches]): meaningless across
      machines, so gated only under [~strict:true] (for comparing runs
      of the same host). The cross-machine allocation gate is the exact
      boolean [alloc_reduction_ok] instead.

    Records are matched by an identity key built from their string
    fields plus the conventional integer identity fields ([domains],
    [items], [reps], [cores]); a base record with no match in the new
    file is itself a regression. Nested values (lists/objects) are
    informational and skipped. *)

type severity = Regression | Note

type issue = {
  severity : severity;
  record : string;  (** identity key of the record *)
  field : string;
  detail : string;
}

type report = {
  issues : issue list;  (** in file order, regressions and notes mixed *)
  compared_fields : int;
  matched_records : int;
}

let regressions r = List.filter (fun i -> i.severity = Regression) r.issues
let notes r = List.filter (fun i -> i.severity = Note) r.issues

(* --- field classification -------------------------------------------- *)

let ends_with ~suffix s =
  let n = String.length s and m = String.length suffix in
  n >= m && String.sub s (n - m) m = suffix

let starts_with ~prefix s =
  let n = String.length s and m = String.length prefix in
  n >= m && String.sub s 0 m = prefix

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Which way is "worse"? [`Higher_better] flags drops, [`Lower_better]
   flags rises, [`Two_sided] flags either. *)
type direction = Higher_better | Lower_better | Two_sided

(* How the tolerance applies: [Rel] bounds (new-base)/|base|; [Abs k]
   bounds |new-base| by [k * tolerance] — percentages and fractions are
   compared in their own units (a 1% -> 2% overhead is not a "100%
   regression"). *)
type band = Rel | Abs of float

type rule =
  | Skip  (** identity field; already part of the record key *)
  | Exact  (** deterministic: any change is a regression *)
  | Ratio of direction * band  (** gated by default under the tolerance *)
  | Machine of direction  (** gated only under [~strict:true] *)

let int_identity_fields = [ "domains"; "items"; "reps"; "cores"; "pool"; "n" ]

(* Supervision/cancellation counters (DESIGN.md §15) and the
   Byzantine-hardening counters (DESIGN.md §16): how often the
   robustness layer fired — retry storms hitting a deadline, hang
   detections, sequential fallbacks, arena resets, rejected frames,
   protocol violations. Timing- and adversary-dependent by nature (a
   loaded runner cancels more; a retransmission changes how many frames
   a rejection consumes), so machine-absolute: gated only under
   [~strict:true], like wall-clock. *)
let supervision_counter name =
  contains_sub name "supervision" || contains_sub name "cancellation"
  || contains_sub name "hangs" || contains_sub name "poisoned"
  || contains_sub name "sequential_fallback"
  || contains_sub name "arena_reset"
  || contains_sub name "deadline_expired"
  || contains_sub name "over_budget"
  || contains_sub name "protocol_violations"
  || contains_sub name "rejected_frames"
  || contains_sub name "handshake_mismatch"

let classify name (v : Json.t) =
  match v with
  | Json.Str _ -> Skip
  | Json.Bool _ -> Exact
  | Json.Null | Json.List _ | Json.Obj _ -> Skip
  | Json.Int _ ->
      if List.mem name int_identity_fields then Skip
      else if name = "wakeups" || name = "batches" || supervision_counter name then
        Machine Two_sided
      else Exact
  | Json.Float _ ->
      if
        ends_with ~suffix:"_seconds" name || ends_with ~suffix:"_ms" name
        || ends_with ~suffix:"_ns" name || name = "seconds"
        || starts_with ~prefix:"ns_per_" name
      then Machine Lower_better
      else if supervision_counter name then Machine Two_sided
      else if ends_with ~suffix:"_per_s" name then Machine Higher_better
      else if contains_sub name "_words" then Machine Lower_better
      else if contains_sub name "alloc_reduction" then Machine Higher_better
      else if contains_sub name "speedup" then Ratio (Higher_better, Rel)
      else if ends_with ~suffix:"_pct" name then Ratio (Lower_better, Abs 100.)
      else if ends_with ~suffix:"_frac" name then Ratio (Two_sided, Abs 1.)
      else Ratio (Two_sided, Rel)

(* --- record identity -------------------------------------------------- *)

let record_key r =
  match r with
  | Json.Obj fields ->
      let parts =
        List.filter_map
          (fun (k, v) ->
            match v with
            | Json.Str s -> Some (Printf.sprintf "%s=%s" k s)
            | Json.Int n when List.mem k int_identity_fields ->
                Some (Printf.sprintf "%s=%d" k n)
            | _ -> None)
          fields
      in
      String.concat " " (List.sort compare parts)
  | _ -> Json.to_string r

(* --- numeric comparison ----------------------------------------------- *)

(* [delta] is the signed change in the band's units; positive = rose. *)
let out_of_band direction ~limit delta =
  match direction with
  | Two_sided -> Float.abs delta > limit
  | Higher_better -> delta < -.limit
  | Lower_better -> delta > limit

let compare_numeric ~key ~field ~tolerance direction band base_v new_v issues =
  incr issues;
  let delta, limit, unit_ =
    match band with
    | Rel ->
        let d =
          if base_v = 0. then if new_v = 0. then 0. else infinity
          else (new_v -. base_v) /. Float.abs base_v
        in
        (d, tolerance, "relative")
    | Abs scale -> (new_v -. base_v, scale *. tolerance, "absolute")
  in
  if out_of_band direction ~limit delta then
    Some
      {
        severity = Regression;
        record = key;
        field;
        detail =
          Printf.sprintf "%g -> %g (delta %+g, %s limit %g)" base_v new_v delta unit_
            limit;
      }
  else None

(* --- record comparison ------------------------------------------------ *)

let compare_record ~tolerance ~strict ~key base_fields new_fields compared =
  List.filter_map
    (fun (name, base_v) ->
      let rule = classify name base_v in
      let gated = match rule with
        | Skip -> false
        | Exact | Ratio _ -> true
        | Machine _ -> strict
      in
      match List.assoc_opt name new_fields with
      | None ->
          if rule = Skip then None
          else
            Some
              {
                severity = (if gated then Regression else Note);
                record = key;
                field = name;
                detail = "field missing in new file";
              }
      | Some new_v -> (
          match rule with
          | Skip -> None
          | Exact ->
              incr compared;
              if Json.to_string base_v = Json.to_string new_v then None
              else
                Some
                  {
                    severity = Regression;
                    record = key;
                    field = name;
                    detail =
                      Printf.sprintf "%s -> %s (exact field)" (Json.to_string base_v)
                        (Json.to_string new_v);
                  }
          | Ratio _ | Machine _ -> (
              let dir, band =
                match rule with
                | Ratio (dir, band) -> (dir, band)
                | Machine dir -> (dir, Rel)
                | Skip | Exact -> assert false
              in
              if not gated then None
              else
                match (Json.to_float_opt base_v, Json.to_float_opt new_v) with
                | Some b, Some n ->
                    compare_numeric ~key ~field:name ~tolerance dir band b n compared
                | _ ->
                    Some
                      {
                        severity = Regression;
                        record = key;
                        field = name;
                        detail = "numeric field changed JSON type";
                      })))
    base_fields

(* --- file comparison -------------------------------------------------- *)

let records_of json =
  match Json.member "records" json with
  | Some (Json.List rs) -> Ok rs
  | _ -> Error "no \"records\" list"

(** Compare two parsed BENCH documents. [tolerance] is the relative band
    for ratio fields (default 0.15); [strict] additionally gates
    machine-absolute fields (same-host comparisons only). *)
let compare_json ?(tolerance = 0.15) ?(strict = false) ~base ~next () =
  match (records_of base, records_of next) with
  | Error e, _ -> Error (Printf.sprintf "base: %s" e)
  | _, Error e -> Error (Printf.sprintf "new: %s" e)
  | Ok base_rs, Ok new_rs ->
      (* A file written before every BENCH file carried a section has
         none; it matches any. *)
      let section j = Option.bind (Json.member "section" j) Json.to_string_opt in
      match (section base, section next) with
      | Some b, Some n when b <> n ->
          Error (Printf.sprintf "section mismatch: base %S vs new %S" b n)
      | _ -> begin
        let new_by_key = Hashtbl.create 32 in
        List.iter (fun r -> Hashtbl.replace new_by_key (record_key r) r) new_rs;
        let compared = ref 0 in
        let matched = ref 0 in
        let issues =
          List.concat_map
            (fun base_r ->
              let key = record_key base_r in
              match Hashtbl.find_opt new_by_key key with
              | None ->
                  [
                    {
                      severity = Regression;
                      record = key;
                      field = "(record)";
                      detail = "record missing in new file";
                    };
                  ]
              | Some new_r -> (
                  incr matched;
                  match (base_r, new_r) with
                  | Json.Obj bf, Json.Obj nf ->
                      compare_record ~tolerance ~strict ~key bf nf compared
                  | _ -> []))
            base_rs
        in
        let extra =
          List.filter_map
            (fun r ->
              let key = record_key r in
              if List.exists (fun b -> record_key b = key) base_rs then None
              else
                Some
                  {
                    severity = Note;
                    record = key;
                    field = "(record)";
                    detail = "new record not in base (not gated)";
                  })
            new_rs
        in
        Ok
          {
            issues = issues @ extra;
            compared_fields = !compared;
            matched_records = !matched;
          }
      end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Compare two BENCH files on disk. *)
let compare_files ?tolerance ?strict ~base ~next () =
  let parse path =
    match Json.parse (read_file path) with
    | Ok j -> Ok j
    | Error e -> Error (Printf.sprintf "%s: parse error: %s" path e)
    | exception Sys_error e -> Error e
  in
  match (parse base, parse next) with
  | Error e, _ | _, Error e -> Error e
  | Ok b, Ok n -> compare_json ?tolerance ?strict ~base:b ~next:n ()

let pp_report ppf r =
  let regs = regressions r and nts = notes r in
  List.iter
    (fun i ->
      Format.fprintf ppf "%s: [%s] %s: %s@."
        (match i.severity with Regression -> "REGRESSION" | Note -> "note")
        i.record i.field i.detail)
    r.issues;
  Format.fprintf ppf "%d records matched, %d fields compared: %d regression%s, %d note%s@."
    r.matched_records r.compared_fields (List.length regs)
    (if List.length regs = 1 then "" else "s")
    (List.length nts)
    (if List.length nts = 1 then "" else "s")
