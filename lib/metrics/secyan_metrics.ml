(* The registry proper. Design constraints, in order:

   1. Disabled observes must cost one atomic load and a branch — the
      crypto hot paths call them unconditionally.
   2. Enabled observes must be safe and cheap from any domain: cells are
      striped by [Domain.self], so concurrent recorders of a typical
      pool (caller + a few workers) land on distinct cache lines, and
      each cell is an [Atomic.t] so cross-stripe collisions (domain ids
      equal mod stripes) stay correct.
   3. Reads merge stripes with plain integer sums, making the merged
      counts independent of scheduling: a histogram recorded by an
      8-domain pool is bit-identical to a 1-domain run of the same
      workload. Float sums use a CAS loop; addition reordering can
      perturb their last ulps, so exact cross-pool comparisons should
      look at counts, which is what the tests do. *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* Stripe count: a power of two comfortably above the domain counts this
   codebase uses (pools clamp at 128 but practical sizes are <= 16). *)
let stripes = 16

let stripe () = (Domain.self () :> int) land (stripes - 1)

let atomic_add_float cell v =
  let rec go () =
    let cur = Atomic.get cell in
    if not (Atomic.compare_and_set cell cur (cur +. v)) then go ()
  in
  go ()

type counter_t = { c_name : string; c_help : string; c_cells : int Atomic.t array }

type gauge_t = { g_name : string; g_help : string; g_cell : float Atomic.t }

type histogram_t = {
  h_name : string;
  h_help : string;
  h_upper : float array;  (* ascending upper bounds; +Inf bucket implicit *)
  (* counts.(stripe).(bucket); one row per stripe keeps a recording
     domain's buckets on its own cache lines *)
  h_counts : int Atomic.t array array;
  h_sums : float Atomic.t array;  (* one sum per stripe *)
}

type counter = counter_t
type gauge = gauge_t
type histogram = histogram_t

type metric = C of counter_t | G of gauge_t | H of histogram_t

(* Registration is rare (module init) and never on the hot path; one
   global lock keeps interning simple. *)
let registry_lock = Mutex.create ()
let registry : (string, metric) Hashtbl.t = Hashtbl.create 32

let intern name make check =
  Mutex.lock registry_lock;
  let r =
    match Hashtbl.find_opt registry name with
    | Some m -> check m
    | None ->
        let m = make () in
        Hashtbl.replace registry name m;
        Ok m
  in
  Mutex.unlock registry_lock;
  match r with
  | Ok m -> m
  | Error kind ->
      invalid_arg
        (Printf.sprintf "Secyan_metrics: %S is already registered as a %s" name kind)

let counter ~help name =
  let m =
    intern name
      (fun () ->
        C { c_name = name; c_help = help;
            c_cells = Array.init stripes (fun _ -> Atomic.make 0) })
      (function C _ as m -> Ok m | G _ -> Error "gauge" | H _ -> Error "histogram")
  in
  match m with C c -> c | _ -> assert false

let add c n = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.c_cells.(stripe ()) n)

let gauge ~help name =
  let m =
    intern name
      (fun () -> G { g_name = name; g_help = help; g_cell = Atomic.make 0. })
      (function G _ as m -> Ok m | C _ -> Error "counter" | H _ -> Error "histogram")
  in
  match m with G g -> g | _ -> assert false

let set g v = if Atomic.get enabled_flag then Atomic.set g.g_cell v

let lazily register =
  let cell = Atomic.make None in
  fun () ->
    match Atomic.get cell with
    | Some m -> m
    | None ->
        let m = register () in
        Atomic.set cell (Some m);
        m

(* 2^-20 .. 2^30: spans ~1 microsecond to ~18 minutes when observing
   seconds, and 1 .. 10^9 when observing counts, rates, or bytes. 51
   buckets * 16 stripes * one word is ~6 KB per histogram — cheap. *)
let histogram ~help name =
  let upper = Array.init 51 (fun i -> Float.pow 2. (float_of_int (i - 20))) in
  let m =
    intern name
      (fun () ->
        H
          {
            h_name = name;
            h_help = help;
            h_upper = upper;
            h_counts =
              Array.init stripes (fun _ ->
                  Array.init (Array.length upper + 1) (fun _ -> Atomic.make 0));
            h_sums = Array.init stripes (fun _ -> Atomic.make 0.);
          })
      (function H _ as m -> Ok m | C _ -> Error "counter" | G _ -> Error "gauge")
  in
  match m with H h -> h | _ -> assert false

(* First bucket whose upper bound is >= v (binary search; the default
   array has 51 entries, so this is ~6 comparisons). *)
let bucket_of upper v =
  let n = Array.length upper in
  if n = 0 || v > upper.(n - 1) then n
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= upper.(mid) then hi := mid else lo := mid + 1
    done;
    !lo
  end

let observe h v =
  if Atomic.get enabled_flag then begin
    let s = stripe () in
    ignore (Atomic.fetch_and_add h.h_counts.(s).(bucket_of h.h_upper v) 1);
    atomic_add_float h.h_sums.(s) v
  end

(* --- reading --------------------------------------------------------- *)

type histogram_snapshot = {
  upper : float array;
  counts : int array;
  count : int;
  sum : float;
}

type value = Counter of int | Gauge of float | Histogram of histogram_snapshot

type sample = { name : string; help : string; value : value }

let histogram_snapshot h =
  let n_buckets = Array.length h.h_upper + 1 in
  let counts = Array.make n_buckets 0 in
  for s = 0 to stripes - 1 do
    for b = 0 to n_buckets - 1 do
      counts.(b) <- counts.(b) + Atomic.get h.h_counts.(s).(b)
    done
  done;
  let sum = Array.fold_left (fun acc c -> acc +. Atomic.get c) 0. h.h_sums in
  {
    upper = Array.copy h.h_upper;
    counts;
    count = Array.fold_left ( + ) 0 counts;
    sum;
  }

let counter_total c = Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c.c_cells

let snapshot () =
  Mutex.lock registry_lock;
  let metrics = Hashtbl.fold (fun _ m acc -> m :: acc) registry [] in
  Mutex.unlock registry_lock;
  metrics
  |> List.map (fun m ->
         match m with
         | C c -> { name = c.c_name; help = c.c_help; value = Counter (counter_total c) }
         | G g -> { name = g.g_name; help = g.g_help; value = Gauge (Atomic.get g.g_cell) }
         | H h -> { name = h.h_name; help = h.h_help; value = Histogram (histogram_snapshot h) })
  |> List.sort (fun a b -> String.compare a.name b.name)

let reset () =
  Mutex.lock registry_lock;
  let metrics = Hashtbl.fold (fun _ m acc -> m :: acc) registry [] in
  Mutex.unlock registry_lock;
  List.iter
    (function
      | C c -> Array.iter (fun cell -> Atomic.set cell 0) c.c_cells
      | G g -> Atomic.set g.g_cell 0.
      | H h ->
          Array.iter (fun row -> Array.iter (fun cell -> Atomic.set cell 0) row) h.h_counts;
          Array.iter (fun cell -> Atomic.set cell 0.) h.h_sums)
    metrics
