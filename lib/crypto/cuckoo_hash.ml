(** Cuckoo hashing with 3 hash functions (paper §5.3, following PSTY19).

    Alice maps her M-element set into B = ceil(1.27 M) bins so that each
    bin holds at most one element; Bob later maps each of his elements into
    all three candidate bins ("simple hashing"). Hash function i is the
    fixed-key AES hash of {!Aes128.label_hash_hi} on the block (0, x), with
    the public random key k_i as its tweak, reduced mod B: one AES block
    per bin. PSTY19 models these functions as random functions; they need
    no collision resistance, since a collision only costs a kick (DESIGN.md
    §6). On the (2^-sigma-probability) event that insertion fails, fresh
    keys are drawn — exactly the failure behaviour the paper budgets
    for. *)

type keys = { k1 : int64; k2 : int64; k3 : int64; n_bins : int }

let expansion = 1.27

let n_bins_for m = max 2 (int_of_float (ceil (expansion *. float_of_int (max 1 m))))

let fresh_keys prg n_bins =
  { k1 = Prg.next_int64 prg; k2 = Prg.next_int64 prg; k3 = Prg.next_int64 prg; n_bins }

(* [h] as an unsigned 64-bit number, mod [n]: h = 4a + r with a < 2^62,
   so the sum below stays an unboxed int for any n below 2^60. Equal to
   [Int64.unsigned_rem], which boxes its operands. *)
let unsigned_rem h n =
  let a = Int64.to_int (Int64.shift_right_logical h 2) and r = Int64.to_int h land 3 in
  ((4 * (a mod n)) + r) mod n

let bin keys which x =
  let tweak = match which with 0 -> keys.k1 | 1 -> keys.k2 | _ -> keys.k3 in
  unsigned_rem (Aes128.label_hash_hi Aes128.fixed_key ~tweak 0L x) keys.n_bins

(** The three candidate bins of [x]. *)
let candidate_bins keys x = [ bin keys 0 x; bin keys 1 x; bin keys 2 x ]

type table = {
  keys : keys;
  slots : int64 option array;    (** element stored in each bin *)
}

exception Insertion_failed

exception
  Build_error of {
    elements : int;       (** number of elements being inserted *)
    n_bins : int;         (** table size the insertions were attempted into *)
    load_factor : float;  (** elements / n_bins — ~1/1.27 when sized normally *)
    attempts : int;       (** key refreshes tried before giving up *)
    context : string;     (** caller-supplied annotation; [""] when none *)
  }

let () =
  Printexc.register_printer (function
    | Build_error { elements; n_bins; load_factor; attempts; context } ->
        Some
          (Printf.sprintf
             "Cuckoo_hash.Build_error { elements = %d; n_bins = %d; load_factor = %.3f; \
              attempts = %d%s }"
             elements n_bins load_factor attempts
             (if context = "" then "" else Printf.sprintf "; context = %S" context))
    | _ -> None)

let try_build prg keys (elements : int64 array) =
  let slots = Array.make keys.n_bins None in
  let max_kicks = 64 + (4 * Array.length elements) in
  (* Random-walk eviction: [x] takes a random one of its bins, and the
     element it evicts, if any, moves on. *)
  let rec kick x attempts =
    if attempts > max_kicks then raise Insertion_failed;
    let b = bin keys (Prg.below prg 3) x in
    let evicted = slots.(b) in
    slots.(b) <- Some x;
    match evicted with None -> () | Some y -> kick y (attempts + 1)
  in
  (* First try the three bins directly, hashing each only when the one
     before it is taken. *)
  let rec insert x which =
    if which > 2 then kick x 0
    else
      let b = bin keys which x in
      match slots.(b) with
      | None -> slots.(b) <- Some x
      | Some _ -> insert x (which + 1)
  in
  Array.iter (fun x -> insert x 0) elements;
  { keys; slots }

(** Build a cuckoo table over distinct [elements]; retries with fresh keys
    on failure. An under-provisioned table (caller-forced [n_bins] below
    the 1.27x expansion) surfaces as {!Build_error} rather than looping. *)
let build ?(n_bins = 0) ?(context = "") prg (elements : int64 array) =
  let n_bins = if n_bins > 0 then n_bins else n_bins_for (Array.length elements) in
  let rec go attempts =
    if attempts > 64 then
      raise
        (Build_error
           {
             elements = Array.length elements;
             n_bins;
             load_factor = float_of_int (Array.length elements) /. float_of_int n_bins;
             attempts;
             context;
           });
    let keys = fresh_keys prg n_bins in
    match try_build prg keys elements with
    | table -> table
    | exception Insertion_failed -> go (attempts + 1)
  in
  go 0

(** Bob's side: map every element of [ys] into each of its three candidate
    bins. Returns per-bin lists of indices into [ys]. *)
let simple_hash keys (ys : int64 array) =
  let bins = Array.make keys.n_bins [] in
  (* Last element first, so every list comes out in index order. An
     element whose candidate bins collide is inserted once per distinct
     bin. *)
  for j = Array.length ys - 1 downto 0 do
    let y = ys.(j) in
    let b0 = bin keys 0 y and b1 = bin keys 1 y and b2 = bin keys 2 y in
    bins.(b0) <- j :: bins.(b0);
    if b1 <> b0 then bins.(b1) <- j :: bins.(b1);
    if b2 <> b0 && b2 <> b1 then bins.(b2) <- j :: bins.(b2)
  done;
  bins

(** Occupancy check used by tests: every input element is in exactly one of
    its candidate bins. *)
let check_table table (elements : int64 array) =
  Array.for_all
    (fun x ->
      List.exists
        (fun b -> match table.slots.(b) with Some y -> Int64.equal x y | None -> false)
        (candidate_bins table.keys x))
    elements
