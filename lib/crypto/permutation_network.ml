(** Beneš permutation networks with concrete routing.

    The oblivious extended permutation of Mohassel–Sadeghian (paper §5.4)
    evaluates a switching network whose control bits are held by one party.
    We construct and program real Beneš networks: [build perm] returns the
    control string of a network realizing [perm] on [n] wires ([n] padded
    internally to a power of two), one byte per 2x2 conditional-swap switch.
    The switch count drives the OEP cost accounting, and [apply] lets tests
    and the clear-text reference path actually run the network.

    Switch endpoints are implicit. A subnetwork of width [len] sits on the
    wires [base + k·stride] for [k < len]; its layer switch [i] joins wires
    [base + 2i·stride] and [base + (2i+1)·stride]. Its upper child is the
    subnetwork at [(base, 2·stride)] and its lower child the one at
    [(base + stride, 2·stride)], both of width [len/2]. In [controls] a
    subnetwork occupies [switch_count len] consecutive bytes: its input
    layer, its upper child, its lower child, then its output layer. *)

type t = {
  n : int;             (** logical wire count (before padding) *)
  padded : int;        (** power-of-two physical wire count *)
  controls : Bytes.t;  (** one byte per switch, ['\001'] = swap *)
}

let n_switches t = Bytes.length t.controls

let next_pow2 n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

(* Switches of a Beneš network over [len] wires, [len] a power of two. *)
let rec switch_count len =
  if len <= 1 then 0 else if len = 2 then 1 else len + (2 * switch_count (len / 2))

(* Route-plane states of an output wire during the cycle walk. *)
let unrouted = '\000'
let to_upper = '\001'
let to_lower = '\002'

(* Output switch j feeds output 2j + c from the upper child and output
   2j + 1 - c from the lower one, c being its control: write into [child]
   the upper ([lower = 0]) or lower ([lower = 1]) child's permutation. *)
let child_perm controls ~out_off perm child ~half ~lower =
  for j = 0 to half - 1 do
    let c = Char.code (Bytes.unsafe_get controls (out_off + j)) lxor lower in
    child.(j) <- perm.((2 * j) + c) lsr 1
  done

(* Program the subnetwork of width [len] whose controls start at [off].
   [perms.(d)] holds its permutation (dest j receives src perm.(j)), where
   [len = padded / 2^d]; [perms.(d+1)] receives each child's permutation
   in turn. [inv] and [route_plane] are shared by all depths: a level's
   cycle walk is finished before any child is routed. *)
let rec route controls perms inv route_plane d off len =
  let perm = perms.(d) in
  if len = 2 then Bytes.unsafe_set controls off (Char.unsafe_chr (perm.(0) land 1))
  else if len > 2 then begin
    let half = len / 2 in
    let sub = switch_count half in
    let out_off = off + half + (2 * sub) in
    for dst = 0 to len - 1 do
      inv.(perm.(dst)) <- dst
    done;
    Bytes.fill route_plane 0 len unrouted;
    (* Cycle-walking 2-coloring: assigning output [out] to the upper half
       forces its switch partner to the lower half, forces the input
       carrying perm.(out) to the upper half, hence that input's switch
       partner to the lower half, hence the output fed by that partner to
       the lower half — whose own switch partner is forced back to the
       upper half, continuing the walk until the cycle closes. An input
       switch swaps exactly when its upper-bound input is odd; an output
       switch swaps exactly when its upper-fed output is odd. *)
    for start = 0 to len - 1 do
      if Bytes.get route_plane start = unrouted then begin
        let out = ref start in
        let walking = ref true in
        while !walking do
          let o = !out in
          Bytes.set route_plane o to_upper;
          Bytes.set route_plane (o lxor 1) to_lower;
          Bytes.unsafe_set controls (out_off + (o lsr 1)) (Char.unsafe_chr (o land 1));
          let src = perm.(o) in
          Bytes.unsafe_set controls (off + (src lsr 1)) (Char.unsafe_chr (src land 1));
          (* the output fed by src's partner takes the lower half;
             continue from its switch partner *)
          let next_out = inv.(src lxor 1) lxor 1 in
          if Bytes.get route_plane next_out = unrouted then out := next_out
          else begin
            assert (Bytes.get route_plane next_out = to_upper);
            walking := false
          end
        done
      end
    done;
    child_perm controls ~out_off perm perms.(d + 1) ~half ~lower:0;
    route controls perms inv route_plane (d + 1) (off + half) half;
    child_perm controls ~out_off perm perms.(d + 1) ~half ~lower:1;
    route controls perms inv route_plane (d + 1) (off + half + sub) half
  end

(** Build a programmed network realizing [perm]: output [j] carries input
    [perm.(j)]. Wires beyond [Array.length perm] (padding) map identically.
    A network over 0 or 1 wires has no switches. *)
let build perm =
  let n = Array.length perm in
  let padded = next_pow2 n in
  let controls = Bytes.create (switch_count padded) in
  if padded > 1 then begin
    let rec depths len = if len <= 1 then 0 else 1 + depths (len / 2) in
    let perms = Array.init (depths padded) (fun d -> Array.make (padded lsr d) 0) in
    Array.blit perm 0 perms.(0) 0 n;
    for j = n to padded - 1 do
      perms.(0).(j) <- j
    done;
    route controls perms (Array.make padded 0) (Bytes.create padded) 0 0 padded
  end;
  { n; padded; controls }

(** Visit the switches in evaluation order as [f a b swap]: the two wires
    a switch joins and whether it is programmed to exchange them. *)
let iter_switches t f =
  let rec go off len base stride =
    let layer off =
      for i = 0 to (len / 2) - 1 do
        f (base + (2 * i * stride)) (base + (((2 * i) + 1) * stride))
          (Bytes.get t.controls (off + i) = '\001')
      done
    in
    if len >= 2 then begin
      layer off;
      if len > 2 then begin
        let half = len / 2 and sub = switch_count (len / 2) in
        go (off + half) half base (2 * stride);
        go (off + half + sub) half (base + stride) (2 * stride);
        layer (off + half + (2 * sub))
      end
    end
  in
  go 0 t.padded 0 1

(** Apply the programmed network to a data array of size [>= t.n]; returns
    the array of logical outputs (length [t.n]). *)
let apply t data =
  let work = Array.make t.padded None in
  Array.iteri (fun i v -> if i < t.padded then work.(i) <- Some v) data;
  iter_switches t (fun a b swap ->
      if swap then begin
        let tmp = work.(a) in
        work.(a) <- work.(b);
        work.(b) <- tmp
      end);
  Array.init t.n (fun i ->
      match work.(i) with
      | Some v -> v
      | None -> invalid_arg "Permutation_network.apply: padding reached an output")

(** Switch count of a Benes network over [n] logical wires, without
    building one; used for cost formulas. *)
let switch_count_for n = switch_count (next_pow2 n)
