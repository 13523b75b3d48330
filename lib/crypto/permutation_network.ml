(** AS-Waksman permutation networks with concrete routing.

    The oblivious extended permutation of Mohassel–Sadeghian (paper §5.4)
    evaluates a switching network whose control bits are held by one party.
    We construct and program real AS-Waksman networks (Beauquier & Darrot
    2002; Kolesnikov & Schneider, FC 2008) at any width: [build perm]
    returns the control string of a network realizing [perm] on exactly
    [n] wires, one byte per 2x2 conditional-swap switch. The switch count
    S(n) = Σᵢ₌₁..n ⌈log₂ i⌉ drives the OEP cost accounting, and [apply]
    lets tests and the clear-text reference path actually run the network.

    A subnetwork of width [w >= 2] has [w/2] input switches, a child of
    [w - w/2] wires, a child of [w/2] wires, and [(w-1)/2] output
    switches, so S(w) = w - 1 + S(w - w/2) + S(w/2). With [w] odd, the
    last wire bypasses both switch layers into the larger child. With
    [w] even, the last output pair has no switch: the larger child feeds
    output [w-2] and the smaller one output [w-1].

    Switch endpoints are implicit. A subnetwork of width [w] sits on the
    wires [base + k·stride] for [k < w]; its input switch [i] and its
    output switch [i] both join wires [base + 2i·stride] and
    [base + (2i+1)·stride]. Its larger child sits on the even local wires
    [(base, 2·stride)] and its smaller child on the odd ones
    [(base + stride, 2·stride)]. In [controls] a subnetwork occupies
    [switch_count w] consecutive bytes: its input layer, its larger
    child, its smaller child, then its output layer. *)

type t = {
  n : int;             (** wire count *)
  controls : Bytes.t;  (** one byte per switch, ['\001'] = swap *)
}

let n_switches t = Bytes.length t.controls

(* Switches of an AS-Waksman network over [w] wires, in closed form:
   Σᵢ₌₁..w ⌈log₂ i⌉ = w·k − 2^k + 1 with k = ⌈log₂ w⌉. *)
let switch_count w =
  if w <= 1 then 0
  else begin
    (* k = bit length of w - 1, by halving the search range *)
    let x = w - 1 in
    let k = if x lsr 32 <> 0 then 32 else 0 in
    let k = if x lsr (k + 16) <> 0 then k + 16 else k in
    let k = if x lsr (k + 8) <> 0 then k + 8 else k in
    let k = if x lsr (k + 4) <> 0 then k + 4 else k in
    let k = if x lsr (k + 2) <> 0 then k + 2 else k in
    let k = (if x lsr (k + 1) <> 0 then k + 1 else k) + 1 in
    (w * k) - (1 lsl k) + 1
  end

(* Route-plane states of an output wire during the walk: not yet
   routed, fed from the larger (even-wire) child, or fed from the
   smaller (odd-wire) child. *)
let unrouted = '\000'
let via_larger = '\001'
let via_smaller = '\002'

(* Set output switch [o lsr 1], if [o] sits on one, so that output [o]
   is fed from child [c] (0 the larger, 1 the smaller): the switch
   passes exactly when its even output is fed from the larger child. *)
let set_output controls ~out_off ~n_out o c =
  if o lsr 1 < n_out then
    Bytes.unsafe_set controls (out_off + (o lsr 1)) (Char.unsafe_chr ((o land 1) lxor c))
[@@inline]

(* Walk the constraint chain from output [start], routed through the
   larger child. Each step routes output [o] through the larger child,
   which sets its source's input switch (it passes exactly when its even
   input enters the larger child), so the output [o2] fed by the
   source's switch partner takes the smaller child and sets its output
   switch, whose other output [o2 lxor 1] takes the larger child again
   and is the next [o]. The chain ends when it closes on a routed output
   (a cycle), or at the bypass source or the bypass output (the one path
   of an odd width). The fixed last pair of an even width is a pair like
   any other, without a switch to set. *)
let walk controls plane perm inv ~w ~off ~out_off ~n_out start =
  set_output controls ~out_off ~n_out start 0;
  let o = ref start and walking = ref true in
  while !walking do
    Bytes.unsafe_set plane !o via_larger;
    let src = perm.(!o) in
    let partner = src lxor 1 in
    if partner >= w then walking := false
    else begin
      Bytes.unsafe_set controls (off + (src lsr 1)) (Char.unsafe_chr (src land 1));
      (* [o2] is never routed yet: a chain enters each output once *)
      let o2 = inv.(partner) in
      Bytes.set plane o2 via_smaller;
      set_output controls ~out_off ~n_out o2 1;
      let o3 = o2 lxor 1 in
      if o3 >= w then walking := false
      else if Bytes.get plane o3 <> unrouted then begin
        assert (Bytes.get plane o3 = via_larger);
        walking := false
      end
      else o := o3
    end
  done
[@@inline]

(* The larger child's output j feeds output 2j + c and the smaller
   child's output 2j + 1 - c, c being output switch j's control (0 past
   the output layer): write into [child] the larger ([smaller = 0]) or
   smaller ([smaller = 1]) child's permutation of width [width]. A
   child's input j is wire 2j or 2j + 1, so its source is [src lsr 1]. *)
let child_perm controls ~out_off ~n_out perm child ~smaller width =
  for j = 0 to n_out - 1 do
    let c = Char.code (Bytes.unsafe_get controls (out_off + j)) in
    child.(j) <- perm.((2 * j) + (c lxor smaller)) lsr 1
  done;
  for j = n_out to width - 1 do
    child.(j) <- perm.((2 * j) + smaller) lsr 1
  done

(* Program the subnetwork of width [w] whose controls start at [off].
   [perms.(d)] holds its permutation (dest j receives src perm.(j));
   [perms.(d+1)] receives each child's permutation in turn. [inv] and
   [plane] are shared by all depths: a level's walks are finished before
   any child is routed. *)
let rec route controls perms inv plane d off w =
  let perm = perms.(d) in
  if w = 2 then Bytes.unsafe_set controls off (Char.unsafe_chr (perm.(0) land 1))
  else if w > 2 then begin
    let n_in = w / 2 and n_out = (w - 1) / 2 in
    let larger = w - n_in in
    let s_larger = switch_count larger in
    let out_off = off + n_in + s_larger + switch_count n_in in
    for dst = 0 to w - 1 do
      inv.(perm.(dst)) <- dst
    done;
    Bytes.fill plane 0 w unrouted;
    (* Output 2·n_out is the bypass output (w odd) or the fixed pair's
       larger-child output (w even): its chain goes first, so it takes
       the larger child. Every chain left is a cycle, free to start
       either way. *)
    walk controls plane perm inv ~w ~off ~out_off ~n_out (2 * n_out);
    for start = 0 to w - 1 do
      if Bytes.get plane start = unrouted then
        walk controls plane perm inv ~w ~off ~out_off ~n_out start
    done;
    let child = perms.(d + 1) in
    child_perm controls ~out_off ~n_out perm child ~smaller:0 larger;
    route controls perms inv plane (d + 1) (off + n_in) larger;
    child_perm controls ~out_off ~n_out perm child ~smaller:1 n_in;
    route controls perms inv plane (d + 1) (off + n_in + s_larger) n_in
  end

(** Build a programmed network realizing [perm]: output [j] carries input
    [perm.(j)]. A network over 0 or 1 wires has no switches. *)
let build perm =
  let n = Array.length perm in
  let controls = Bytes.create (switch_count n) in
  if n > 1 then begin
    (* perms.(d) holds a depth-d subnetwork's permutation: the widest is
       ⌈n / 2^d⌉, and depths run while that width is at least 2 *)
    let rec widths w = if w < 2 then [] else w :: widths (w - (w / 2)) in
    let perms =
      Array.of_list (List.mapi (fun d w -> if d = 0 then perm else Array.make w 0) (widths n))
    in
    route controls perms (Array.make n 0) (Bytes.create n) 0 0 n
  end;
  { n; controls }

(** Visit the switches in evaluation order as [f a b swap]: the two wires
    a switch joins and whether it is programmed to exchange them. *)
let iter_switches t f =
  let layer off count base stride =
    for i = 0 to count - 1 do
      f (base + (2 * i * stride)) (base + (((2 * i) + 1) * stride))
        (Bytes.get t.controls (off + i) = '\001')
    done
  in
  let rec go off w base stride =
    if w >= 2 then begin
      let n_in = w / 2 in
      let larger = w - n_in in
      let s_larger = switch_count larger in
      layer off n_in base stride;
      go (off + n_in) larger base (2 * stride);
      go (off + n_in + s_larger) n_in (base + stride) (2 * stride);
      layer (off + n_in + s_larger + switch_count n_in) ((w - 1) / 2) base stride
    end
  in
  go 0 t.n 0 1

(** Apply the programmed network to a data array of size [>= t.n]; returns
    the array of its [t.n] outputs. *)
let apply t data =
  let work = Array.sub data 0 t.n in
  iter_switches t (fun a b swap ->
      if swap then begin
        let tmp = work.(a) in
        work.(a) <- work.(b);
        work.(b) <- tmp
      end);
  work

(** Switch count of a network over [n] wires, without building one; used
    for cost formulas. *)
let switch_count_for = switch_count
