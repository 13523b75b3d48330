(** Oblivious extended permutation (paper §5.4, Mohassel–Sadeghian).

    One party (the programmer) holds an extended permutation
    xi : [N] -> [M]; the other holds (or the two share) a length-M vector.
    The protocol outputs a fresh sharing of the length-N vector
    y_i = x_{xi(i)} revealing neither xi nor the data.

    Each network is sized to the map it realizes. A general (extended)
    map uses MS13's layout: a permutation network over max(M, N) wires,
    a duplication chain over its first N wires, and a permutation network
    over those N wires — S(max(M, N)) + N + S(N) switches, S being the
    Beneš count ([Permutation_network.switch_count_for]). An injective
    map (distinct values, N <= M) needs no duplication and is one
    permutation network over M wires — S(M) switches. Which of the two a
    call site uses is fixed by the code, never by data, so the count is
    a function of (M, N) alone. We build and program real Beneš networks
    plus the duplication layer, so switch counts — and hence the accounted
    communication — are exact. The oblivious evaluation of each switch is
    realized through the dealer model (one OT carrying the two masked
    outputs per switch; see DESIGN.md §2.5), so the output shares are
    uniformly fresh. *)

type program =
  | Extended of {
      perm1 : Permutation_network.t;  (** over max(m, n) wires *)
      dup_ctrl : Bytes.t;  (** duplication-chain controls over the first n wires *)
      perm2 : Permutation_network.t;  (** over the n outputs *)
    }
  | Injective of {
      n_outputs : int;
      perm : Permutation_network.t;  (** over m wires, xi on the first n *)
    }

let check_sources ~fn ~m xi =
  Array.iteri
    (fun i s ->
      if s < 0 || s >= m then
        invalid_arg
          (Printf.sprintf "Oep.%s: xi.(%d) = %d outside the source range [0, %d)" fn i s m))
    xi

(** Program the networks for [xi] ([xi.(i)] in [0, m)). Works over
    p = max(m, n) wires for perm1, so sources and outputs both fit. *)
let program ~m xi =
  check_sources ~fn:"program" ~m xi;
  let n = Array.length xi in
  let p = max m n in
  (* Sort output indices by source (stable counting sort over [0, m)) so
     copies are adjacent. *)
  let start = Array.make (m + 1) 0 in
  Array.iter (fun s -> start.(s + 1) <- start.(s + 1) + 1) xi;
  for s = 1 to m do
    start.(s) <- start.(s) + start.(s - 1)
  done;
  let order = Array.make n 0 in
  Array.iteri
    (fun i s ->
      order.(start.(s)) <- i;
      start.(s) <- start.(s) + 1)
    xi;
  (* perm1: dest position k takes, for first occurrences, the wire carrying
     source xi.(order.(k)); other positions take distinct filler wires. *)
  let perm1 = Array.make p (-1) in
  let used_source = Array.make m false in
  let dup_ctrl = Bytes.make n '\000' in
  for k = 0 to n - 1 do
    let s = xi.(order.(k)) in
    if k > 0 && xi.(order.(k - 1)) = s then Bytes.set dup_ctrl k '\001'
    else begin
      perm1.(k) <- s;
      used_source.(s) <- true
    end
  done;
  (* Fillers, in the order they are handed out: the p - m padding wires
     p-1 down to m, then the sources never used, in increasing order. With
     d distinct sources used, their number p - m + (m - d) equals the
     p - d unassigned perm1 slots, so the source cursor never runs past m. *)
  let padding = ref p and source = ref 0 in
  for k = 0 to p - 1 do
    if perm1.(k) = -1 then
      if !padding > m then begin
        decr padding;
        perm1.(k) <- !padding
      end
      else begin
        while used_source.(!source) do
          incr source
        done;
        perm1.(k) <- !source;
        incr source
      end
  done;
  (* perm2: output i receives the copy sitting at sorted position
     inverse_order(i). *)
  let perm2 = Array.make n 0 in
  Array.iteri (fun k i -> perm2.(i) <- k) order;
  Extended
    {
      perm1 = Permutation_network.build perm1;
      dup_ctrl;
      perm2 = Permutation_network.build perm2;
    }

(** Program the single network for an injective [xi] ([xi.(i)] in
    [0, m), pairwise distinct): output i carries source xi.(i), and
    outputs n..m-1 take the unused sources in increasing order. *)
let program_injective ~m xi =
  check_sources ~fn:"program_injective" ~m xi;
  let used = Array.make m false in
  Array.iteri
    (fun i s ->
      if used.(s) then
        invalid_arg
          (Printf.sprintf "Oep.program_injective: xi.(%d) = %d repeats an earlier value" i s);
      used.(s) <- true)
    xi;
  let n = Array.length xi in
  let perm = Array.make m 0 in
  Array.blit xi 0 perm 0 n;
  let next = ref n in
  Array.iteri
    (fun s u ->
      if not u then begin
        perm.(!next) <- s;
        incr next
      end)
    used;
  Injective { n_outputs = n; perm = Permutation_network.build perm }

let n_switches = function
  | Extended { perm1; dup_ctrl; perm2 } ->
      Permutation_network.n_switches perm1
      + Bytes.length dup_ctrl
      + Permutation_network.n_switches perm2
  | Injective { perm; _ } -> Permutation_network.n_switches perm

(** Reference clear-data evaluation of the programmed networks; used by
    tests to check that a program really realizes xi. *)
let apply_clear prog (data : 'a array) : 'a array =
  match prog with
  | Injective { n_outputs; perm } -> Array.sub (Permutation_network.apply perm data) 0 n_outputs
  | Extended { perm1; dup_ctrl; perm2 } ->
      let n = Bytes.length dup_ctrl in
      let padded =
        Array.init perm1.Permutation_network.n (fun i ->
            if i < Array.length data then Some data.(i) else None)
      in
      let work = Array.sub (Permutation_network.apply perm1 padded) 0 n in
      for k = 0 to n - 1 do
        if Bytes.get dup_ctrl k = '\001' then work.(k) <- work.(k - 1)
      done;
      Array.map
        (function
          | Some v -> v | None -> invalid_arg "Oep.apply_clear: filler wire reached an output")
        (Permutation_network.apply perm2 work)

let account ctx prog =
  let bits_per_switch =
    Cost_model.oep_switch_bits ~kappa:ctx.Context.kappa ~bits:(Context.ring_bits ctx)
  in
  Context.bump ctx Trace_sink.Oep_switches (n_switches prog);
  let total = n_switches prog * bits_per_switch in
  (* OT per switch: receiver column one way, masked pair the other. *)
  Context.send ctx ~from:Party.Alice ~bits:(total / 2);
  Context.send ctx ~from:Party.Bob ~bits:(total - (total / 2));
  Context.bump_rounds ctx 2

(* Program [xi] with [build], account its switches under [span], and
   return fresh shares of [x_{xi(i)}]. *)
let evaluate ctx ~fn ~span ~build ~holder ~xi ~m (values : Secret_share.t array) =
  ignore (holder : Party.t);
  if Array.length values <> m then
    invalid_arg
      (Printf.sprintf "Oep.%s: %d input shares, expected m = %d" fn (Array.length values) m);
  Context.with_span ctx span @@ fun () ->
  account ctx (build ~m xi);
  Array.map
    (fun src ->
      let v = Secret_share.reconstruct ctx values.(src) in
      Secret_share.fresh_of_value ctx v)
    xi

(** Obliviously map a shared vector through [xi] held by [holder]:
    returns fresh shares of [x_{xi(i)}]. *)
let apply_shared ctx ~holder ~xi ~m values =
  evaluate ctx ~fn:"apply_shared" ~span:"oep:shared" ~build:program ~holder ~xi ~m values

(** [apply_shared] for an injective [xi], through one network over [m]
    wires. *)
let permute_shared ctx ~holder ~xi ~m values =
  evaluate ctx ~fn:"permute_shared" ~span:"oep:permute" ~build:program_injective ~holder ~xi ~m
    values
