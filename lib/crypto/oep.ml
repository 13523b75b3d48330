(** Oblivious extended permutation (paper §5.4, Mohassel–Sadeghian).

    One party (the programmer) holds an extended permutation
    xi : [N] -> [M]; the other holds (or the two share) a length-M vector.
    The protocol outputs a fresh sharing of the length-N vector
    y_i = x_{xi(i)} revealing neither xi nor the data.

    Construction (MS13): permutation network + duplication chain +
    permutation network. We build and program real Benes networks plus the
    duplication layer, so switch counts — and hence the accounted
    O((M+N) log(M+N)) communication — are exact. The oblivious evaluation
    of each switch is realized through the dealer model (one OT carrying
    the two masked outputs per switch; see DESIGN.md §2.5), so the output
    shares are uniformly fresh. *)

type program = {
  n_sources : int;
  n_outputs : int;
  perm1 : Permutation_network.t;
  dup_ctrl : bool array;   (** duplication-chain controls over the first N wires *)
  perm2 : Permutation_network.t;
}

(** Program the networks for [xi] ([xi.(i)] in [0, m)). Works over
    P = m + n physical wires so sources, copies, and fillers all fit. *)
let program ~m xi =
  let n = Array.length xi in
  Array.iteri
    (fun i s ->
      if s < 0 || s >= m then
        invalid_arg
          (Printf.sprintf "Oep.program: xi.(%d) = %d outside the source range [0, %d)" i s m))
    xi;
  let p = m + n in
  (* Sort output indices by source (stable) so copies are adjacent. *)
  let order = Array.init n (fun i -> i) in
  Array.stable_sort (fun i j -> compare xi.(i) xi.(j)) order;
  (* perm1: dest position k takes, for first occurrences, the wire carrying
     source xi.(order.(k)); other positions take distinct filler wires. *)
  let perm1 = Array.make p (-1) in
  let used_source = Array.make m false in
  let dup_ctrl = Array.make n false in
  for k = 0 to n - 1 do
    let s = xi.(order.(k)) in
    let first = (k = 0) || xi.(order.(k - 1)) <> s in
    dup_ctrl.(k) <- not first;
    if first then begin
      perm1.(k) <- s;
      used_source.(s) <- true
    end
  done;
  (* Fillers: sources never used, plus the n padding wires m..p-1. *)
  let fillers = ref [] in
  for s = m - 1 downto 0 do
    if not used_source.(s) then fillers := s :: !fillers
  done;
  for w = m to p - 1 do
    fillers := w :: !fillers
  done;
  let fillers = ref !fillers in
  let next_filler () =
    match !fillers with
    | f :: rest ->
        fillers := rest;
        f
    (* unreachable counting invariant: over p = m + n wires, the number of
       unused sources plus padding wires equals the number of unassigned
       perm1 slots, so the filler pool cannot run dry *)
    | [] -> assert false
  in
  for k = 0 to p - 1 do
    if perm1.(k) = -1 then perm1.(k) <- next_filler ()
  done;
  (* perm2: output i must receive the copy sitting at sorted position
     inverse_order(i); positions n..p-1 map to leftovers. *)
  let perm2 = Array.make p (-1) in
  let taken = Array.make p false in
  Array.iteri
    (fun k i ->
      perm2.(i) <- k;
      taken.(k) <- true)
    order;
  let spare = ref [] in
  for k = p - 1 downto 0 do
    if not taken.(k) then spare := k :: !spare
  done;
  let spare = ref !spare in
  for i = 0 to p - 1 do
    if perm2.(i) = -1 then begin
      match !spare with
      | s :: rest ->
          perm2.(i) <- s;
          spare := rest
      (* unreachable counting invariant: [order] marks exactly |order|
         positions taken, leaving p - |order| spares for the p - |order|
         outputs with perm2.(i) = -1 *)
      | [] -> assert false
    end
  done;
  {
    n_sources = m;
    n_outputs = n;
    perm1 = Permutation_network.build perm1;
    dup_ctrl;
    perm2 = Permutation_network.build perm2;
  }

let n_switches prog =
  Permutation_network.n_switches prog.perm1
  + Array.length prog.dup_ctrl
  + Permutation_network.n_switches prog.perm2

(** Reference clear-data evaluation of the programmed networks; used by
    tests to check that [program] really realizes xi. *)
let apply_clear prog (data : 'a array) : 'a array =
  let p = prog.n_sources + prog.n_outputs in
  let padded = Array.init p (fun i -> if i < Array.length data then Some data.(i) else None) in
  let after1 = Permutation_network.apply prog.perm1 padded in
  let work = Array.copy after1 in
  for k = 0 to prog.n_outputs - 1 do
    if prog.dup_ctrl.(k) then work.(k) <- work.(k - 1)
  done;
  let after2 = Permutation_network.apply prog.perm2 work in
  Array.init prog.n_outputs (fun i ->
      match after2.(i) with
      | Some v -> v
      | None -> invalid_arg "Oep.apply_clear: filler wire reached an output")

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

(** Obliviously map a shared vector through [xi] held by [holder]:
    returns fresh shares of [x_{xi(i)}]. *)
let apply_shared ctx ~holder ~xi ~m (values : Secret_share.t array) : Secret_share.t array =
  ignore (holder : Party.t);
  if Array.length values <> m then
    invalid_arg
      (Printf.sprintf "Oep.apply_shared: %d input shares, expected m = %d"
         (Array.length values) m);
  Context.with_span ctx "oep:shared" @@ fun () ->
  let prog = program ~m xi in
  account ctx prog;
  Array.map
    (fun src ->
      let v = Secret_share.reconstruct ctx values.(src) in
      Secret_share.fresh_of_value ctx v)
    xi

(** Variant of §5.4's base case: the data vector is held in clear by
    [data_holder] (e.g. Bob's payload list); output is shared. *)
let apply_clear_input ctx ~holder ~xi ~m (values : int64 array) : Secret_share.t array =
  ignore (holder : Party.t);
  if Array.length values <> m then
    invalid_arg
      (Printf.sprintf "Oep.apply_clear_input: %d input values, expected m = %d"
         (Array.length values) m);
  Context.with_span ctx "oep:clear" @@ fun () ->
  let prog = program ~m xi in
  account ctx prog;
  Array.map (fun src -> Secret_share.fresh_of_value ctx values.(src)) xi
