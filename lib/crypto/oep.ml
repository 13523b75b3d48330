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
  dup_ctrl : Bytes.t;   (** duplication-chain controls over the first N wires *)
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
  (* Fillers, in the order they are handed out: the n padding wires
     p-1 down to m, then the sources never used, in increasing order. Over
     p = m + n wires their number equals the number of unassigned perm1
     slots, so the source cursor never runs past m. *)
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
  (* perm2: output i must receive the copy sitting at sorted position
     inverse_order(i); [order] takes positions 0..n-1, so the other p - n
     outputs take positions n..p-1 in increasing order. *)
  let perm2 = Array.make p (-1) in
  Array.iteri (fun k i -> perm2.(i) <- k) order;
  let spare = ref n in
  for i = 0 to p - 1 do
    if perm2.(i) = -1 then begin
      perm2.(i) <- !spare;
      incr spare
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
  + Bytes.length prog.dup_ctrl
  + Permutation_network.n_switches prog.perm2

(** Reference clear-data evaluation of the programmed networks; used by
    tests to check that [program] really realizes xi. *)
let apply_clear prog (data : 'a array) : 'a array =
  let p = prog.n_sources + prog.n_outputs in
  let padded = Array.init p (fun i -> if i < Array.length data then Some data.(i) else None) in
  let after1 = Permutation_network.apply prog.perm1 padded in
  let work = Array.copy after1 in
  for k = 0 to prog.n_outputs - 1 do
    if Bytes.get prog.dup_ctrl k = '\001' then work.(k) <- work.(k - 1)
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
