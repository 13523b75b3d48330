(** Batched oblivious programmable PRF (OPPRF) — the core of PSTY19's
    circuit-based PSI (paper §5.3).

    The sender programs, per bin, a function that returns a chosen value on
    each programmed point and pseudo-random garbage elsewhere; the receiver
    evaluates it at one query point per bin and learns only the output.

    Realization: the programmed behaviour is computed by the runtime with
    unprogrammed outputs drawn from a per-instance dealer-keyed PRF
    (DESIGN.md §2.4 — real OPPRFs derive the same distribution from OT
    extension): the high word of the fixed-key AES hash
    {!Aes128.label_hash_hi} of the block (bin, query), with the dealer's
    instance key as its tweak, one AES block per output. Communication is accounted per PSTY19: a constant number of
    rounds and O(kappa + sigma) bits per bin. *)

let batch ctx ~sender ~out_bits ~(programming : (int64 * int64) list array)
    ~(queries : int64 array) : int64 array =
  let n_bins = Array.length programming in
  if Array.length queries <> n_bins then
    invalid_arg
      (Printf.sprintf "Oprf.batch: %d queries for %d programmed bins (expected one query \
                       per bin)"
         (Array.length queries) n_bins);
  Context.with_span ctx "oprf:batch" @@ fun () ->
  let receiver = Party.other sender in
  let per_bin = Cost_model.opprf_bin_bits in
  (* receiver's OPRF evaluations (OT-extension traffic), then the sender's
     programmed hints *)
  Context.send ctx ~from:receiver ~bits:(n_bins * Cost_model.kappa);
  Context.send ctx ~from:sender ~bits:(n_bins * per_bin);
  Context.bump_rounds ctx 2;
  let instance_key = Prg.next_int64 ctx.Context.dealer in
  let mask = if out_bits >= 64 then -1L else Int64.sub (Int64.shift_left 1L out_bits) 1L in
  Array.init n_bins (fun i ->
      let q = queries.(i) in
      match List.assoc_opt q programming.(i) with
      | Some v -> Int64.logand v mask
      | None ->
          Int64.logand
            (Aes128.label_hash_hi Aes128.fixed_key ~tweak:instance_key (Int64.of_int i) q)
            mask)
