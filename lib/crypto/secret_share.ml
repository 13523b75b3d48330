(** Arithmetic secret sharing over Z_{2^l} (paper §5.1).

    [v] is split as v = (a + b) mod 2^l where Alice holds [a] and Bob holds
    [b]; each share alone is uniformly random. Linear operations are local,
    products of two shared values take OT-based multiplication
    ([mul_batch]); everything else goes through the protocols built on
    top (garbled circuits, PSI, OEP).

    The record exposes both shares because both simulated parties live in
    one process. Protocol code accesses a party's share only through
    [share_of], and reconstruction outside of [reveal_to]/[reveal_batch] is
    reserved for the "ideal functionality" inside simulated primitives and
    for tests. *)

type t = { a : int64; b : int64 }

let share_of t = function Party.Alice -> t.a | Party.Bob -> t.b

(** Reconstruct without communication. Functionality/test access only. *)
let reconstruct ctx t = Zn.add ctx.Context.ring t.a t.b

(** The owner splits a private value and sends one share across. *)
let share ctx ~owner v =
  let ring = ctx.Context.ring in
  let v = Zn.norm ring v in
  let own = Zn.random ring (Context.prg_of ctx owner) in
  let other = Zn.sub ring v own in
  Context.send ctx ~from:owner ~bits:(Zn.bits ring);
  match owner with
  | Party.Alice -> { a = own; b = other }
  | Party.Bob -> { a = other; b = own }

(** Share a public constant as (v, 0); no communication. *)
let of_public ctx v = { a = Zn.norm ctx.Context.ring v; b = 0L }

(** A fresh uniformly-random resharing of [v], with randomness from the
    dealer stream. Used by simulated primitives whose outputs must be
    freshly shared; those primitives account their own communication. *)
let fresh_of_value ctx v =
  let ring = ctx.Context.ring in
  let a = Zn.random ring ctx.Context.dealer in
  { a; b = Zn.sub ring (Zn.norm ring v) a }

(** The counterparty sends its share to [receiver], who reconstructs. *)
let reveal_to ctx receiver t =
  let ring = ctx.Context.ring in
  Context.send ctx ~from:(Party.other receiver) ~bits:(Zn.bits ring);
  Context.bump_rounds ctx 1;
  Zn.add ring t.a t.b

(** Batched reveal: one message carrying all of the counterparty's shares
    (a single round regardless of the batch size). *)
let reveal_batch ctx receiver shares =
  let ring = ctx.Context.ring in
  Context.send ctx ~from:(Party.other receiver)
    ~bits:(Array.length shares * Zn.bits ring);
  Context.bump_rounds ctx 1;
  Array.map (fun t -> Zn.add ring t.a t.b) shares

(* Linear operations: local, no communication. *)

let add ctx x y =
  let ring = ctx.Context.ring in
  { a = Zn.add ring x.a y.a; b = Zn.add ring x.b y.b }

let sub ctx x y =
  let ring = ctx.Context.ring in
  { a = Zn.sub ring x.a y.a; b = Zn.sub ring x.b y.b }

let neg ctx x =
  let ring = ctx.Context.ring in
  { a = Zn.neg ring x.a; b = Zn.neg ring x.b }

(** Add a public constant (applied to Alice's share by convention). *)
let add_public ctx x c =
  let ring = ctx.Context.ring in
  { x with a = Zn.add ring x.a (Zn.norm ring c) }

(** Multiply by a public constant. *)
let scale_public ctx x c =
  let ring = ctx.Context.ring in
  let c = Zn.norm ring c in
  { a = Zn.mul ring x.a c; b = Zn.mul ring x.b c }

let zero = { a = 0L; b = 0L }

let sum ctx = function
  | [] -> zero
  | first :: rest -> List.fold_left (add ctx) first rest

(* One cross term [x·y] mod 2^l of a Gilboa product: the sender holds
   [x], the receiver holds [y], and the OT for bit [i] of [y] carries
   [x] mod 2^(l-i) as its correlation (bits at or above l - i vanish once
   scaled by 2^i). Each OT is a dealer-supplied random OT — (m0, m1) to
   the sender, (c, m_c) to the receiver — derandomized online: the
   receiver sends e = y_i xor c, the sender keeps m_e and sends the one
   (l-i)-bit correction d = m_e + x - m_(1-e), and the receiver holds
   m_c + y_i·d = m_e + y_i·x. Returns (sender's share, receiver's
   share). *)
let cross_term ring dealer ~x ~y =
  let l = Zn.bits ring in
  let s = ref 0L and r = ref 0L in
  for i = 0 to l - 1 do
    let w = l - i in
    let m0 = Prg.bits dealer w in
    let m1 = Prg.bits dealer w in
    let c = Prg.bool dealer in
    let mc = if c then m1 else m0 in
    let b = Int64.logand (Int64.shift_right_logical y i) 1L = 1L in
    let e = b <> c in
    let keep, other = if e then (m1, m0) else (m0, m1) in
    let mask = Int64.pred (Int64.shift_left 1L w) in
    let d = Int64.logand (Int64.sub (Int64.add keep x) other) mask in
    let t = if b then Int64.add mc d else mc in
    s := Int64.sub !s (Int64.shift_left keep i);
    r := Int64.add !r (Int64.shift_left t i)
  done;
  (Zn.norm ring !s, Zn.norm ring !r)

(** Batched product of shared values (DESIGN.md §2): x_A·y_A and x_B·y_B
    locally, each cross term by l correlated OTs. Two rounds for the whole
    batch — the receivers' choice corrections, then the senders' OT
    corrections, one message per direction each. *)
let mul_batch ctx xs ys =
  let m = Array.length xs in
  if Array.length ys <> m then
    invalid_arg
      (Printf.sprintf "Secret_share.mul_batch: %d left operands, %d right" m
         (Array.length ys));
  if m = 0 then [||]
  else
    Context.with_span ctx "ot:mul" @@ fun () ->
    let ring = ctx.Context.ring in
    let l = Zn.bits ring in
    let choice_bits, correction_bits =
      Cost_model.ot_product_bits ~bits:l
    in
    Context.bump ctx Trace_sink.Ots (2 * m * l);
    Context.send ctx ~from:Party.Alice ~bits:(m * choice_bits);
    Context.send ctx ~from:Party.Bob ~bits:(m * choice_bits);
    Context.send ctx ~from:Party.Alice ~bits:(m * correction_bits);
    Context.send ctx ~from:Party.Bob ~bits:(m * correction_bits);
    Context.bump_rounds ctx 2;
    match ctx.Context.gc_backend with
    | Context.Sim ->
        Array.map2
          (fun x y ->
            fresh_of_value ctx (Zn.mul ring (reconstruct ctx x) (reconstruct ctx y)))
          xs ys
    | Context.Real ->
        let dealer = ctx.Context.dealer in
        Array.map2
          (fun x y ->
            (* Alice sends for x_A·y_B, Bob sends for x_B·y_A *)
            let ab_a, ab_b = cross_term ring dealer ~x:x.a ~y:y.b in
            let ba_b, ba_a = cross_term ring dealer ~x:x.b ~y:y.a in
            { a = Zn.add ring (Zn.add ring (Zn.mul ring x.a y.a) ab_a) ba_a;
              b = Zn.add ring (Zn.add ring (Zn.mul ring x.b y.b) ab_b) ba_b })
          xs ys

let pp fmt t = Fmt.pf fmt "[[a=%Ld;b=%Ld]]" t.a t.b
