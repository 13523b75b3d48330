(** Arithmetic secret sharing over Z_{2^l} (paper §5.1).

    [v] is split as v = (a + b) mod 2^l where Alice holds [a] and Bob holds
    [b]; each share alone is uniformly random. Linear operations are local;
    everything else goes through the protocols built on top (garbled
    circuits, PSI, OEP).

    The record exposes both shares because both simulated parties live in
    one process. Protocol code accesses a party's share only through
    [share_of], and reconstruction outside of [reveal_to]/[open_both] is
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

(** Reveal to both parties (each sends its share to the other). *)
let open_both ctx t =
  let ring = ctx.Context.ring in
  Context.send ctx ~from:Party.Alice ~bits:(Zn.bits ring);
  Context.send ctx ~from:Party.Bob ~bits:(Zn.bits ring);
  Context.bump_rounds ctx 1;
  Zn.add ring t.a t.b

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

let pp fmt t = Fmt.pf fmt "[[a=%Ld;b=%Ld]]" t.a t.b
