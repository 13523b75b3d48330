(** TPC-H queries beyond the paper's evaluation set: Q1 (single-relation
    aggregate — the degenerate join tree), Q4 (EXISTS subquery, handled
    like Q18's IN-subquery), and Q14 (promo revenue share, a ratio
    composition like Q8). *)

open Secyan_crypto

(** Q1 restricted to one aggregate: revenue per return flag for lineitems
    shipped before 1998-09-02. *)
val q1 : Datagen.dataset -> Secyan.Query.t

(** Q4: orders of the quarter from 1993-07-01 with at least one late
    lineitem, counted per ship priority; the EXISTS subquery is computed
    locally by the lineitem owner and padded to |lineitem|. *)
val q4 : Datagen.dataset -> Secyan.Query.t

(** Q14's inner query over September 1995: revenue of lineitem x part,
    of promo parts only when [promo_only]. *)
val q14_inner : Datagen.dataset -> promo_only:bool -> Secyan.Query.t

type q14_result = {
  promo_share_millis : int64;  (** promo revenue / total revenue x 1000 *)
  tally : Comm.tally;
  seconds : float;
}

(** Composed Q14: two scalar aggregates with shared outputs, one division
    circuit revealing only the ratio. *)
val run_q14 : Context.t -> Datagen.dataset -> q14_result

val q14_plaintext : Datagen.dataset -> int64
