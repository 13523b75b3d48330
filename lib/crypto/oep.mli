(** Oblivious extended permutation (paper §5.4, Mohassel–Sadeghian): map a
    shared length-M vector through a private function xi : [N] -> [M],
    producing a freshly-shared length-N vector y_i = x_{xi(i)}.

    Each network is sized to the map it realizes: an extended map costs
    S(max(M,N)) + N + S(N) switches, an injective one S(M), S being the
    Beneš count ([Permutation_network.switch_count_for]). The networks
    are actually constructed and programmed, so switch counts (hence the
    accounted communication) are exact; their oblivious evaluation is
    realized through the dealer model (DESIGN.md §2.5). *)

(** The programmer's controls. [Extended]: [perm1] over max(m, n) wires,
    then the duplication chain (byte [k] copies wire [k - 1] onto wire
    [k] when ['\001']) over the first n, then [perm2] over those n.
    [Injective]: one network over the m sources whose first [n_outputs]
    outputs carry xi. *)
type program =
  | Extended of {
      perm1 : Permutation_network.t;
      dup_ctrl : Bytes.t;
      perm2 : Permutation_network.t;
    }
  | Injective of { n_outputs : int; perm : Permutation_network.t }

(** Program the networks realizing [xi] over [m] sources.

    @raise Invalid_argument when some [xi] value is outside [0, m). *)
val program : m:int -> int array -> program

(** Program the one network realizing an injective [xi] over [m] sources.

    @raise Invalid_argument when some [xi] value is outside [0, m) or
    repeats an earlier one. *)
val program_injective : m:int -> int array -> program

val n_switches : program -> int

(** Reference clear-data evaluation of the programmed networks; lets the
    tests verify that a program really realizes xi. *)
val apply_clear : program -> 'a array -> 'a array

(** Obliviously map a shared vector through [xi] held by [holder]. *)
val apply_shared :
  Context.t ->
  holder:Party.t ->
  xi:int array ->
  m:int ->
  Secret_share.t array ->
  Secret_share.t array

(** [apply_shared] for an injective [xi] (traced as [oep:permute]).

    @raise Invalid_argument when [xi] repeats a value. *)
val permute_shared :
  Context.t ->
  holder:Party.t ->
  xi:int array ->
  m:int ->
  Secret_share.t array ->
  Secret_share.t array
