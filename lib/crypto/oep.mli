(** Oblivious extended permutation (paper §5.4, Mohassel–Sadeghian): map a
    shared length-M vector through a private function xi : [N] -> [M],
    producing a freshly-shared length-N vector y_i = x_{xi(i)}.

    The Benes permutation networks and the duplication layer are actually
    constructed and programmed, so switch counts (hence the accounted
    O~((M+N) log(M+N)) communication) are exact; their oblivious
    evaluation is realized through the dealer model (DESIGN.md §2.5). *)

(** The programmer's controls: [perm1], then the duplication chain (byte
    [k] copies wire [k - 1] onto wire [k] when ['\001']), then [perm2],
    over [n_sources + n_outputs] wires. *)
type program = {
  n_sources : int;
  n_outputs : int;
  perm1 : Permutation_network.t;
  dup_ctrl : Bytes.t;
  perm2 : Permutation_network.t;
}

(** Program the networks realizing [xi] over [m] sources.

    @raise Invalid_argument when some [xi] value is outside [0, m). *)
val program : m:int -> int array -> program

val n_switches : program -> int

(** Reference clear-data evaluation of the programmed networks; lets the
    tests verify that [program] really realizes xi. *)
val apply_clear : program -> 'a array -> 'a array

(** Obliviously map a shared vector through [xi] held by [holder]. *)
val apply_shared :
  Context.t ->
  holder:Party.t ->
  xi:int array ->
  m:int ->
  Secret_share.t array ->
  Secret_share.t array

(** Variant for a vector held in clear by one party (§5.4's base case);
    output is shared. *)
val apply_clear_input :
  Context.t -> holder:Party.t -> xi:int array -> m:int -> int64 array -> Secret_share.t array
