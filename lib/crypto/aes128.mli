(** AES-128 encryption (FIPS 197), used as a fixed-key permutation for
    fast garbled-circuit key derivation. Encryption only; validated
    against the FIPS-197 vectors. Two cores compute the same function:
    AES-NI through a C stub on an x86-64 CPU that has it, chosen once at
    module initialisation ({!hardware}), and a pure-OCaml T-table core
    ({!Table}) everywhere else. The T-table core is also the oracle the
    tests compare the stub with. The per-gate hashes allocate nothing
    and keep no domain-local state on either core, so they are safe
    under parallel garbling. *)

(** A fresh copy of the AES S-box, derived from the GF(2^8) arithmetic
    (test hook). The table itself stays private: the core reads it
    unchecked. *)
val sbox : unit -> int array

type schedule

(** @raise Invalid_argument unless the key is 16 bytes. *)
val expand_key : Bytes.t -> schedule

(** Whether the entry points below run on AES-NI ([true]) or on the
    T-table core. Read-only: it is a CPUID check made at module
    initialisation, and nothing selects the core. *)
val hardware : bool

(** One block in FIPS-197 byte order. No protocol path calls it: it is
    how the FIPS vectors in the tests reach the hardware core, which the
    hashes below otherwise reach only through their tweaked input.

    @raise Invalid_argument unless the block is 16 bytes. *)
val encrypt_block : schedule -> Bytes.t -> Bytes.t

(** The fixed key schedule of every correlation-robust hash: garbling, OT
    extension rows, cuckoo bins and OPPRF outputs. Expanded at module
    initialization (no lazy check on the hot path). *)
val fixed_key : schedule

(** Fixed-key correlation-robust hash for wire labels under an explicit
    pre-expanded schedule: H(x, tweak) = pi(x') XOR x' with x' derived
    from x and the tweak. All 64 bits of the tweak count. *)
val label_hash_with : schedule -> tweak:int64 -> int64 * int64 -> int64 * int64

(** {!label_hash_with} under {!fixed_key}. *)
val label_hash : tweak:int64 -> int64 * int64 -> int64 * int64

(** [label_hash_hi sched ~tweak hi lo] is the high word of
    [label_hash_with sched ~tweak (hi, lo)], for callers that need 64
    bits: one AES block, not two. The PSI's hash families (cuckoo bins,
    OPPRF outputs) run on it. *)
val label_hash_hi : schedule -> tweak:int64 -> int64 -> int64 -> int64

(** The four hashes of a garbled half-gates AND in one call:
    [garble_and_hashes sched ~tweak src a b dst doff] reads the labels
    A = [src.(a, a+16)] and B = [src.(b, b+16)] and the free-XOR offset
    Δ at [dst.(doff, doff+16)], and writes H(A, j), H(A ⊕ Δ, j),
    H(B, j+1) and H(B ⊕ Δ, j+1) at [dst] offsets [doff + 16], [+ 32],
    [+ 48] and [+ 64], where j = [Int64.of_int tweak] and j+1 is its
    int64 successor. Each label is two native-order int64s, [hi] then
    [lo]. Offsets are {e not} bounds-checked (callers size their planes
    from the circuit before the loop); the call allocates nothing; the
    written range must not overlap A or B. *)
val garble_and_hashes :
  schedule -> tweak:int -> Bytes.t -> int -> int -> Bytes.t -> int -> unit

(** The two hashes of an evaluated half-gates AND in one call: writes
    H(A, j) at [dst.(doff, doff+16)] and H(B, j+1) at [doff + 16], with
    A, B and j as in {!garble_and_hashes}. *)
val eval_and_hashes : schedule -> tweak:int -> Bytes.t -> int -> int -> Bytes.t -> int -> unit

(** The T-table core by name: the fallback the entry points above run
    when {!hardware} is [false], and the differential oracle for the
    hardware core. Same contracts as the entry points of the same
    name. *)
module Table : sig
  val encrypt_block : schedule -> Bytes.t -> Bytes.t
  val label_hash_with : schedule -> tweak:int64 -> int64 * int64 -> int64 * int64
  val label_hash_hi : schedule -> tweak:int64 -> int64 -> int64 -> int64
end
