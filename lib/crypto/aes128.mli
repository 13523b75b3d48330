(** AES-128 encryption (FIPS 197), pure OCaml, used as a fixed-key
    permutation for fast garbled-circuit key derivation. Encryption only;
    validated against the FIPS-197 vectors. Every entry point runs one
    T-table core over four 32-bit column words held in locals, with a
    44-word key schedule expanded once; the per-gate hash allocates
    nothing and keeps no domain-local state, so it is safe under parallel
    garbling. *)

(** A fresh copy of the AES S-box, derived from the GF(2^8) arithmetic
    (test hook). The table itself stays private: the core reads it
    unchecked. *)
val sbox : unit -> int array

type schedule

(** @raise Invalid_argument unless the key is 16 bytes. *)
val expand_key : Bytes.t -> schedule

(** @raise Invalid_argument unless the block is 16 bytes. *)
val encrypt_block : schedule -> Bytes.t -> Bytes.t

(** The fixed key schedule used by garbling KDFs, expanded at module
    initialization (no lazy check on the hot path). *)
val fixed_key : schedule

(** Fixed-key correlation-robust hash for wire labels under an explicit
    pre-expanded schedule: H(x, tweak) = pi(x') XOR x' with x' derived
    from x and the tweak. *)
val label_hash_with : schedule -> tweak:int64 -> int64 * int64 -> int64 * int64

(** {!label_hash_with} under {!fixed_key}. *)
val label_hash : tweak:int64 -> int64 * int64 -> int64 * int64

(** The label hash over [Bytes] planes, for the unboxed garbling kernels:
    reads the label at [src.(soff, soff+16)] ([hi] then [lo], native byte
    order), writes H(label, tweak) at [dst.(doff, doff+16)] in the same
    layout. Bit-identical to {!label_hash_with} at the same tweak value,
    but every intermediate stays unboxed — the call allocates nothing.
    Offsets are {e not} bounds-checked (callers size their planes from
    the circuit before the loop); [src == dst] is fine as long as the
    ranges do not overlap. *)
val label_hash_bytes : schedule -> tweak:int -> Bytes.t -> int -> Bytes.t -> int -> unit
