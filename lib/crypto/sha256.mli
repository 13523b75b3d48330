(** SHA-256 (FIPS 180-4), pure OCaml: the collision-resistant digest
    behind tuple encodings and checkpoint fingerprints. Every
    correlation-robust hash (garbling, OT extension rows, PSI bins, OPPRF
    outputs) runs on fixed-key AES instead ({!Aes128}). Validated against
    the FIPS test vectors. *)

type ctx

val init : unit -> ctx

(** Stream [len] bytes of [src] starting at [pos] into the state. *)
val feed : ctx -> Bytes.t -> int -> int -> unit

(** Finalize and return the 32-byte digest. *)
val finish : ctx -> Bytes.t

val digest_bytes : Bytes.t -> Bytes.t
val digest_string : string -> Bytes.t
val to_hex : Bytes.t -> string
