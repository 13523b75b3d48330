(** Minimal self-contained JSON: compact printer and strict parser.
    Used by the trace exporters and by tests that validate their output;
    deliberately small since the repository carries no JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Compact (no-whitespace) serialization with full string escaping. *)
val to_string : t -> string

(** Strict parse of a complete JSON document; [Error msg] carries the
    byte offset of the failure. *)
val parse : string -> (t, string) result

(** [member key json] is the value bound to [key] when [json] is an
    object containing it. *)
val member : string -> t -> t option

val to_int_opt : t -> int option

(** Accepts both [Float] and [Int] (JSON does not distinguish them). *)
val to_float_opt : t -> float option

val to_string_opt : t -> string option
