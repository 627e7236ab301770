(** Minimal JSON tree (no external dependency): the printer behind
    every JSON document the repo emits, and the parser for fault plans
    and reports. Strings are byte strings: the printer escapes quotes,
    backslashes and control bytes and passes every other byte through,
    so UTF-8 stays UTF-8. On parse, a [\uXXXX] escape (exactly four
    hex digits) decodes to the UTF-8 bytes of its code point, a
    surrogate pair to the one code point it encodes, and a lone
    surrogate is a [Parse_error]. Numbers parse to [Int] when integral,
    [Float] otherwise. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(** Compact (single-line) rendering; keys and strings escaped. A
    finite [Float] prints as the shortest of [%.15g]/[%.16g]/[%.17g]
    that reads back exactly, with [".0"] appended when that text has
    neither a ['.'] nor an exponent (so it reads back as [Float], not
    [Int]); nan and the infinities print as [null]. *)
val to_string : t -> string

(** @raise Parse_error on malformed input (message carries the byte
    offset). *)
val of_string : string -> t

(** Field lookup on [Obj]; [None] for other constructors or missing
    keys. *)
val member : string -> t -> t option

(** Field [key] of an object, [Null] when absent. *)
val field : string -> t -> t

val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option

(** Checked accessors; [ctx] names the field in the [Parse_error].
    @raise Parse_error on constructor mismatch. *)
val get_int : ctx:string -> t -> int

val get_str : ctx:string -> t -> string
val get_list : ctx:string -> t -> t list
