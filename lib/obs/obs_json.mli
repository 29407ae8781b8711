(** Minimal JSON values: enough to emit Chrome traces and benchmark
    artifacts, and to parse them back in tests — with no dependency on
    an external JSON library.

    The printer always produces syntactically valid JSON: strings are
    escaped per RFC 8259, control characters become [\uXXXX] escapes,
    and non-finite floats (which JSON cannot represent) are mapped to
    [null] (NaN) or [±1e999] (infinities, which parse back as such).
    Floats print as {!float_to_string}, so a finite float parses back
    to itself.  The one exception to validity is {!Raw}, whose text is
    copied as given.

    The parser accepts any RFC 8259 document, including [\uXXXX]
    escapes and surrogate pairs (decoded to UTF-8).  It is meant for
    round-trip testing and small artifacts, not for streaming. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
      (** Object fields in insertion order; duplicate keys are kept
          as-is (the accessors return the first). *)
  | Raw of string
      (** JSON text printed once and carried as bytes: the printers copy
          it verbatim (no validation, no re-indentation), the parser
          never produces it, and every accessor returns [None] on it.
          Its producer answers for the text being one valid JSON value
          in the compact form {!to_string} would print. *)

val write : Buffer.t -> t -> unit
(** [write buf v] appends the compact text of [v] to [buf]: the bytes
    [to_string v] returns.  The printers keep no state between calls,
    so any domain may print. *)

val to_string : ?pretty:bool -> t -> string
(** [to_string v] serializes [v] to a valid JSON document.
    @param pretty when [true], indent with two spaces per level
    (default [false]: single line, no spaces). *)

val float_to_string : float -> string
(** The JSON text of a float: [null] for NaN, [1e999] / [-1e999] for
    the infinities, otherwise the [%.12g] form when it reads back as the
    same float and the [%.17g] form when it does not.  The bytes are
    those of the two-[Printf] definition [let s = Printf.sprintf
    "%.12g" f in if float_of_string s = f then s else Printf.sprintf
    "%.17g" f].  [±0] and the normal floats with 1e-4 <= |f| < 1e16
    are printed with integer arithmetic and no C call, and {!write}
    appends them to its buffer without allocating.  The other floats,
    and the rare one in that range next to a 12-digit decimal, go
    through the definition itself. *)

val of_string : string -> (t, string) result
(** [of_string s] parses one JSON document occupying all of [s]
    (surrounding whitespace allowed).
    @return [Error msg] — with a character position — on malformed
    input or trailing garbage; never raises. *)

val member : string -> t -> t option
(** [member key v] is the value of field [key] if [v] is an [Obj]
    containing it, else [None]. *)

val to_list : t -> t list option
(** [to_list v] is the elements if [v] is a [List]. *)

val to_float : t -> float option
(** [to_float v] is the numeric value of an [Int] or [Float]. *)

val to_int : t -> int option
(** [to_int v] is the value of an [Int] (floats are not coerced). *)

val to_string_val : t -> string option
(** [to_string_val v] is the payload of a [String]. *)
