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
    escapes and surrogate pairs (decoded to UTF-8), and a few forms
    beyond it: [1.], [.5] and [01] are numbers.  It is one {!cursor}
    over the text: {!of_string} builds a tree with {!value}, and a
    typed reader (the serve daemon's request decoder) walks the same
    grammar with the same errors, reading numbers straight into float
    arrays with {!float_into}.  Trees are still built for journal
    replay, snapshots, replies read back and tests. *)

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
    (surrounding whitespace allowed): [parse_with s value].
    @return [Error "at N: msg"] — N the byte position — on malformed
    input or trailing garbage; never raises.  Lists and objects nest at
    most 1,000 deep: the bracket that would open level 1,001 is
    [Error "at N: nesting too deep"], so no text can exhaust the stack.

    A number without ['.'] or an exponent is an [Int] when
    [int_of_string] reads it, and otherwise a [Float]; every [Float]
    is the double [float_of_string] returns for its text, bit for bit.
    Most are found without it: by Clinger's fast path (a mantissa below
    2{^53} times or over an exact power of ten), then by Eisel–Lemire
    (Lemire, "Number Parsing at a Gigabyte per Second", 2021) on a
    mantissa of at most 19 significant digits, with [float_of_string]
    as the fallback whenever the 128-bit product cannot prove the
    rounding, the result is subnormal or out of range, or more digits
    are significant.  Reading a number allocates nothing but the tree
    node. *)

(** {2 The cursor}

    The reader behind {!of_string}, for callers that read one known
    shape without building its tree.  Each function below reads what
    {!value} would at the same place, with the same errors. *)

type cursor
(** A position in the text being parsed.  Not shared between domains. *)

val parse_with : string -> (cursor -> 'a) -> ('a, string) result
(** [parse_with s read] runs [read] on a cursor at the start of [s],
    then requires nothing but whitespace after it.  A malformed text
    is [Error "at N: msg"], as for {!of_string}; exceptions other than
    the cursor's own pass through. *)

val peek : cursor -> char
(** Skips whitespace and returns the next byte, ['\000'] at the end of
    the text.  Its value starts with ['{'] (object), ['['] (list),
    ['"'] (string), ['t'], ['f'] or ['n'] (literals), or else is read
    as a number. *)

val value : cursor -> t
(** Reads one value as a tree. *)

val float_into : cursor -> float array -> int -> bool
(** [float_into c dst i]: when the next value is read as a number,
    reads it, stores its {!to_float} in [dst.(i)] and returns [true];
    otherwise reads nothing and returns [false]. *)

val list_open : cursor -> bool
(** Reads the ['['] at the cursor (after whitespace) and returns
    whether the list has elements; an empty list is read whole.  Read
    each element, then call {!list_next}. *)

val list_next : cursor -> bool
(** After an element: [true] past a [','] (another element follows),
    [false] past the closing [']']. *)

val obj_open : cursor -> bool
(** Reads the ['{'] at the cursor (after whitespace) and returns
    whether the object has members; an empty object is read whole.
    Read each member's key with {!obj_key}, then its value, then call
    {!obj_next}. *)

val obj_key : cursor -> string
(** Reads a member's key and the [':'] after it. *)

val obj_next : cursor -> bool
(** After a member's value: [true] past a [','], [false] past the
    closing ['}']. *)

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
