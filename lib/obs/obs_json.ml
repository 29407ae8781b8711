type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string

(* ---------- printing ---------- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  (* copy runs of plain bytes in one blit; escape the rest *)
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !run (i - !run);
      run := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
    end
  done;
  Buffer.add_substring buf s !run (n - !run);
  Buffer.add_char buf '"'

external format_float : string -> float -> string = "caml_format_float"

(* The shortest of %.12g and %.17g that round-trips, by its
   definition: the floats outside the integer window below, and the
   rare ones inside it next to a 12-digit decimal *)
let primitive_float_to_string f =
  if Float.is_nan f then "null"
  else if f = Float.infinity then "1e999"
  else if f = Float.neg_infinity then "-1e999"
  else
    let s = format_float "%.12g" f in
    if float_of_string s = f then s else format_float "%.17g" f

(* ---- the integer writer: normal |x| in [1e-4, 1e16) ----

   x = m 2^e with m in [2^52, 2^53).  With k its decimal exponent and
   q = 16 - k, its 17 significant digits are the integer
   D = round-half-even(m 5^q 2^(e+q)), and in the window 1 <= q <= 21
   and -46 <= e + q <= 2.  D is what %.17g prints.
   - Digits 13-17 of D all zero: %.12g prints the same digits, so it
     round-trips.
   - Digits 13-17 at least 12 units of the 17th digit from a 12-digit
     decimal: half an ulp of a normal float is under 10^17 / 2^53 <
     11.1 such units, so no 12-digit decimal reads back as x, and the
     %.17g form is printed.
   - Otherwise x is next to a 12-digit decimal, and the definition
     above decides. *)

(* 5^q < 2^52 for q <= 22 *)
let pow5 =
  let a = Array.make 23 1 in
  for q = 1 to 22 do
    a.(q) <- 5 * a.(q - 1)
  done;
  a

let mask26 = (1 lsl 26) - 1
let mask52 = (1 lsl 52) - 1
let ten17 = 100_000_000_000_000_000

(* round-half-even(m 5^q 2^(e+q)).  The product is hi 2^52 + lo from
   26-bit halves; every result is below 10^18, so the shift loses no
   high bit *)
let scaled m e q =
  let p = Array.unsafe_get pow5 q in
  let mh = m lsr 26 and ml = m land mask26 and ph = p lsr 26 and pl = p land mask26 in
  let mid = (mh * pl) + (ml * ph) in
  let lo = (ml * pl) + ((mid land mask26) lsl 26) in
  let hi = (mh * ph) + (mid lsr 26) + (lo lsr 52) in
  let lo = lo land mask52 in
  let r = -(e + q) in
  if r <= 0 then ((hi lsl 52) lor lo) lsl -r
  else
    let t = (hi lsl (52 - r)) lor (lo lsr r) in
    let rem = lo land ((1 lsl r) - 1) and half = 1 lsl (r - 1) in
    if rem > half || (rem = half && t land 1 = 1) then t + 1 else t

(* 10^j for j <= 17 *)
let pow10 j = Array.unsafe_get pow5 j lsl j

(* the 8 decimal digits of [v] < 10^8 in ASCII, first digit in the low
   byte: two digits per 16-bit lane, then one per byte, each by a
   multiply and shift (n / 100 = n * 5243 >> 19 for n < 43,699, and
   n / 10 = n * 103 >> 10 for n < 179) *)
let swar8 v =
  let x = (v / 10000) lor ((v mod 10000) lsl 32) in
  let h = ((x * 5243) lsr 19) land 0x0000007F0000007F in
  let x = h lor ((x - (h * 100)) lsl 16) in
  let t = ((x * 103) lsr 10) land 0x000F000F000F000F in
  t lor ((x - (t * 10)) lsl 8) lor 0x3030303030303030

(* the [w] >= 1 low decimal digits of [v], zero-padded: eight-byte
   writes, the last one cut back to its digits *)
let rec add_fixed buf v w =
  if w > 8 then begin
    add_fixed buf (v / 100_000_000) (w - 8);
    Buffer.add_int64_le buf (Int64.of_int (swar8 (v mod 100_000_000)))
  end
  else begin
    let pos = Buffer.length buf in
    Buffer.add_int64_le buf (Int64.of_int (swar8 v lsr (8 * (8 - w))));
    Buffer.truncate buf (pos + w)
  end

let add_zeros buf n =
  for _ = 1 to n do
    Buffer.add_char buf '0'
  done

(* %.<p>g of v 10^(k-n+1), for [v] of [n] digits with trailing zeros
   allowed; -4 <= k < 17 *)
let add_g buf v n k p =
  let v = ref v and n = ref n in
  while !v mod 10 = 0 do
    v := !v / 10;
    decr n
  done;
  let v = !v and n = !n in
  if k >= p then begin
    let rest = pow10 (n - 1) in
    add_fixed buf (v / rest) 1;
    if n > 1 then begin
      Buffer.add_char buf '.';
      add_fixed buf (v mod rest) (n - 1)
    end;
    Buffer.add_string buf "e+";
    add_fixed buf k 2
  end
  else if k < 0 then begin
    Buffer.add_string buf "0.";
    add_zeros buf (-k - 1);
    add_fixed buf v n
  end
  else if n <= k + 1 then begin
    add_fixed buf v n;
    add_zeros buf (k + 1 - n)
  end
  else begin
    let frac = pow10 (n - k - 1) in
    add_fixed buf (v / frac) (k + 1);
    Buffer.add_char buf '.';
    add_fixed buf (v mod frac) (n - k - 1)
  end

(* [bits] of a positive x in the window *)
let add_window buf bits =
  let m = bits land mask52 lor (1 lsl 52) and e = ((bits lsr 52) land 0x7FF) - 1075 in
  (* floor((e + 52) log10 2): x's decimal exponent or one less, which
     shows as 18 digits *)
  let k = ref (((e + 52) * 78913) asr 18) in
  let q = 16 - !k in
  let d = ref (scaled m e q) in
  if !d >= ten17 then begin
    incr k;
    d := scaled m e (q - 1)
  end;
  if !d = ten17 then begin
    incr k;
    d := ten17 / 10
  end;
  let d = !d and k = !k in
  let t = d mod 100000 in
  if t = 0 then add_g buf (d / 100000) 12 k 12
  else if Int.min t (100000 - t) >= 12 then add_g buf d 17 k 17
  else
    (* [Int64.of_int] extends bit 62, the top exponent bit, into the sign *)
    Buffer.add_string buf (primitive_float_to_string (Float.abs (Int64.float_of_bits (Int64.of_int bits))))

let add_float buf f =
  if f = 0.0 then Buffer.add_string buf (if Float.sign_bit f then "-0" else "0")
  else
    let x = Float.abs f in
    if x >= 1e-4 && x < 1e16 then begin
      if f < 0.0 then Buffer.add_char buf '-';
      add_window buf (Int64.to_int (Int64.bits_of_float x))
    end
    else Buffer.add_string buf (primitive_float_to_string f)

let float_to_string f =
  let buf = Buffer.create 24 in
  add_float buf f;
  Buffer.contents buf

(* digit by digit: [string_of_int] is a C snprintf call *)
let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> if i >= 0 then add_nat buf i else Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | String s -> escape_to buf s
  | Raw s -> Buffer.add_string buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_to buf k;
        Buffer.add_char buf ':';
        write buf v)
      kvs;
    Buffer.add_char buf '}'

let rec write_indented buf indent = function
  | List (_ :: _ as xs) ->
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (String.make (indent + 2) ' ');
        write_indented buf (indent + 2) x)
      xs;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_char buf ']'
  | Obj (_ :: _ as kvs) ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf (String.make (indent + 2) ' ');
        escape_to buf k;
        Buffer.add_string buf ": ";
        write_indented buf (indent + 2) v)
      kvs;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_char buf '}'
  | other -> write buf other

let to_string ?(pretty = false) v =
  let buf = Buffer.create 1024 in
  if pretty then write_indented buf 0 v else write buf v;
  Buffer.contents buf

(* ---------- parsing ---------- *)

exception Parse_error of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> error (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else error (Printf.sprintf "expected %s" word)
  in
  let add_utf8 buf cp =
    (* encode one Unicode scalar value as UTF-8 *)
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then error "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then error "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then error "truncated escape";
         (match s.[!pos] with
         | '"' -> advance (); Buffer.add_char buf '"'
         | '\\' -> advance (); Buffer.add_char buf '\\'
         | '/' -> advance (); Buffer.add_char buf '/'
         | 'n' -> advance (); Buffer.add_char buf '\n'
         | 't' -> advance (); Buffer.add_char buf '\t'
         | 'r' -> advance (); Buffer.add_char buf '\r'
         | 'b' -> advance (); Buffer.add_char buf '\b'
         | 'f' -> advance (); Buffer.add_char buf '\012'
         | 'u' ->
           advance ();
           let cp = hex4 () in
           let cp =
             (* surrogate pair *)
             if cp >= 0xD800 && cp <= 0xDBFF && !pos + 2 <= n && s.[!pos] = '\\'
                && !pos + 1 < n && s.[!pos + 1] = 'u'
             then begin
               pos := !pos + 2;
               let lo = hex4 () in
               0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
             end
             else cp
           in
           add_utf8 buf cp
         | c -> error (Printf.sprintf "bad escape \\%C" c)));
        go ()
      | c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
        advance ()
      done
    in
    digits ();
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if text = "" || text = "-" then error "bad number";
    if !is_float then Float (float_of_string text)
    else match int_of_string_opt text with Some i -> Int i | None -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> error "expected ',' or '}'"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> error "expected ',' or ']'"
        in
        List (elements [])
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match parse_value () with
  | v ->
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "at %d: trailing garbage" !pos) else Ok v
  | exception Parse_error (p, msg) -> Error (Printf.sprintf "at %d: %s" p msg)
  | exception Failure msg -> Error msg

(* ---------- accessors ---------- *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let to_list = function List xs -> Some xs | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_string_val = function String s -> Some s | _ -> None
