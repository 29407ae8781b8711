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

(* The shortest of %.12g and %.17g that round-trips, from one C
   %.17g call in the common cases.  [s] = %.17g of [f] is exact to
   half a unit of its 17th significant digit.
   - At most 12 significant digits: %.12g prints the same digits, so it
     round-trips; below decimal exponent 12 both formats pick the same
     notation and the strings are equal.
   - More than 12, [f] normal: [d] is the distance from [s] to the
     nearest 12-digit decimal in units of the 17th digit.  Half an ulp
     of a normal float is under 10^17 / 2^53 < 11.1 such units, so at
     [d >= 12] no 12-digit decimal reads back as [f].
   - Otherwise (near a 12-digit decimal, or subnormal): try %.12g. *)
let float_to_string f =
  if Float.is_nan f then "null"
  else if f = Float.infinity then "1e999"
  else if f = Float.neg_infinity then "-1e999"
  else begin
    let s = format_float "%.17g" f in
    let n = String.length s in
    (* one pass over the mantissa: [k] digits seen, [first]/[last] the
       ordinals of the first and last nonzero digit, [point] the digits
       before '.', [t] digits 13-17 counted from [first] *)
    let k = ref 0 and first = ref (-1) and last = ref (-1) in
    let point = ref (-1) and t = ref 0 and exp_form = ref false and i = ref 0 in
    while !i < n && not !exp_form do
      (match String.unsafe_get s !i with
      | '0' .. '9' as c ->
        if c <> '0' then begin
          if !first < 0 then first := !k;
          last := !k
        end;
        if !first >= 0 && !k - !first >= 12 && !k - !first < 17 then
          t := (10 * !t) + (Char.code c - 48);
        incr k
      | '.' -> point := !k
      | 'e' -> exp_form := true
      | _ -> ());
      incr i
    done;
    if !first < 0 then s
    else if !last - !first < 12 then
      (* %.17g prints integers of up to 17 digits in full, %.12g only
         up to 12: past that, %.12g switches to e-notation *)
      if (not !exp_form) && !point < 0 && !k >= 13 then format_float "%.12g" f else s
    else begin
      (* %g drops trailing zeros: pad [t] back to five digits *)
      for _ = !k - !first - 12 to 4 do
        t := 10 * !t
      done;
      let d = Int.min !t (100000 - !t) in
      if d >= 12 && Float.abs f >= Float.min_float then s
      else
        let s12 = format_float "%.12g" f in
        if float_of_string s12 = f then s12 else s
    end
  end

(* digit by digit: [string_of_int] is a C snprintf call *)
let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> if i >= 0 then add_nat buf i else Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_to_string f)
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
