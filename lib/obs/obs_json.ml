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

(* One cursor over the text serves the tree parser ([value]) and typed
   readers alike.  [scratch] holds the 128-bit products of the number
   step and [num] the float view of the number just read, and
   [int_value] its value when it is an [Int], so that reading a number
   allocates nothing.  [depth] counts the lists and objects open at
   [pos]. *)
type cursor = {
  text : string;
  mutable pos : int;
  mutable depth : int;
  mutable int_value : int;
  scratch : int array;
  num : float array;
}

exception Parse_error of int * string

let error c msg = raise (Parse_error (c.pos, msg))

let skip_ws c =
  let s = c.text in
  let p = ref c.pos in
  while
    !p < String.length s
    && match String.unsafe_get s !p with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    incr p
  done;
  c.pos <- !p

let at c ch = c.pos < String.length c.text && String.unsafe_get c.text c.pos = ch

let peek c =
  skip_ws c;
  if c.pos < String.length c.text then String.unsafe_get c.text c.pos else '\000'

let expect c ch = if at c ch then c.pos <- c.pos + 1 else error c (Printf.sprintf "expected %C" ch)

let rec matches s pos word i =
  i = String.length word || (String.unsafe_get s (pos + i) = String.unsafe_get word i && matches s pos word (i + 1))

let literal c word v =
  if c.pos + String.length word <= String.length c.text && matches c.text c.pos word 0 then begin
    c.pos <- c.pos + String.length word;
    v
  end
  else error c ("expected " ^ word)

(* ---- strings ---- *)

(* encode one Unicode scalar value as UTF-8 *)
let add_utf8 buf cp =
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

let hex_digit = function
  | '0' .. '9' as ch -> Char.code ch - 48
  | 'a' .. 'f' as ch -> Char.code ch - 87
  | 'A' .. 'F' as ch -> Char.code ch - 55
  | _ -> -1

(* the four bytes after [\u], read as [int_of_string "0x...."] reads
   them: a hex digit, then hex digits or '_' *)
let hex4 c =
  let s = c.text in
  if c.pos + 4 > String.length s then error c "truncated \\u escape";
  let v = ref (hex_digit s.[c.pos]) in
  if !v < 0 then error c "bad \\u escape";
  for i = c.pos + 1 to c.pos + 3 do
    if s.[i] <> '_' then begin
      let d = hex_digit s.[i] in
      if d < 0 then error c "bad \\u escape";
      v := (!v lsl 4) lor d
    end
  done;
  c.pos <- c.pos + 4;
  !v

(* the rest of a string from a backslash or its end on, into [buf] *)
let rec escaped c buf =
  let s = c.text in
  if c.pos >= String.length s then error c "unterminated string";
  match s.[c.pos] with
  | '"' -> c.pos <- c.pos + 1
  | '\\' ->
    c.pos <- c.pos + 1;
    if c.pos >= String.length s then error c "truncated escape";
    (match s.[c.pos] with
    | 'u' ->
      c.pos <- c.pos + 1;
      let cp = hex4 c in
      let cp =
        (* surrogate pair *)
        if cp >= 0xD800 && cp <= 0xDBFF && c.pos + 2 <= String.length s && s.[c.pos] = '\\'
           && s.[c.pos + 1] = 'u'
        then begin
          c.pos <- c.pos + 2;
          let lo = hex4 c in
          0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
        end
        else cp
      in
      add_utf8 buf cp
    | ch ->
      let out =
        match ch with
        | '"' -> '"'
        | '\\' -> '\\'
        | '/' -> '/'
        | 'n' -> '\n'
        | 't' -> '\t'
        | 'r' -> '\r'
        | 'b' -> '\b'
        | 'f' -> '\012'
        | ch -> error c (Printf.sprintf "bad escape \\%C" ch)
      in
      c.pos <- c.pos + 1;
      Buffer.add_char buf out);
    escaped c buf
  | ch ->
    c.pos <- c.pos + 1;
    Buffer.add_char buf ch;
    escaped c buf

(* a string without escapes is one [String.sub] *)
let string c =
  expect c '"';
  let s = c.text and start = c.pos in
  let p = ref start in
  while !p < String.length s && (let ch = String.unsafe_get s !p in ch <> '"' && ch <> '\\') do
    incr p
  done;
  if !p < String.length s && String.unsafe_get s !p = '"' then begin
    c.pos <- !p + 1;
    String.sub s start (!p - start)
  end
  else begin
    let buf = Buffer.create 16 in
    Buffer.add_substring buf s start (!p - start);
    c.pos <- !p;
    escaped c buf;
    Buffer.contents buf
  end

(* ---- numbers ----

   A number is the longest run of an optional '-', digits, optionally a
   '.' and digits, and optionally an 'e' or 'E', a sign and digits.  It
   must hold a mantissa digit, and an exponent digit after an 'e'.
   Without '.' or 'e' it is [int_of_string]'s [Int] when that fits,
   else [float_of_string]'s [Float].  The float step is exact:
   Clinger's fast path (a mantissa below 2^53 times or over an exact
   power of ten), then Eisel-Lemire (Lemire, "Number Parsing at a
   Gigabyte per Second", 2021) on a mantissa of at most 19 significant
   digits, and [float_of_string] itself whenever neither can prove the
   rounding. *)

let q_min = -348
let q_max = 347
let mask32 = 0xFFFF_FFFF

(* leading zeros of the nonzero 64-bit w1 2^32 + w0 *)
let clz64 w1 w0 =
  let x = ref (if w1 = 0 then w0 else w1) and n = ref (if w1 = 0 then 32 else 0) in
  if !x land 0xFFFF_0000 = 0 then begin
    n := !n + 16;
    x := !x lsl 16
  end;
  if !x land 0xFF00_0000 = 0 then begin
    n := !n + 8;
    x := !x lsl 8
  end;
  if !x land 0xF000_0000 = 0 then begin
    n := !n + 4;
    x := !x lsl 4
  end;
  if !x land 0xC000_0000 = 0 then begin
    n := !n + 2;
    x := !x lsl 2
  end;
  if !x land 0x8000_0000 = 0 then !n + 1 else !n

(* five ints a row for q in [q_min, q_max]: floor(10^q 2^(127 - e)) as
   four 32-bit limbs, most significant first, and e = floor(log2 10^q).
   Built from exact multiples of 5^q and quotients of 2^960 by 5^-q, in
   32-bit limbs least significant first *)
let build_pow10_table () =
  let t = Array.make (5 * (q_max - q_min + 1)) 0 in
  let limb x i = if i >= 0 && i < Array.length x then x.(i) else 0 in
  let bitlen x =
    let i = ref (Array.length x - 1) in
    while x.(!i) = 0 do
      decr i
    done;
    (32 * !i) + 64 - clz64 0 x.(!i)
  in
  let store q x =
    let bits = bitlen x in
    let row = 5 * (q - q_min) in
    for k = 0 to 3 do
      (* floor(x / 2^lo) mod 2^32, for any integer lo *)
      let lo = bits - 128 + (32 * (3 - k)) in
      let i = lo asr 5 and sh = lo land 31 in
      t.(row + k) <- ((limb x i lsr sh) lor (limb x (i + 1) lsl (32 - sh))) land mask32
    done;
    bits
  in
  let x = Array.make 27 0 in
  x.(0) <- 1;
  for q = 0 to q_max do
    if q > 0 then begin
      let carry = ref 0 in
      for i = 0 to Array.length x - 1 do
        let v = (x.(i) * 5) + !carry in
        x.(i) <- v land mask32;
        carry := v lsr 32
      done
    end;
    t.((5 * (q - q_min)) + 4) <- store q x - 1 + q
  done;
  let x = Array.make 31 0 in
  x.(30) <- 1;
  for q = -1 downto q_min do
    let rem = ref 0 in
    for i = Array.length x - 1 downto 0 do
      let v = (!rem lsl 32) lor x.(i) in
      x.(i) <- v / 5;
      rem := v mod 5
    done;
    t.((5 * (q - q_min)) + 4) <- store q x - 1 - 960 + q
  done;
  t

(* built on first use (about 0.1 ms), since most processes never read a
   long decimal; two domains may both build it, and the tables agree *)
let pow10_cache = Atomic.make [||]

let pow10_table () =
  let t = Atomic.get pow10_cache in
  if Array.length t > 0 then t
  else begin
    let t = build_pow10_table () in
    Atomic.set pow10_cache t;
    t
  end

(* the 128-bit product of a1 2^32 + a0 and b1 2^32 + b0 (all 32-bit) as
   four 32-bit limbs, most significant first, in sc.(k) .. sc.(k + 3) *)
let mul_64 sc k a1 a0 b1 b0 =
  let p00 = Int64.mul (Int64.of_int a0) (Int64.of_int b0)
  and p01 = Int64.mul (Int64.of_int a0) (Int64.of_int b1)
  and p10 = Int64.mul (Int64.of_int a1) (Int64.of_int b0)
  and p11 = Int64.mul (Int64.of_int a1) (Int64.of_int b1) in
  let c1 =
    Int64.to_int (Int64.shift_right_logical p00 32)
    + (Int64.to_int p01 land mask32)
    + (Int64.to_int p10 land mask32)
  in
  let c2 =
    Int64.to_int (Int64.shift_right_logical p01 32)
    + Int64.to_int (Int64.shift_right_logical p10 32)
    + (Int64.to_int p11 land mask32)
    + (c1 lsr 32)
  in
  sc.(k) <- Int64.to_int (Int64.shift_right_logical p11 32) + (c2 lsr 32);
  sc.(k + 1) <- c2 land mask32;
  sc.(k + 2) <- c1 land mask32;
  sc.(k + 3) <- Int64.to_int p00 land mask32

(* whether a1 2^32 + a0 + b1 2^32 + b0 carries out of 64 bits *)
let carries a1 a0 b1 b0 = (a1 + b1 + ((a0 + b0) lsr 32)) lsr 32 <> 0

(* The bits of the double nearest w 10^q, for the nonzero 64-bit
   w = w1 2^32 + w0, or 0 when the 128-bit product cannot decide its
   rounding or the result is subnormal, infinite or out of the table.
   A native int holds them: bit 62 is the top exponent bit *)
let eisel_lemire sc w1 w0 q =
  if q < q_min || q > q_max then 0
  else begin
    let clz = clz64 w1 w0 in
    let n1 =
      if clz >= 32 then (w0 lsl (clz - 32)) land mask32
      else ((w1 lsl clz) lor (w0 lsr (32 - clz))) land mask32
    in
    let n0 = if clz >= 32 then 0 else (w0 lsl clz) land mask32 in
    let row = 5 * (q - q_min) in
    let t = pow10_table () in
    mul_64 sc 0 n1 n0 t.(row) t.(row + 1);
    (* when the low bits of the top half are all ones the truncated
       table might carry into them: add the low half's product *)
    let wide = sc.(1) land 0x1FF = 0x1FF && carries sc.(2) sc.(3) n1 n0 in
    if wide then begin
      mul_64 sc 4 n1 n0 t.(row + 2) t.(row + 3);
      let s0 = sc.(3) + sc.(5) in
      let s1 = sc.(2) + sc.(4) + (s0 lsr 32) in
      let s2 = sc.(1) + (s1 lsr 32) in
      sc.(3) <- s0 land mask32;
      sc.(2) <- s1 land mask32;
      sc.(1) <- s2 land mask32;
      sc.(0) <- sc.(0) + (s2 lsr 32)
    end;
    if
      wide && sc.(1) land 0x1FF = 0x1FF && sc.(2) = mask32 && sc.(3) = mask32
      && carries sc.(6) sc.(7) n1 n0
    then 0
    else begin
      let msb = sc.(0) lsr 31 in
      let mant = (sc.(0) lsl (23 - msb)) lor (sc.(1) lsr (9 + msb)) in
      (* a tie to even the truncation might hide *)
      if sc.(2) = 0 && sc.(3) = 0 && sc.(1) land 0x1FF = 0 && mant land 3 = 1 then 0
      else begin
        let mant = (mant + (mant land 1)) lsr 1 in
        let over = mant lsr 53 in
        let exp = t.(row + 4) + 1087 - clz - (1 lxor msb) + over in
        if exp <= 0 || exp >= 0x7FF then 0 else (exp lsl 52) lor ((mant lsr over) land 0xF_FFFF_FFFF_FFFF)
      end
    end
  end

let exact_pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13; 1e14; 1e15; 1e16;
     1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

let scanned c start = String.sub c.text start (c.pos - start)

(* Reads the number at the cursor into dst.(i) (an [Int]'s
   [float_of_int]) and returns whether it is an [Int], whose value is
   then in [c.int_value].  The fast steps take the first 19 significant
   digits, and only when every digit past them is a zero *)
let scan_number c dst i =
  let s = c.text and start = c.pos in
  let n = String.length s in
  let p = ref start in
  let neg = !p < n && String.unsafe_get s !p = '-' in
  if neg then incr p;
  let int_start = !p in
  while !p < n && match String.unsafe_get s !p with '0' .. '9' -> true | _ -> false do
    incr p
  done;
  let int_end = !p in
  let frac_start = ref int_end and frac_end = ref int_end in
  if !p < n && String.unsafe_get s !p = '.' then begin
    incr p;
    frac_start := !p;
    while !p < n && match String.unsafe_get s !p with '0' .. '9' -> true | _ -> false do
      incr p
    done;
    frac_end := !p
  end;
  let is_float = ref (int_end < !p) in
  let ok = ref (int_end > int_start || !frac_end > !frac_start) and e = ref 0 in
  if !p < n && (match String.unsafe_get s !p with 'e' | 'E' -> true | _ -> false) then begin
    is_float := true;
    incr p;
    let eneg = !p < n && String.unsafe_get s !p = '-' in
    if !p < n && (match String.unsafe_get s !p with '+' | '-' -> true | _ -> false) then incr p;
    let e_start = !p in
    while !p < n && match String.unsafe_get s !p with '0' .. '9' -> true | _ -> false do
      (* saturate: past the table the fallback decides *)
      if !e < 100_000 then e := (!e * 10) + Char.code (String.unsafe_get s !p) - 48;
      incr p
    done;
    if !p = e_start then ok := false;
    if eneg then e := - !e
  end;
  c.pos <- !p;
  if not !ok then error c "bad number";
  (* m: the first 18 significant digits, d19 the 19th; [dropped]
     digits follow them *)
  let m = ref 0 and nd = ref 0 and d19 = ref 0 and dropped = ref 0 and exact = ref true in
  let k = ref int_start in
  while !k < !frac_end do
    if !k = int_end then k := !frac_start
    else begin
      let d = Char.code (String.unsafe_get s !k) - 48 in
      if !nd >= 19 then begin
        incr dropped;
        if d > 0 then exact := false
      end
      else if !nd > 0 || d > 0 then begin
        if !nd < 18 then m := (!m * 10) + d else d19 := d;
        incr nd
      end;
      incr k
    end
  done;
  let dexp = !dropped - (!frac_end - !frac_start) + !e in
  if not !is_float then begin
    if !nd <= 18 then begin
      c.int_value <- (if neg then - !m else !m);
      dst.(i) <- float_of_int c.int_value;
      true
    end
    else
      match int_of_string_opt (scanned c start) with
      | Some v ->
        c.int_value <- v;
        dst.(i) <- float_of_int v;
        true
      | None ->
        dst.(i) <- float_of_string (scanned c start);
        false
  end
  else begin
    if !nd = 0 then dst.(i) <- (if neg then -0.0 else 0.0)
    else if !exact && !nd <= 18 && !m <= 1 lsl 53 && dexp >= -22 && dexp <= 22 then begin
      let x = float_of_int !m in
      let x = if dexp >= 0 then x *. exact_pow10.(dexp) else x /. exact_pow10.(- dexp) in
      dst.(i) <- (if neg then -.x else x)
    end
    else begin
      let bits =
        if not !exact then 0
        else if !nd <= 18 then eisel_lemire c.scratch (!m lsr 32) (!m land mask32) dexp
        else
          (* the 19-digit mantissa 10 m + d19 < 2^64, in halves *)
          let lo = ((!m land mask32) * 10) + !d19 in
          eisel_lemire c.scratch (((!m lsr 32) * 10) + (lo lsr 32)) (lo land mask32) dexp
      in
      if bits = 0 then dst.(i) <- float_of_string (scanned c start)
      else
        (* [Int64.of_int] extends bit 62 into the sign *)
        let x = Int64.float_of_bits (Int64.logand (Int64.of_int bits) Int64.max_int) in
        dst.(i) <- (if neg then -.x else x)
    end;
    false
  end

(* ---- values ---- *)

(* [value] recurses once per level of nesting, so a line of brackets
   alone could exhaust the stack: lists and objects nest at most this
   deep (a request nests 3 levels, a journal line about 6) *)
let max_depth = 1000

(* reads the bracket [ch] that opens a list or an object *)
let descend c ch =
  if c.depth >= max_depth && at c ch then error c "nesting too deep";
  expect c ch;
  c.depth <- c.depth + 1

(* reads the bracket that closes one *)
let ascend c =
  c.pos <- c.pos + 1;
  c.depth <- c.depth - 1

let list_open c =
  skip_ws c;
  descend c '[';
  skip_ws c;
  if at c ']' then begin
    ascend c;
    false
  end
  else true

let list_next c =
  skip_ws c;
  if at c ',' then begin
    c.pos <- c.pos + 1;
    true
  end
  else if at c ']' then begin
    ascend c;
    false
  end
  else error c "expected ',' or ']'"

let obj_open c =
  skip_ws c;
  descend c '{';
  skip_ws c;
  if at c '}' then begin
    ascend c;
    false
  end
  else true

let obj_key c =
  skip_ws c;
  let k = string c in
  skip_ws c;
  expect c ':';
  k

let obj_next c =
  skip_ws c;
  if at c ',' then begin
    c.pos <- c.pos + 1;
    true
  end
  else if at c '}' then begin
    ascend c;
    false
  end
  else error c "expected ',' or '}'"

let rec value c =
  skip_ws c;
  if c.pos >= String.length c.text then error c "unexpected end of input";
  match String.unsafe_get c.text c.pos with
  | '{' -> Obj (if obj_open c then members c [] else [])
  | '[' -> List (if list_open c then elements c [] else [])
  | '"' -> String (string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | _ -> if scan_number c c.num 0 then Int c.int_value else Float c.num.(0)

and members c acc =
  let k = obj_key c in
  let v = value c in
  if obj_next c then members c ((k, v) :: acc) else List.rev ((k, v) :: acc)

and elements c acc =
  let v = value c in
  if list_next c then elements c (v :: acc) else List.rev (v :: acc)

let float_into c dst i =
  skip_ws c;
  c.pos < String.length c.text
  && (match String.unsafe_get c.text c.pos with '{' | '[' | '"' | 't' | 'f' | 'n' -> false | _ -> true)
  && (ignore (scan_number c dst i : bool);
      true)

let parse_with s read =
  let c =
    { text = s; pos = 0; depth = 0; int_value = 0; scratch = Array.make 8 0; num = [| 0.0 |] }
  in
  match read c with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then Error (Printf.sprintf "at %d: trailing garbage" c.pos) else Ok v
  | exception Parse_error (p, msg) -> Error (Printf.sprintf "at %d: %s" p msg)

let of_string s = parse_with s value

(* ---------- accessors ---------- *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let to_list = function List xs -> Some xs | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_string_val = function String s -> Some s | _ -> None
