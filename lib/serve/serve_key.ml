(* stable, so rows that compare equal keep their request order; decode
   has already rejected non-finite values *)
let canonical_order ~releases ~works ?weights ?deadlines () =
  let by a i j = match a with Some a -> Float.compare a.(i) a.(j) | None -> 0 in
  let compare_rows i j =
    let c = Float.compare releases.(i) releases.(j) in
    if c <> 0 then c
    else
      let c = Float.compare works.(i) works.(j) in
      if c <> 0 then c
      else
        let c = by weights i j in
        if c <> 0 then c else by deadlines i j
  in
  let order = Array.init (Array.length releases) Fun.id in
  (* requests mostly list their jobs in release order already *)
  let rec sorted k = k >= Array.length order || (compare_rows (k - 1) k <= 0 && sorted (k + 1)) in
  if not (sorted 1) then Array.stable_sort compare_rows order;
  order

external hexstring_of_float : float -> int -> char -> string = "caml_hexstring_of_float"

let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* the 8 hex digits of the 32-bit [v] in ASCII, first digit in the low
   byte: the nibbles spread one per byte, then '0' added to each and
   'a' - '0' - 10 more to those above 9.  A top byte of 'a'..'f' sets
   bit 62, so the caller masks the sign-extended bit 63 off *)
let hex8 v =
  let x = (v lsr 16) lor ((v land 0xFFFF) lsl 32) in
  let x = ((x lsr 8) land 0x000000FF000000FF) lor ((x land 0x000000FF000000FF) lsl 16) in
  let x = ((x lsr 4) land 0x000F000F000F000F) lor ((x land 0x000F000F000F000F) lsl 8) in
  let letters = ((x + 0x0606060606060606) lsr 4) land 0x0101010101010101 in
  x + 0x3030303030303030 + (letters * 0x27)

(* the first [n] hex digits of [v] as one eight-byte write, cut back *)
let add_hex8 buf v n =
  let pos = Buffer.length buf in
  Buffer.add_int64_le buf (Int64.logand (Int64.of_int (hex8 v)) Int64.max_int);
  Buffer.truncate buf (pos + n)

(* Printf's %h, printed from the bits: [-]0x1.<fraction>p<exponent>,
   with 0x0 and exponent -1022 for subnormals and 0x0p+0 for zero; the
   fraction is the 52 stored bits as 13 hex digits, trailing zero
   digits dropped.  Infinities and NaNs take the runtime primitive
   behind %h (a negative precision prints every hex digit the float
   needs, '-' signs negatives only) *)
let add_float buf x =
  let b = Int64.to_int (Int64.bits_of_float x) in
  let biased = (b lsr 52) land 0x7FF and frac = b land ((1 lsl 52) - 1) in
  if biased = 0x7FF then Buffer.add_string buf (hexstring_of_float x (-1) '-')
  else begin
    if Float.sign_bit x then Buffer.add_char buf '-';
    Buffer.add_char buf '0';
    Buffer.add_char buf 'x';
    Buffer.add_char buf (if biased = 0 then '0' else '1');
    if frac <> 0 then begin
      Buffer.add_char buf '.';
      let digits = ref 13 and f = ref frac in
      while !f land 0xF = 0 do
        f := !f lsr 4;
        decr digits
      done;
      add_hex8 buf (frac lsr 20) (Int.min !digits 8);
      if !digits > 8 then add_hex8 buf ((frac land 0xFFFFF) lsl 12) (!digits - 8)
    end;
    let e = if biased > 0 then biased - 1023 else if frac = 0 then 0 else -1022 in
    Buffer.add_char buf 'p';
    Buffer.add_char buf (if e < 0 then '-' else '+');
    add_nat buf (abs e)
  end

let add_opt buf = function
  | None -> Buffer.add_char buf '_'
  | Some x -> add_float buf x

(* [add_job buf i] prints job i's release and work *)
let canon_with ~solver ~points (p : Problem.t) n add_job =
  (* about 48 bytes a job, two %h floats and their separators, so the
     buffer rarely grows *)
  let buf = Buffer.create (128 + (48 * n)) in
  let fld name f =
    Buffer.add_string buf name;
    Buffer.add_char buf '=';
    f ();
    Buffer.add_char buf ';'
  in
  fld "solver" (fun () ->
      Buffer.add_string buf (match solver with None -> "auto" | Some s -> s));
  fld "obj" (fun () -> Buffer.add_string buf (Problem.objective_to_string p.Problem.objective));
  fld "mode" (fun () ->
      match p.Problem.mode with
      | Problem.Budget e ->
        Buffer.add_string buf "budget:";
        add_float buf e
      | Problem.Target v ->
        Buffer.add_string buf "target:";
        add_float buf v
      | Problem.Pareto -> Buffer.add_string buf "pareto"
      | Problem.Feasible -> Buffer.add_string buf "feasible");
  fld "alpha" (fun () -> add_float buf p.Problem.alpha);
  fld "procs" (fun () -> Buffer.add_string buf (string_of_int p.Problem.procs));
  fld "cap" (fun () -> add_opt buf p.Problem.speed_cap);
  fld "levels" (fun () ->
      match p.Problem.levels with
      | None -> Buffer.add_char buf '_'
      | Some ls ->
        List.iter
          (fun l ->
            add_float buf l;
            Buffer.add_char buf ',')
          (List.sort_uniq Float.compare ls));
  fld "points" (fun () -> Buffer.add_string buf (string_of_int points));
  fld "jobs" (fun () ->
      for i = 0 to n - 1 do
        add_job buf i;
        Buffer.add_char buf ':';
        add_opt buf (Option.map (fun a -> a.(i)) p.Problem.weights);
        Buffer.add_char buf ':';
        add_opt buf (Option.map (fun a -> a.(i)) p.Problem.deadlines);
        Buffer.add_char buf ','
      done);
  Buffer.contents buf

let canon ~solver ~points p pairs =
  canon_with ~solver ~points p (Array.length pairs) (fun buf i ->
      let r, w = pairs.(i) in
      add_float buf r;
      Buffer.add_char buf ':';
      add_float buf w)

(* a job's fields are boxed in its record: printing them boxes nothing *)
let canon_jobs ~solver ~points p (jobs : Job.t array) =
  canon_with ~solver ~points p (Array.length jobs) (fun buf i ->
      let j = jobs.(i) in
      add_float buf j.Job.release;
      Buffer.add_char buf ':';
      add_float buf j.Job.work)

(* a plain loop keeps [h] unboxed: no allocation per byte *)
let hash s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) 0x100000001b3L
  done;
  !h
