type row = { release : float; work : float; weight : float option; deadline : float option }

(* [compare] on float options is fine here: decode has already
   rejected non-finite values, and None sorts before Some *)
let compare_row a b =
  let c = Float.compare a.release b.release in
  if c <> 0 then c
  else
    let c = Float.compare a.work b.work in
    if c <> 0 then c
    else
      let c = compare a.weight b.weight in
      if c <> 0 then c else compare a.deadline b.deadline

let canonical_jobs rows =
  let sorted = Array.copy rows in
  Array.stable_sort compare_row sorted;
  sorted

external hexstring_of_float : float -> int -> char -> string = "caml_hexstring_of_float"

(* the runtime primitive behind Printf's %h: a negative precision
   prints every hex digit the float needs, '-' signs negatives only *)
let add_float buf x = Buffer.add_string buf (hexstring_of_float x (-1) '-')

let add_opt buf = function
  | None -> Buffer.add_char buf '_'
  | Some x -> add_float buf x

let canon ~solver ~points (p : Problem.t) pairs =
  let buf = Buffer.create 256 in
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
      Array.iteri
        (fun i (r, w) ->
          add_float buf r;
          Buffer.add_char buf ':';
          add_float buf w;
          Buffer.add_char buf ':';
          add_opt buf (Option.map (fun a -> a.(i)) p.Problem.weights);
          Buffer.add_char buf ':';
          add_opt buf (Option.map (fun a -> a.(i)) p.Problem.deadlines);
          Buffer.add_char buf ',')
        pairs);
  Buffer.contents buf

(* a plain loop keeps [h] unboxed: no allocation per byte *)
let hash s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) 0x100000001b3L
  done;
  !h
