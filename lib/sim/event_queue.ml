(* Binary min-heap on (time, seq) over parallel arrays.

   Times sit unboxed in a float array, payloads are ints and [pop]
   returns the payload alone, so steady-state add/pop traffic allocates
   nothing and moves no pointer through the write barrier; that is what
   keeps the trace simulator constant-memory and fast at 10^6+ events. *)

type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable values : int array;
  mutable len : int;
  mutable next_seq : int;
}

let of_capacity n =
  if n < 0 then invalid_arg "Event_queue.of_capacity: negative capacity";
  let cap = Stdlib.max n 8 in
  { times = Array.make cap 0.0; seqs = Array.make cap 0; values = Array.make cap 0; len = 0; next_seq = 0 }

let create () = of_capacity 0
let is_empty q = q.len = 0
let size q = q.len

let clear q =
  q.len <- 0;
  q.next_seq <- 0

(* Cold path: the arrays are full. *)
let grow q =
  let extend a filler =
    let b = Array.make (2 * Array.length a) filler in
    Array.blit a 0 b 0 q.len;
    b
  in
  q.times <- extend q.times 0.0;
  q.seqs <- extend q.seqs 0;
  q.values <- extend q.values 0

let move q ~src ~dst =
  q.times.(dst) <- q.times.(src);
  q.seqs.(dst) <- q.seqs.(src);
  q.values.(dst) <- q.values.(src)

let earlier q a b = q.times.(a) < q.times.(b) || (q.times.(a) = q.times.(b) && q.seqs.(a) < q.seqs.(b))

let add q time value =
  if q.len = Array.length q.times then grow q;
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  (* sift a hole up from the end; the new entry has the largest seq,
     so it rises only past strictly later times *)
  let i = ref q.len in
  while !i > 0 && time < q.times.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    move q ~src:p ~dst:!i;
    i := p
  done;
  q.times.(!i) <- time;
  q.seqs.(!i) <- seq;
  q.values.(!i) <- value;
  q.len <- q.len + 1

let min_time q =
  if q.len = 0 then invalid_arg "Event_queue.min_time: empty queue";
  q.times.(0)

let pop q =
  if q.len = 0 then invalid_arg "Event_queue.pop: empty queue";
  let top = q.values.(0) in
  let n = q.len - 1 in
  q.len <- n;
  if n > 0 then begin
    (* sift the last entry down from the root through a hole *)
    let time = q.times.(n) and seq = q.seqs.(n) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < n && earlier q (l + 1) l then l + 1 else l in
      if c < n && (q.times.(c) < time || (q.times.(c) = time && q.seqs.(c) < seq)) then begin
        move q ~src:c ~dst:!i;
        i := c
      end
      else sifting := false
    done;
    move q ~src:n ~dst:!i
  end;
  top

let drain q =
  let rec go acc =
    if q.len = 0 then List.rev acc
    else
      let time = q.times.(0) in
      go ((time, pop q) :: acc)
  in
  go []
