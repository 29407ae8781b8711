type t = { id : int; release : float; deadline : float; work : float }

let make ~id ~release ~deadline ~work =
  if release < 0.0 || not (Float.is_finite release) then
    invalid_arg "Djob.make: release must be finite and non-negative";
  if deadline <= release || not (Float.is_finite deadline) then
    invalid_arg "Djob.make: deadline must exceed release";
  if work <= 0.0 || not (Float.is_finite work) then
    invalid_arg "Djob.make: work must be finite and positive";
  { id; release; deadline; work }

let of_triples l = List.mapi (fun id (release, deadline, work) -> make ~id ~release ~deadline ~work) l
let density j = j.work /. (j.deadline -. j.release)
