type arrival =
  | Immediate
  | Poisson of float
  | Uniform_span of float
  | Bursty of { bursts : int; span : float; jitter : float }
  | Staircase of float

let releases ~seed arrival n =
  if n < 0 then invalid_arg "Workload.releases: negative n";
  let st = Random.State.make [| seed; 0x5c4ed |] in
  let rs =
    match arrival with
    | Immediate -> Array.make n 0.0
    | Poisson rate ->
      if rate <= 0.0 then invalid_arg "Workload.releases: rate <= 0";
      let t = ref 0.0 in
      Array.init n (fun _ ->
          let u = Random.State.float st 1.0 in
          t := !t +. (-.Float.log (1.0 -. u) /. rate);
          !t)
    | Uniform_span span ->
      if span < 0.0 then invalid_arg "Workload.releases: span < 0";
      Array.init n (fun _ -> Random.State.float st span)
    | Bursty { bursts; span; jitter } ->
      if bursts <= 0 then invalid_arg "Workload.releases: bursts <= 0";
      let points = Array.init bursts (fun i -> span *. float_of_int i /. float_of_int bursts) in
      Array.init n (fun _ ->
          points.(Random.State.int st bursts) +. Random.State.float st (Float.max jitter 1e-12))
    | Staircase step ->
      if step < 0.0 then invalid_arg "Workload.releases: step < 0";
      Array.init n (fun i -> float_of_int i *. step)
  in
  Array.sort compare rs;
  rs

(* ---------- the pull-based job source ---------- *)

module Stream = struct
  type t = { mutable produced : int; pull : t -> Job.t option }

  let next s = s.pull s

  type size =
    | Fixed_size of float
    | Uniform_size of { lo : float; hi : float }
    | Pareto of { shape : float; scale : float }

  type process =
    | Poisson_process of float
    | Diurnal of { base : float; amplitude : float; period : float }
    | Mmpp of { rate_on : float; rate_off : float; mean_on : float; mean_off : float }
    | Staircase_process of float

  (* every test is written so that NaN fails it: a NaN rate or phase
     mean never advances the arrival clock, and the draw loops spin *)
  let check_size = function
    | Fixed_size w ->
      if not (w > 0.0) then invalid_arg "Workload.Stream: fixed work must be positive"
    | Uniform_size { lo; hi } ->
      if not (lo > 0.0 && hi >= lo) then invalid_arg "Workload.Stream: need 0 < lo <= hi"
    | Pareto { shape; scale } ->
      if not (shape > 0.0 && scale > 0.0) then
        invalid_arg "Workload.Stream: need positive shape/scale"

  let check_process = function
    | Poisson_process rate ->
      if not (rate > 0.0) then invalid_arg "Workload.Stream: rate must be positive"
    | Diurnal { base; amplitude; period } ->
      if not (base > 0.0) then invalid_arg "Workload.Stream: base rate must be positive";
      if not (amplitude >= 0.0 && amplitude < 1.0) then
        invalid_arg "Workload.Stream: amplitude outside [0, 1)";
      if not (period > 0.0) then invalid_arg "Workload.Stream: period must be positive"
    | Mmpp { rate_on; rate_off; mean_on; mean_off } ->
      if not (rate_on > 0.0) then invalid_arg "Workload.Stream: rate_on must be positive";
      if not (rate_off >= 0.0) then invalid_arg "Workload.Stream: rate_off must be >= 0";
      if not (mean_on > 0.0 && mean_off > 0.0) then
        invalid_arg "Workload.Stream: phase means must be positive"
    | Staircase_process step ->
      if not (step >= 0.0 && step < Float.infinity) then
        invalid_arg "Workload.Stream: step must be finite and >= 0"

  (* The pull path allocates only the job it returns: the [Some], the
     record and its two boxed floats, 10 words.  Without flambda a float
     in a [ref] captured by a closure, or passed to or returned from a
     function that is not inlined, is boxed; so the arrival clock lives
     in a float-only record that each process advances in place, and
     the draws below are inlined and take their bits from
     [Rng.bits53], which returns an immediate int. *)
  type clock = { mutable now : float; mutable phase_end : float }

  (* uniform in [0, 1): the value [Rng.float rng 1.0] returns *)
  let[@inline] unit_draw rng = float_of_int (Rng.bits53 rng) *. 0x1.0p-53

  let[@inline] draw_size rng = function
    | Fixed_size w -> w
    | Uniform_size { lo; hi } -> lo +. (unit_draw rng *. (hi -. lo))
    | Pareto { shape; scale } ->
      let u = 1.0 -. unit_draw rng in
      scale /. (u ** (1.0 /. shape))

  (* exponential inter-event time; the 1-u transform keeps log's
     argument in (0, 1] *)
  let[@inline] draw_exp rng rate = -.Float.log (1.0 -. unit_draw rng) /. rate

  let make ~seed ?limit ~size process =
    check_size size;
    check_process process;
    (match limit with
    | Some n when n < 0 -> invalid_arg "Workload.Stream.make: negative limit"
    | _ -> ());
    (* independent sub-streams: inserting a draw into the arrival
       process never perturbs the size sequence, and vice versa *)
    let arr_rng = Rng.of_pair seed 0 in
    let size_rng = Rng.of_pair seed 1 in
    let clock = { now = 0.0; phase_end = 0.0 } in
    (* each process moves [clock.now] to the next release *)
    let advance =
      match process with
      | Poisson_process rate -> fun () -> clock.now <- clock.now +. draw_exp arr_rng rate
      | Diurnal { base; amplitude; period } ->
        (* sinusoid-modulated Poisson by thinning: candidates arrive at
           the peak rate and survive with probability rate(t)/peak *)
        let peak = base *. (1.0 +. amplitude) in
        let two_pi = 8.0 *. Float.atan 1.0 in
        (* the rate at sin = -1: rounding is monotone, so no computed
           rate is below it and a candidate under it survives without
           the sine (a squeeze test; the sine draws no randomness) *)
        let trough = base *. (1.0 -. amplitude) in
        let rec candidate () =
          clock.now <- clock.now +. draw_exp arr_rng peak;
          let v = unit_draw arr_rng *. peak in
          if
            not
              (v <= trough
              || v <= base *. (1.0 +. (amplitude *. Float.sin (two_pi *. clock.now /. period))))
          then candidate ()
        in
        candidate
      | Mmpp { rate_on; rate_off; mean_on; mean_off } ->
        (* two-phase Markov-modulated Poisson: exponential on/off
           sojourns, arrivals at the phase's rate (rate_off may be 0) *)
        let on = ref true in
        clock.phase_end <- draw_exp arr_rng (1.0 /. mean_on);
        let rec arrival () =
          let rate = if !on then rate_on else rate_off in
          let gap = if rate > 0.0 then draw_exp arr_rng rate else Float.infinity in
          if clock.now +. gap <= clock.phase_end then clock.now <- clock.now +. gap
          else begin
            clock.now <- clock.phase_end;
            on := not !on;
            let mean = if !on then mean_on else mean_off in
            clock.phase_end <- clock.now +. draw_exp arr_rng (1.0 /. mean);
            arrival ()
          end
        in
        arrival
      | Staircase_process step ->
        let k = ref (-1) in
        fun () ->
          incr k;
          clock.now <- float_of_int !k *. step
    in
    let pull s =
      match limit with
      | Some n when s.produced >= n -> None
      | _ ->
        advance ();
        let work = draw_size size_rng size in
        let j = Job.make ~id:s.produced ~release:clock.now ~work in
        s.produced <- s.produced + 1;
        Some j
    in
    { produced = 0; pull }

  let of_array pairs =
    let pull s =
      if s.produced >= Array.length pairs then None
      else begin
        let r, w = pairs.(s.produced) in
        let j = Job.make ~id:s.produced ~release:r ~work:w in
        s.produced <- s.produced + 1;
        Some j
      end
    in
    { produced = 0; pull }

  let of_instance inst =
    let jobs = Instance.jobs inst in
    let pull s =
      if s.produced >= Array.length jobs then None
      else begin
        let j = jobs.(s.produced) in
        s.produced <- s.produced + 1;
        Some j
      end
    in
    { produced = 0; pull }

  let pull_fn s () = next s

  let take s n =
    let rec go acc k = if k = 0 then List.rev acc else
      match next s with None -> List.rev acc | Some j -> go (j :: acc) (k - 1)
    in
    go [] n

  let fold f init s =
    let rec go acc = match next s with None -> acc | Some j -> go (f acc j) in
    go init

  let to_instance s =
    Instance.create (List.rev (fold (fun acc j -> j :: acc) [] s))

  let with_deadlines ~seed ~slack:(slo, shi) s =
    if slo <= 0.0 || shi < slo then invalid_arg "Workload.Stream.with_deadlines: bad slack range";
    let rng = Rng.of_pair seed 2 in
    fun () ->
      match next s with
      | None -> None
      | Some j ->
        let slack = slo +. Rng.float rng (shi -. slo) in
        Some (j, j.Job.release +. (j.Job.work *. slack))
end

(* The array-returning generators draw exactly as they always have
   (Random.State, releases first, works second) and materialize through
   the one shared Stream path, so their output is byte-identical to the
   pre-streaming versions while exercising the same pull machinery the
   trace simulator consumes. *)

let build ~seed arrival n work_of =
  let rs = releases ~seed arrival n in
  Stream.to_instance (Stream.of_array (Array.mapi (fun i r -> (r, work_of i)) rs))

let equal_work ~seed ~n ~work arrival =
  if work <= 0.0 then invalid_arg "Workload.equal_work: work <= 0";
  build ~seed arrival n (fun _ -> work)

let uniform_work ~seed ~n ~lo ~hi arrival =
  if lo <= 0.0 || hi < lo then invalid_arg "Workload.uniform_work: need 0 < lo <= hi";
  let st = Random.State.make [| seed; 0xbeef |] in
  let works = Array.init n (fun _ -> lo +. Random.State.float st (hi -. lo)) in
  build ~seed arrival n (fun i -> works.(i))

let heavy_tailed ~seed ~n ~shape ~scale arrival =
  if shape <= 0.0 || scale <= 0.0 then invalid_arg "Workload.heavy_tailed: need positive shape/scale";
  let st = Random.State.make [| seed; 0xca4e |] in
  let works =
    Array.init n (fun _ ->
        let u = 1.0 -. Random.State.float st 1.0 in
        scale /. (u ** (1.0 /. shape)))
  in
  build ~seed arrival n (fun i -> works.(i))

let partition_style ~seed ~n ~max_value =
  if max_value <= 0 then invalid_arg "Workload.partition_style: max_value <= 0";
  let st = Random.State.make [| seed; 0x9a47 |] in
  Instance.of_works (List.init n (fun _ -> float_of_int (1 + Random.State.int st max_value)))

type deadline_arrays = {
  release : float array;
  deadline : float array;
  work : float array;
}

let deadline_jobs_arrays ~seed ~n ~work:(wlo, whi) ~slack:(slo, shi) arrival =
  if wlo <= 0.0 || whi < wlo then invalid_arg "Workload.deadline_jobs: bad work range";
  if slo <= 0.0 || shi < slo then invalid_arg "Workload.deadline_jobs: bad slack range";
  let rs = releases ~seed arrival n in
  let st = Random.State.make [| seed; 0xdead |] in
  let dl = Array.make n 0.0 in
  let wk = Array.make n 0.0 in
  Array.iteri
    (fun i r ->
      let w = wlo +. Random.State.float st (whi -. wlo) in
      let s = slo +. Random.State.float st (shi -. slo) in
      dl.(i) <- r +. (w *. s);
      wk.(i) <- w)
    rs;
  { release = rs; deadline = dl; work = wk }

let deadline_jobs ~seed ~n ~work ~slack arrival =
  let a = deadline_jobs_arrays ~seed ~n ~work ~slack arrival in
  List.init n (fun i -> (a.release.(i), a.deadline.(i), a.work.(i)))
