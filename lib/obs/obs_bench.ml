type result = {
  name : string;
  wall_s : float;
  allocs_mb : float;
  counters : (string * int) list;
}

(* Words allocated straight into the major heap: its words less those
   promoted from the minor heap.  [Gc.counters] and [Gc.minor_words]
   are exact; on OCaml 5 [Gc.quick_stat] advances its counts only at
   collections, a minor heap at a time.  The minor words are read
   around [f] alone, so the tuple [Gc.counters] returns is not counted. *)
let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

let counter_delta before after =
  (* both snapshots are sorted by name; keep counters that moved *)
  let tbl = Hashtbl.create 32 in
  List.iter (fun (name, v) -> Hashtbl.replace tbl name v) before;
  List.filter_map
    (fun (name, v) ->
      let prior = Option.value ~default:0 (Hashtbl.find_opt tbl name) in
      if v <> prior then Some (name, v - prior) else None)
    after

let measure ~name f =
  let snap_before = (Obs_metrics.snapshot ()).Obs_metrics.counters in
  let major_before = direct_major_words () in
  let sw = Obs_clock.start () in
  let minor_before = Gc.minor_words () in
  f ();
  let minor = Gc.minor_words () -. minor_before in
  let wall_s = Obs_clock.elapsed_s sw in
  let major = direct_major_words () -. major_before in
  let snap_after = (Obs_metrics.snapshot ()).Obs_metrics.counters in
  let words = minor +. major in
  {
    name;
    wall_s;
    allocs_mb = words *. float_of_int (Sys.word_size / 8) /. 1e6;
    counters = counter_delta snap_before snap_after;
  }

let result_to_json r =
  Obs_json.Obj
    [
      ("name", Obs_json.String r.name);
      ("wall_s", Obs_json.Float r.wall_s);
      ("allocs_mb", Obs_json.Float r.allocs_mb);
      ("counters", Obs_json.Obj (List.map (fun (k, v) -> (k, Obs_json.Int v)) r.counters));
    ]

let to_json ~commit ~date results =
  Obs_json.Obj
    [
      ("commit", Obs_json.String commit);
      ("date", Obs_json.String date);
      ("results", Obs_json.List (List.map result_to_json results));
    ]

let write_file ~path ~commit ~date results =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Obs_json.to_string ~pretty:true (to_json ~commit ~date results));
      output_char oc '\n')
