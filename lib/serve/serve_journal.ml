type stats = {
  appends : int;
  replayed : int;
  skipped_corrupt : int;
  compactions : int;
  lag : int;
}

type t = {
  checkpoint : string;
  journal : string;
  fsync : bool;
  compact_every : int;
  oc : out_channel;
  mutable appends : int;
  mutable replayed : int;
  mutable skipped_corrupt : int;
  mutable compactions : int;
  mutable lag : int;
  mutable dirty : bool;
}

let c_appends = Obs.counter "serve.journal.appends"
let c_replayed = Obs.counter "serve.journal.replayed"
let c_skipped = Obs.counter "serve.journal.skipped_corrupt"
let c_compactions = Obs.counter "serve.journal.compactions"
let c_flushes = Obs.counter "serve.journal.flushes"
let c_fsyncs = Obs.counter "serve.journal.fsyncs"

(* ---------------- CRC-32 (IEEE 802.3) ---------------- *)

(* Slicing-by-8: eight 256-entry tables laid end to end.  Table 0 is the
   bytewise table; table k advances table k-1's entry by one more zero
   byte, so one step folds eight bytes through eight lookups. *)
let crc_tables =
  let t = Array.make 2048 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to 2047 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
  done;
  t

let crc32_sub s pos len =
  let t = crc_tables in
  let c = ref 0xFFFFFFFF and i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let lo = (Int32.to_int (String.get_int32_le s !i) land 0xFFFFFFFF) lxor !c in
    let hi = Int32.to_int (String.get_int32_le s (!i + 4)) land 0xFFFFFFFF in
    c :=
      Array.unsafe_get t (1792 + (lo land 0xFF))
      lxor Array.unsafe_get t (1536 + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t (1280 + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t (1024 + (lo lsr 24))
      lxor Array.unsafe_get t (768 + (hi land 0xFF))
      lxor Array.unsafe_get t (512 + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for k = stop8 to pos + len - 1 do
    c := Array.unsafe_get t ((!c lxor Char.code (String.get s k)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = crc32_sub s 0 (String.length s)

(* ---------------- line framing ---------------- *)

(* {"crc":"xxxxxxxx","entry":E} — the CRC covers the raw bytes of E as
   written, so the reader verifies the substring before ever parsing
   it.  The frame is fixed-width up to E: 8 bytes of lowercase hex at
   offset 8, E at offset [entry_ofs], closing brace last. *)

let crc_ofs = 8 (* String.length {|{"crc":"|} *)
let entry_ofs = 26 (* String.length {|{"crc":"xxxxxxxx","entry":|} *)

(* an ok payload's members arrive pre-encoded ({!Serve_protocol.ok_payload}),
   so the line copies their bytes: an append prints no float.  The
   frame, E and the closing brace go into one buffer; the CRC is then
   written over the placeholder *)
let encode_line ~canon payload =
  let buf = Buffer.create 512 in
  Buffer.add_string buf {|{"crc":"00000000","entry":|};
  Obs_json.write buf (Obs_json.Obj [ ("canon", Obs_json.String canon); ("payload", Obs_json.Obj payload) ]);
  Buffer.add_char buf '}';
  let line = Buffer.to_bytes buf in
  let crc = crc32_sub (Bytes.unsafe_to_string line) entry_ofs (Bytes.length line - entry_ofs - 1) in
  for k = 0 to 7 do
    Bytes.set line (crc_ofs + k) "0123456789abcdef".[(crc lsr (28 - (4 * k))) land 0xF]
  done;
  Bytes.unsafe_to_string line

let hex8 s ofs =
  let v = ref 0 in
  (try
     for k = 0 to 7 do
       let d =
         match s.[ofs + k] with
         | '0' .. '9' as c -> Char.code c - Char.code '0'
         | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
         | _ -> raise Exit
       in
       v := (!v lsl 4) lor d
     done;
     Some !v
   with Exit -> None)

let decode_line line =
  let len = String.length line in
  if
    len < entry_ofs + 2
    || String.sub line 0 crc_ofs <> "{\"crc\":\""
    || String.sub line (crc_ofs + 8) (entry_ofs - crc_ofs - 8) <> "\",\"entry\":"
    || line.[len - 1] <> '}'
  then None
  else
    match hex8 line crc_ofs with
    | None -> None
    | Some stored ->
      let body = String.sub line entry_ofs (len - entry_ofs - 1) in
      if crc32 body <> stored then None
      else
        match Obs_json.of_string body with
        | Error _ -> None
        | Ok doc -> (
          match
            ( Option.bind (Obs_json.member "canon" doc) Obs_json.to_string_val,
              Obs_json.member "payload" doc )
          with
          | Some canon, Some (Obs_json.Obj payload) -> Some (canon, payload)
          | _ -> None)

(* ---------------- durable checkpoint writer ---------------- *)

(* tmp + fsync(file) + rename + fsync(dir): without the first fsync a
   power cut after the rename can leave the new name pointing at
   zero-length contents; without the second the rename itself may not
   have reached the directory.  (Best-effort on the dir: some
   filesystems refuse O_RDONLY-fsync on directories.)  Every fsync is
   counted as attempted, so a store's count is the same on every
   filesystem. *)
let fsync fd =
  Obs.incr c_fsyncs;
  Unix.fsync fd

let fsync_dir path =
  Obs.incr c_fsyncs;
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dfd ->
    (try Unix.fsync dfd with Unix.Unix_error _ -> ());
    (try Unix.close dfd with Unix.Unix_error _ -> ())

let write_checkpoint ~path ~entries =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try
     List.iter
       (fun (canon, payload) ->
         output_string oc (encode_line ~canon payload);
         output_char oc '\n')
       entries;
     flush oc;
     fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with e ->
     close_out_noerr oc;
     raise e);
  Sys.rename tmp path;
  fsync_dir path

(* ---------------- the store ---------------- *)

let open_ ?(fsync = false) ?(compact_every = 1024) ~path () =
  if compact_every < 0 then invalid_arg "Serve_journal.open_: compact_every must be >= 0";
  let journal = path ^ ".journal" in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 journal in
  {
    checkpoint = path;
    journal;
    fsync;
    compact_every;
    oc;
    appends = 0;
    replayed = 0;
    skipped_corrupt = 0;
    compactions = 0;
    lag = 0;
    dirty = false;
  }

let replay_file t file f =
  match open_in file with
  | exception Sys_error _ -> ()
  | ic ->
    (try
       while true do
         let line = input_line ic in
         if line <> "" then
           match decode_line line with
           | Some (canon, payload) ->
             t.replayed <- t.replayed + 1;
             Obs.incr c_replayed;
             f ~canon payload
           | None ->
             t.skipped_corrupt <- t.skipped_corrupt + 1;
             Obs.incr c_skipped
       done
     with End_of_file -> ());
    close_in_noerr ic

let replay t f =
  replay_file t t.checkpoint f;
  (* journal entries land after their checkpoint state and count toward
     the lag the next compaction will fold in *)
  let before = t.replayed in
  replay_file t t.journal f;
  t.lag <- t.lag + (t.replayed - before)

let append t ~canon payload =
  output_string t.oc (encode_line ~canon payload);
  output_char t.oc '\n';
  t.appends <- t.appends + 1;
  t.lag <- t.lag + 1;
  t.dirty <- true;
  Obs.incr c_appends

let flush t =
  if t.dirty then begin
    flush t.oc;
    if t.fsync then fsync (Unix.descr_of_out_channel t.oc);
    t.dirty <- false;
    Obs.incr c_flushes
  end

let needs_compact t = t.compact_every > 0 && t.lag >= t.compact_every

let compact t ~entries =
  flush t;
  write_checkpoint ~path:t.checkpoint ~entries;
  (* the journal's entries are now folded into the checkpoint: truncate
     in place (same inode the append channel holds) *)
  Unix.ftruncate (Unix.descr_of_out_channel t.oc) 0;
  t.lag <- 0;
  t.compactions <- t.compactions + 1;
  Obs.incr c_compactions

let stats t : stats =
  {
    appends = t.appends;
    replayed = t.replayed;
    skipped_corrupt = t.skipped_corrupt;
    compactions = t.compactions;
    lag = t.lag;
  }

let close t =
  flush t;
  close_out_noerr t.oc
