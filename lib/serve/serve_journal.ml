type stats = {
  appends : int;
  replayed : int;
  skipped_corrupt : int;
  compactions : int;
  lag : int;
  errors : int;
}

type entry = string * (string * Obs_json.t) list

(* A file written through a buffer of its own rather than an
   out_channel: an append does no I/O, a failed or short write leaves
   exactly its unwritten tail buffered for the next attempt, and a
   crash ({!drop}) loses exactly the buffered bytes. *)
type sink = { mutable fd : Unix.file_descr; mutable buf : Bytes.t; mutable len : int; mutable closed : bool }

(* an in-flight checkpoint: its tmp file and the snapshot lines not yet
   written to it *)
type ckpt = { tmp : sink; mutable rest : entry list }

type phase =
  | Idle
  | Slices of ckpt  (* snapshot lines left to write *)
  | Sync of ckpt  (* every line written: the tmp's fsync is next *)
  | Install of ckpt  (* durable: rename, directory fsync and unlink next *)

type t = {
  checkpoint : string;
  journal : string;
  old : string;  (* the rotated journal a compaction is folding *)
  fsync : bool;
  compact_every : int;
  out : sink;  (* the journal *)
  mutable has_old : bool;  (* [old] is on disk *)
  mutable on_old : bool;  (* [out] still writes [old]: reopening [journal] failed *)
  mutable phase : phase;
  mutable folding : int;  (* the lag held in [old] *)
  mutable trigger_at : int;  (* the lag at which the next compaction starts *)
  mutable appends : int;
  mutable replayed : int;
  mutable skipped_corrupt : int;
  mutable compactions : int;
  mutable lag : int;
  mutable errors : int;
}

let c_appends = Obs.counter "serve.journal.appends"
let c_replayed = Obs.counter "serve.journal.replayed"
let c_skipped = Obs.counter "serve.journal.skipped_corrupt"
let c_compactions = Obs.counter "serve.journal.compactions"
let c_flushes = Obs.counter "serve.journal.flushes"
let c_fsyncs = Obs.counter "serve.journal.fsyncs"
let c_checkpoint_lines = Obs.counter "serve.journal.checkpoint_lines"
let c_errors = Obs.counter "serve.journal.errors"

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

(* ---------------- buffered sinks ---------------- *)

let sink fd = { fd; buf = Bytes.create 65536; len = 0; closed = false }

let add_line s line =
  let n = String.length line in
  if s.len + n + 1 > Bytes.length s.buf then begin
    let b = Bytes.create (Int.max (2 * Bytes.length s.buf) (s.len + n + 1)) in
    Bytes.blit s.buf 0 b 0 s.len;
    s.buf <- b
  end;
  Bytes.blit_string line 0 s.buf s.len n;
  Bytes.unsafe_set s.buf (s.len + n) '\n';
  s.len <- s.len + n + 1

(* Write every buffered byte, entering [site] before each write(2).  A
   write may take fewer bytes than it is given (the fault hooks model
   that by shortening one at [site]); a failed write raises with the
   unwritten tail still buffered. *)
let write_out site s =
  let pos = ref 0 in
  match
    while !pos < s.len do
      Fault.enter site;
      let want = s.len - !pos in
      let want = Int.max 1 (Int.min want (int_of_float (Fault.observe_float site (float_of_int want)))) in
      match Unix.single_write s.fd s.buf !pos want with
      | k -> pos := !pos + k
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  with
  | () -> s.len <- 0
  | exception e ->
    Bytes.blit s.buf !pos s.buf 0 (s.len - !pos);
    s.len <- s.len - !pos;
    raise e

let close_sink s =
  if not s.closed then begin
    s.closed <- true;
    try Unix.close s.fd with Unix.Unix_error _ -> ()
  end

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
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> ()
  | dfd ->
    (try Unix.fsync dfd with Unix.Unix_error _ -> ());
    (try Unix.close dfd with Unix.Unix_error _ -> ())

(* the checkpoint is written in slices of this many lines: the default
   --max-batch, so a stepwise compaction's slice costs about what one
   batch's appends do *)
let slice_lines = 32

let open_ckpt path entries =
  Fault.enter "serve_journal.snapshot";
  let fd = Unix.openfile (path ^ ".tmp") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  { tmp = sink fd; rest = entries }

(* the next [slice_lines] snapshot lines onto the tmp *)
let write_slice c =
  let rec fill k = function
    | (canon, payload) :: rest when k < slice_lines ->
      add_line c.tmp (encode_line ~canon payload);
      fill (k + 1) rest
    | rest -> (k, rest)
  in
  let k, rest = fill 0 c.rest in
  write_out "serve_journal.slice" c.tmp;
  c.rest <- rest;
  Obs.add c_checkpoint_lines k

let sync_ckpt c =
  Fault.enter "serve_journal.tmp_fsync";
  fsync c.tmp.fd;
  close_sink c.tmp

let install_ckpt path =
  Fault.enter "serve_journal.rename";
  Sys.rename (path ^ ".tmp") path;
  Fault.enter "serve_journal.dir_fsync";
  fsync_dir path

let abandon_ckpt path c =
  close_sink c.tmp;
  try Sys.remove (path ^ ".tmp") with Sys_error _ -> ()

let write_checkpoint ~path ~entries =
  let c = open_ckpt path entries in
  (try
     while c.rest <> [] do
       write_slice c
     done;
     sync_ckpt c
   with e ->
     abandon_ckpt path c;
     raise e);
  install_ckpt path

(* ---------------- the store ---------------- *)

let open_journal ?(trunc = false) path =
  Unix.openfile path
    ([ Unix.O_RDWR; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ] @ if trunc then [ Unix.O_TRUNC ] else [])
    0o644

(* a crash mid-write can leave the journal ending inside a line *)
let ends_mid_line fd =
  match Unix.lseek fd (-1) Unix.SEEK_END with
  | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false
  | _ ->
    let b = Bytes.create 1 in
    Unix.read fd b 0 1 = 1 && Bytes.get b 0 <> '\n'

let open_ ?(fsync = false) ?(compact_every = 1024) ~path () =
  if compact_every < 0 then invalid_arg "Serve_journal.open_: compact_every must be >= 0";
  let journal = path ^ ".journal" in
  let out =
    try
      let fd = open_journal journal in
      let out = sink fd in
      (* the next append starts a line of its own, so a torn tail stays
         one corrupt line instead of swallowing the append *)
      if ends_mid_line fd then add_line out "";
      out
    with Unix.Unix_error (e, _, _) -> raise (Sys_error (journal ^ ": " ^ Unix.error_message e))
  in
  {
    checkpoint = path;
    journal;
    old = journal ^ ".old";
    fsync;
    compact_every;
    out;
    has_old = Sys.file_exists (journal ^ ".old");
    on_old = false;
    phase = Idle;
    folding = 0;
    trigger_at = compact_every;
    appends = 0;
    replayed = 0;
    skipped_corrupt = 0;
    compactions = 0;
    lag = 0;
    errors = 0;
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
  (* a rotated journal and the journal land after their checkpoint
     state, in that order, and count toward the lag the next compaction
     will fold in *)
  let before = t.replayed in
  replay_file t t.old f;
  replay_file t t.journal f;
  t.lag <- t.lag + (t.replayed - before)

let error t =
  t.errors <- t.errors + 1;
  Obs.incr c_errors

let append t ~canon payload =
  match Fault.enter "serve_journal.append" with
  | exception (Sys_error _ | Unix.Unix_error _) -> error t
  | () ->
    add_line t.out (encode_line ~canon payload);
    t.appends <- t.appends + 1;
    t.lag <- t.lag + 1;
    Obs.incr c_appends

(* a journal that keeps failing does not buffer without bound: past
   this the buffered lines are dropped (they stay cached, and the next
   compaction's snapshot holds them), and a newline takes their place
   so that a line the failed write tore stays a line of its own *)
let max_buffered = 1 lsl 20

let flush t =
  if t.out.len > 0 && not t.out.closed then
    match
      write_out "serve_journal.flush" t.out;
      if t.fsync then begin
        Fault.enter "serve_journal.flush_fsync";
        fsync t.out.fd
      end
    with
    | () -> Obs.incr c_flushes
    | exception (Sys_error _ | Unix.Unix_error _) ->
      error t;
      if t.out.len > max_buffered then begin
        t.out.len <- 0;
        add_line t.out ""
      end

let needs_compact t = t.compact_every > 0 && t.lag >= t.trigger_at

let compacted t =
  t.phase <- Idle;
  t.trigger_at <- t.compact_every;
  t.compactions <- t.compactions + 1;
  Obs.incr c_compactions

(* an in-flight compaction gives way: its tmp goes, and a rotated
   journal stays on disk for replay and for the next compaction *)
let abandon t =
  match t.phase with
  | Idle -> ()
  | Slices c | Sync c | Install c ->
    t.phase <- Idle;
    abandon_ckpt t.checkpoint c

let compact t ~entries =
  if t.out.closed then raise (Sys_error (t.journal ^ ": the store is closed"));
  abandon t;
  flush t;
  write_checkpoint ~path:t.checkpoint ~entries;
  if t.has_old then begin
    Fault.enter "serve_journal.unlink";
    Sys.remove t.old;
    t.has_old <- false
  end;
  (* the journal's entries are now folded into the checkpoint: truncate
     in place (the inode [out] holds), or open it afresh when a failed
     rotation left [out] on the rotated journal *)
  Fault.enter "serve_journal.truncate";
  if t.on_old then begin
    let fd = open_journal ~trunc:true t.journal in
    close_sink t.out;
    t.out.fd <- fd;
    t.out.closed <- false;
    t.on_old <- false
  end
  else Unix.ftruncate t.out.fd 0;
  t.out.len <- 0;
  t.lag <- 0;
  compacted t

(* step 1: the journal becomes [old] and a fresh one takes appends, and
   the snapshot's tmp opens *)
let rotate t snapshot =
  Fault.enter "serve_journal.rotate";
  Sys.rename t.journal t.old;
  t.has_old <- true;
  t.on_old <- true;
  t.folding <- t.lag;
  Fault.enter "serve_journal.reopen";
  let fd = open_journal t.journal in
  close_sink t.out;
  t.out.fd <- fd;
  t.out.closed <- false;
  t.on_old <- false;
  if t.fsync then begin
    Fault.enter "serve_journal.rotate_fsync";
    fsync_dir t.journal
  end;
  let c = open_ckpt t.checkpoint snapshot in
  t.phase <- (if snapshot = [] then Sync c else Slices c)

(* step 4: the checkpoint takes the tmp's name and [old] goes *)
let install t =
  install_ckpt t.checkpoint;
  Fault.enter "serve_journal.unlink";
  Sys.remove t.old;
  t.has_old <- false;
  t.lag <- t.lag - t.folding;
  compacted t

let step t ~entries =
  match
    match t.phase with
    | Idle ->
      if needs_compact t && not t.out.closed then
        if t.has_old then compact t ~entries:(entries ())
        else if t.out.len = 0 then rotate t (entries ())
    | Slices c ->
      write_slice c;
      if c.rest = [] then t.phase <- Sync c
    | Sync c ->
      sync_ckpt c;
      t.phase <- Install c
    | Install _ -> install t
  with
  | () -> ()
  | exception (Sys_error _ | Unix.Unix_error _) ->
    error t;
    abandon t;
    t.trigger_at <- t.lag + t.compact_every

let stats t : stats =
  {
    appends = t.appends;
    replayed = t.replayed;
    skipped_corrupt = t.skipped_corrupt;
    compactions = t.compactions;
    lag = t.lag;
    errors = t.errors;
  }

let close t =
  flush t;
  abandon t;
  close_sink t.out

let drop t =
  (match t.phase with Idle -> () | Slices c | Sync c | Install c -> close_sink c.tmp);
  close_sink t.out
