(* a signal landing mid-syscall must not kill the daemon or drop a
   connection: EINTR means "nothing happened, go again" for every call
   we make (no partial transfer is reported with it) *)
let rec retry_eintr f =
  match f () with
  | v -> v
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

(* a vanishing client turns our next write into SIGPIPE; ignoring it
   surfaces the EPIPE error instead, which the socket loop treats as a
   drop *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ | Sys_error _ -> ()

(* a carry buffer of bytes read so far; complete lines go to [queue],
   the unterminated tail stays in [carry] *)
let split_lines carry queue data len =
  Buffer.add_subbytes carry data 0 len;
  let s = Buffer.contents carry in
  Buffer.clear carry;
  let cursor = ref 0 in
  (try
     while true do
       let nl = String.index_from s !cursor '\n' in
       Queue.add (String.sub s !cursor (nl - !cursor)) queue;
       cursor := nl + 1
     done
   with Not_found -> ());
  Buffer.add_substring carry s !cursor (String.length s - !cursor)

let take_batch ?(max_batch = 32) queue =
  let rec go k acc =
    if k >= max_batch || Queue.is_empty queue then List.rev acc
    else go (k + 1) (Queue.pop queue :: acc)
  in
  go 0 []

let run_pipe ?(max_batch = 32) (t : Serve_shard.t) =
  ignore_sigpipe ();
  let fd = Unix.stdin in
  let chunk = Bytes.create 65536 in
  let carry = Buffer.create 4096 in
  let queue = Queue.create () in
  let eof = ref false in
  (try
     while
       not (Serve_shard.stopping t || (!eof && Queue.is_empty queue && Buffer.length carry = 0))
     do
       if Queue.is_empty queue && not !eof then begin
         let got = retry_eintr (fun () -> Unix.read fd chunk 0 (Bytes.length chunk)) in
         if got = 0 then begin
           eof := true;
           (* an unterminated final line still gets served *)
           if Buffer.length carry > 0 then begin
             Queue.add (Buffer.contents carry) queue;
             Buffer.clear carry
           end
         end
         else split_lines carry queue chunk got
       end;
       match take_batch ~max_batch queue with
       | [] -> ()
       | batch ->
         List.iter
           (fun reply ->
             print_string reply;
             print_newline ())
           (Serve_shard.handle_batch t batch);
         flush stdout
     done
   with End_of_file -> ());
  Serve_shard.shutdown t

(* per-connection state: inbound carry + line queue, outbound pending
   bytes with a consumed-prefix cursor (flushed via the select writable
   set, never a blocking write loop) *)
type conn = {
  carry : Buffer.t;
  queue : string Queue.t;
  out : Buffer.t;
  mutable opos : int;  (* bytes of [out] already written *)
}

(* a client that won't drain 64 MiB of replies is dead weight: shed it
   rather than let its buffer grow without bound *)
let max_pending_out = 1 lsl 26

let run_socket ?(max_batch = 32) ?(backlog = 16) ~path (t : Serve_shard.t) =
  ignore_sigpipe ();
  if Sys.file_exists path then Unix.unlink path;
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv backlog;
  let clients : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 8 in
  let chunk = Bytes.create 65536 in
  let drop fd =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Hashtbl.remove clients fd
  in
  let pending c = Buffer.length c.out - c.opos in
  let compact c =
    if pending c = 0 then begin
      Buffer.clear c.out;
      c.opos <- 0
    end
    else if c.opos > 1 lsl 20 then begin
      let rest = Buffer.sub c.out c.opos (pending c) in
      Buffer.clear c.out;
      Buffer.add_string c.out rest;
      c.opos <- 0
    end
  in
  let enqueue fd c reply =
    if Hashtbl.mem clients fd then begin
      Buffer.add_string c.out reply;
      Buffer.add_char c.out '\n';
      if pending c > max_pending_out then drop fd
    end
  in
  (* write what the kernel will take right now; the rest waits for the
     next writable event *)
  let flush_out fd c =
    match
      let continue = ref true in
      while !continue && pending c > 0 do
        let len = Int.min 65536 (pending c) in
        let piece = Buffer.sub c.out c.opos len in
        let sent = retry_eintr (fun () -> Unix.write_substring fd piece 0 len) in
        c.opos <- c.opos + sent;
        if sent < len then continue := false
      done
    with
    | () -> compact c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> compact c
    | exception Unix.Unix_error _ -> drop fd
  in
  while not (Serve_shard.stopping t) do
    let reads = srv :: Hashtbl.fold (fun fd _ acc -> fd :: acc) clients [] in
    let writes =
      Hashtbl.fold (fun fd c acc -> if pending c > 0 then fd :: acc else acc) clients []
    in
    match Unix.select reads writes [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
      List.iter
        (fun fd ->
          match Hashtbl.find_opt clients fd with
          | Some c -> flush_out fd c
          | None -> ())
        writable;
      List.iter
        (fun fd ->
          if fd = srv then begin
            match retry_eintr (fun () -> Unix.accept srv) with
            | exception Unix.Unix_error _ -> ()
            | client, _ ->
              Unix.set_nonblock client;
              Hashtbl.replace clients client
                {
                  carry = Buffer.create 4096;
                  queue = Queue.create ();
                  out = Buffer.create 4096;
                  opos = 0;
                }
          end
          else
            match Hashtbl.find_opt clients fd with
            | None -> ()
            | Some c -> (
              match retry_eintr (fun () -> Unix.read fd chunk 0 (Bytes.length chunk)) with
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
              | exception Unix.Unix_error _ -> drop fd
              | 0 -> drop fd
              | got ->
                split_lines c.carry c.queue chunk got;
                (* all complete lines this client has buffered form
                   batches — natural batching under load *)
                let rec serve_queued () =
                  match take_batch ~max_batch c.queue with
                  | [] -> ()
                  | batch ->
                    List.iter (enqueue fd c) (Serve_shard.handle_batch t batch);
                    if not (Serve_shard.stopping t) then serve_queued ()
                in
                serve_queued ();
                if Hashtbl.mem clients fd then flush_out fd c))
        readable
  done;
  (* best-effort bounded flush of pending replies (the shutdown ack
     among them) — a stalled client can't wedge the exit *)
  Hashtbl.iter
    (fun fd c ->
      (try
         let deadline = Unix.gettimeofday () +. 1.0 in
         while pending c > 0 && Unix.gettimeofday () < deadline do
           match Unix.select [] [ fd ] [] 0.1 with
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
           | [], [], [] -> ()
           | _ ->
             let len = Int.min 65536 (pending c) in
             let piece = Buffer.sub c.out c.opos len in
             c.opos <- c.opos + retry_eintr (fun () -> Unix.write_substring fd piece 0 len)
         done
       with Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ())
    clients;
  (try Unix.close srv with Unix.Unix_error _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
  Serve_shard.shutdown t
