(** Wire codec of the serve daemon: newline-delimited JSON, one
    request and one reply per line.

    {2 Requests}

    {[
      {"id": 1, "op": "solve", "objective": "makespan", "alpha": 3,
       "budget": 10, "jobs": [[0, 5], [5, 2], [6, 1]]}
    ]}

    - ["id"]: any JSON value, echoed verbatim in the reply ([null] when
      omitted).
    - ["op"]: ["solve"] (default), ["stats"], ["health"], ["ping"] or
      ["shutdown"].
    - solve fields: ["objective"] (["makespan"|"flow"|"maxflow"|"wflow"|
      "deadline"], required), ["jobs"] (non-empty list of
      [[release, work]] pairs, required), ["alpha"] (default 3),
      ["procs"] (default 1), exactly one of ["budget"], ["target"],
      ["pareto": true] — or none for a ["deadline"] objective
      (feasibility mode); optional ["solver"] (registry name; ["auto"]
      or omitted routes via capabilities), ["weights"], ["deadlines"]
      (parallel to ["jobs"]), ["speed_cap"], ["levels"],
      ["points"] (Pareto curve samples, default 0) and ["deadline_s"]
      (per-request wall-clock budget).

    {2 Replies}

    [{"id": ..., "status": "ok", "solver": ..., "value": ..., "energy":
    ..., "diagnostics": {...}}] plus ["schedule"] when the solver
    returns one and ["breakpoints"]/["curve"] in Pareto mode — or
    [{"id": ..., "status": "error", "class": <class>, "message": ...}]
    where [<class>] is the {!Guard_error.class_string} taxonomy.  A
    reply never reveals whether it was served from cache: a hit is
    byte-identical to the cold solve that populated the entry.

    {!decode} is total: any malformed line becomes
    [Error (id, Invalid_input _)] — never an exception — so one bad
    client cannot take the daemon down. *)

type solve_request = {
  solver : string option;  (** [None] = capability-routed auto *)
  problem : Problem.t;  (** weights/deadlines in canonical job order *)
  inst : Instance.t;  (** built from canonically ordered jobs *)
  points : int;  (** Pareto curve samples ([>= 0]) *)
  deadline_s : float option;  (** per-request wall-clock budget *)
  canon : string;  (** {!Serve_key.canon} of the request *)
  hash : int64;  (** {!Serve_key.hash} of [canon] *)
}

type op = Solve of solve_request | Stats | Health | Ping | Shutdown

type request = { id : Obs_json.t; op : op }

val decode : string -> (request, Obs_json.t * Guard_error.t) result
(** Parse and validate one request line, in one pass with
    {!Obs_json}'s cursor and no tree: the number lists go straight into
    float arrays, the other fields into small trees, and unknown keys
    are read for their syntax and dropped; of two equal keys the first
    wins.  The syntax and its errors are {!Obs_json.of_string}'s, and
    every other error is raised only once the whole line has parsed, in
    the order the fields are listed above.  Jobs are put in canonical
    order ({!Serve_key.canonical_order}) before the instance is built,
    so reordered-but-equal requests decode to identical
    [(problem, inst, canon, hash)].  On failure the returned id is the
    request's ["id"] field when the line parsed as an object ([Null]
    otherwise), and the error is always classified — malformed input
    maps to [Invalid_input].  Never raises: a line nested deeper than
    {!Obs_json.of_string}'s 1,000 levels is malformed too ("request is
    not valid JSON: at N: nesting too deep"), read in bounded stack. *)

val solve_request_json : id:Obs_json.t -> solve_request -> Obs_json.t
(** Re-encode a decoded request as a canonical request document (jobs
    in canonical order, defaults made explicit).  [decode
    (Obs_json.to_string (solve_request_json ~id sr))] succeeds with the
    same canonical string — the round-trip law the protocol fuzz
    property checks. *)

val ok_payload : points:int -> Solve_result.t -> (string * Obs_json.t) list
(** The reply fields (sans ["id"]) of a successful solve: status,
    solver, value, energy, diagnostics, optional schedule, optional
    Pareto breakpoints and a curve of [points] samples.

    The members are printed here, once: ["status"] and ["solver"] come
    back as [String], every other member as pre-encoded
    {!Obs_json.Raw} text.  {!Serve_batch} calls this on the pool worker
    that solved the request; the reply ({!reply_string}), the cache
    entry, the journal line and every compaction then copy those bytes
    without printing a float.  The bytes equal those of the same
    members built as [Float]/[Obj]/[List] trees, so a payload restored
    from the journal as a parsed tree prints the same reply.  Uses no
    shared mutable state: safe on any domain. *)

val error_payload : Guard_error.t -> (string * Obs_json.t) list
(** The reply fields (sans ["id"]) of a failed request: status
    ["error"], the taxonomy class string and a one-line message. *)

val busy_payload : shard:int -> (string * Obs_json.t) list
(** The reply fields (sans ["id"]) of a request shed by admission
    control: status ["busy"], class ["busy"], the shedding shard's
    index and a fixed retry message.  Distinct from ["error"] (the
    request itself was fine) and from ["ok"] (it was never solved, so
    it is never cached). *)

val degraded_payload : solver:string -> (string * Obs_json.t) list
(** The reply fields (sans ["id"]) of a solve refused because [solver]'s
    circuit breaker is open and no healthy registered fallback accepts
    the instance: status ["degraded"], class ["breaker-open"].  Like
    ["busy"] it is transient — the breaker's cooldown will elapse — so
    clients treat it as retryable and it is never cached. *)

val reply_string : id:Obs_json.t -> (string * Obs_json.t) list -> string
(** One reply line: the payload with ["id"] prepended, serialized
    compactly (no newline).  [Raw] members are copied verbatim. *)

val reply_status : string -> string option
(** The ["status"] of a reply line — ["ok"], ["error"], ["busy"] or
    ["degraded"] — or [None] when the line carries none. *)

val reply_class : string -> string option
(** The ["class"] of a reply line, or [None] when it carries none. *)
