(** Protocol fuzz properties, registered into the [pasched.check]
    oracle registry (under [serve:*]) by the CLI at startup:

    - [serve:roundtrip] — a decoded request re-encoded by
      {!Serve_protocol.solve_request_json} decodes to the same
      canonical string and hash (encode/decode is a fixed point on
      canonical forms);
    - [serve:canonical] — reordering the job list of a request changes
      neither the canonical key nor the decoded instance;
    - [serve:malformed] — seed-chosen corruptions (truncation, bad op,
      empty jobs, alpha [<= 1], negative budget) are rejected as
      [Invalid_input], never an escaped exception;
    - [serve:cache-transparent] — repeating a request returns a
      byte-identical reply served from cache (internal hit count
      increments), and the reply round-trips through the JSON
      parser. *)

val register : unit -> unit
(** Idempotent. *)
