(** The serve wire protocol: length-prefixed JSON frames.

    One frame is a 4-byte big-endian payload length followed by that many
    bytes of JSON (one {!X3_obs.Json} document). Both sides speak the
    same framing; payloads are capped so a hostile peer cannot ask the
    daemon to buffer gigabytes ({!default_max_frame_bytes}).

    Requests:
    {v
    {"verb": "cube", "query": "<X^3 text>", "doc": "path.xml",
     "algorithm": "COUNTER", "format": "csv", "no_cache": false,
     "deadline_ms": 5000, "retries": 2}
    {"verb": "ingest", "doc": "path.xml", "fragment": "<pub>...</pub>"}
    {"verb": "stats"}   {"verb": "trace", "name": "r-000042"}
    {"verb": "ping"}    {"verb": "shutdown"}
    v}

    Responses:
    {v
    {"status": "ok", "payload": "...", "provenance":
       {"base": 1, "rollup": 6, "cached": 0}, "seconds": 0.01,
     "partial": "deadline", "request_id": "r-000042"}
    {"status": "stats", "payload": { ...x3-metrics/1 document... }}
    {"status": "pong"}  {"status": "bye"}
    {"status": "error", "code": "...", "message": "..."}
    v} *)

val default_max_frame_bytes : int
(** 16 MiB — generous for any cube export the tests produce, small
    enough that a hostile length prefix cannot exhaust memory. *)

(** {1 Framing} *)

type frame_error =
  | Closed  (** orderly EOF before or inside a frame *)
  | Too_large of int  (** announced payload length over the cap *)
  | Timed_out  (** the socket deadline passed mid-frame or while idle *)
  | Frame_fault of string  (** an I/O error other than EPIPE/EINTR retry *)

val frame_error_message : frame_error -> string

val wait_readable :
  ?deadline:float -> Unix.file_descr -> (unit, frame_error) result
(** Block until [fd] has bytes to read (or [deadline] passes). Lets the
    server wait out a connection's idle gap {e before} starting the
    per-frame clock, so frame-read latency histograms measure the wire,
    not the client's think time. *)

val read_frame :
  ?max_bytes:int ->
  ?deadline:float ->
  ?fault:Net_fault.t ->
  Unix.file_descr ->
  (string, frame_error) result
(** Read one frame.  Partial reads resume; [EINTR] restarts the op and
    [EAGAIN] waits for readiness instead of busy-retrying.  [deadline]
    is an absolute [Unix.gettimeofday] instant bounding the whole frame
    (including the idle wait for its first byte) — the slow-loris
    defense; past it the result is [Error Timed_out].  [fault] consults
    a {!Net_fault} plan before every syscall. *)

val write_frame :
  ?deadline:float ->
  ?fault:Net_fault.t ->
  Unix.file_descr ->
  string ->
  (unit, frame_error) result
(** Write one frame.  Loops on partial writes so a slow TCP socket never
    corrupts the frame stream; [EPIPE]/[ECONNRESET] surface as [Closed],
    not an exception (the daemon must survive a client that died
    mid-response).  [deadline] bounds the whole frame — a reader that
    never drains us is timed out, not waited on forever. *)

(** {1 Requests and responses} *)

type request =
  | Cube of {
      query : string;  (** X^3 query text, compiled server-side *)
      doc : string option;  (** overrides the query's [doc(...)] path *)
      algorithm : string option;  (** cold-path algorithm, default COUNTER *)
      format : string;  (** ["csv"] or ["json"] *)
      no_cache : bool;  (** bypass the cuboid cache (cold reference run) *)
      deadline_ms : int option;
          (** compute budget in milliseconds, enforced server-side
              through the engine's Context deadline *)
      retries : int option;
          (** transient-fault retry budget for the cold path, forwarded
              to [Engine.run_safe] *)
      request_id : string option;
          (** client-chosen correlation id; the server echoes it in
              [Cube_ok] and tags the request's trace/access-log records
              with it (a server-assigned ["r-%06d"] id is used when the
              client sends none) *)
    }
  | Ingest of {
      doc : string;  (** document path the fragment belongs to *)
      fragment : string;
          (** one XML element, appended as a new child of the document
              root; durably logged to the ingest WAL before any state
              changes, then folded into resident sessions cell-by-cell *)
    }
  | Stats  (** dump the daemon's x3-metrics/1 document *)
  | Trace of { name : string option }
      (** fetch recent slow-query captures: the spool listing when [name]
          is [None], one capture's Chrome-trace JSON when it names a
          spooled request id *)
  | Ping
  | Shutdown

type provenance = {
  p_base : int;  (** cuboids answered by a base witness-table scan *)
  p_rollup : int;  (** cuboids rolled up from a cached/finer view *)
  p_cached : int;  (** cuboids served directly from the cache *)
}

type response =
  | Cube_ok of {
      payload : string;
      provenance : provenance;
      seconds : float;
      partial : string option;
          (** [Some reason] when the answer is a typed partial cube —
              the engine stopped at its deadline or budget but exported
              what it had (mirrors CLI exit code 4) *)
      request_id : string option;
          (** the id this request ran under — the client's own id echoed
              back, or the server-assigned one *)
    }
  | Ingest_ok of {
      lsn : int;  (** the fragment's WAL sequence number, now durable *)
      sessions : int;  (** resident sessions patched cell-by-cell *)
      cells : int;  (** view cells touched across those sessions *)
      fallbacks : int;
          (** sessions whose delta could not be proven sound and were
              flushed for a lazy cold rebuild instead (see the
              [serve.ingest.fallbacks.*] counters for reasons) *)
    }
  | Stats_ok of X3_obs.Json.t
  | Trace_ok of X3_obs.Json.t
  | Pong
  | Bye
  | Failed of { code : string; message : string }

(** {1 Error taxonomy}

    Wire error codes mirror the CLI's exit codes so scripted clients can
    treat a served query exactly like a local [x3 cube] run:

    {t | code | exit | retryable |
       |------|------|-----------|
       | [corrupt] | 2 | no |
       | [io_fault] | 3 | yes |
       | [timeout], [cancelled] | 4 | [cancelled] only |
       | [over_budget], [rejected], [input_too_large], [frame_too_large], [answer_too_large] | 5 | [rejected] only |
       | [shutting_down] | 1 | yes |
       | anything else ([bad_query], ...) | 1 | no |} *)

val exit_code_of_error : string -> int
(** Map a [Failed.code] to the CLI exit code (0–5 taxonomy). *)

val retryable_error : string -> bool
(** Whether a fresh attempt at the same request may succeed with no
    client-side change: transient I/O, admission overload, a drain that
    cancelled us, a daemon mid-restart. *)

val request_to_json : request -> X3_obs.Json.t
val request_of_json : X3_obs.Json.t -> (request, string) result
val response_to_json : response -> X3_obs.Json.t
val response_of_json : X3_obs.Json.t -> (response, string) result

val encode_request : request -> string
val encode_response : response -> string

val decode_request : string -> (request, string) result
val decode_response : string -> (response, string) result
