module Json = X3_obs.Json

let default_max_frame_bytes = 16 * 1024 * 1024

(* --- framing ------------------------------------------------------------- *)

type frame_error =
  | Closed
  | Too_large of int
  | Timed_out
  | Frame_fault of string

let frame_error_message = function
  | Closed -> "connection closed"
  | Too_large n -> Printf.sprintf "frame of %d bytes over the cap" n
  | Timed_out -> "socket deadline exceeded"
  | Frame_fault m -> m

(* Wait until [fd] is ready, bounded by the absolute [deadline] when one
   is set (select with a negative timeout blocks indefinitely).  EINTR
   restarts the wait against the same absolute deadline. *)
let rec wait_ready fd ~for_read ~deadline =
  let timeout =
    match deadline with None -> -1. | Some d -> d -. Unix.gettimeofday ()
  in
  if deadline <> None && timeout <= 0. then Error Timed_out
  else
    let r, w = if for_read then ([ fd ], []) else ([], [ fd ]) in
    match Unix.select r w [] timeout with
    | [], [], [] -> Error Timed_out
    | _ -> Ok ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        wait_ready fd ~for_read ~deadline

let wait_readable ?deadline fd = wait_ready fd ~for_read:true ~deadline

let allowance fault op len =
  match fault with None -> len | Some f -> Net_fault.consult f op ~bytes:len

(* EINTR restarts the op; EAGAIN/EWOULDBLOCK (non-blocking fd with an
   empty buffer) waits for readiness — bounded by the deadline — instead
   of the old blind busy-retry; a peer that vanished (EPIPE, ECONNRESET,
   plain EOF) is an orderly [Closed] — the daemon's accept loop must
   shrug at dead clients, not crash on them.  With a deadline set the
   wait happens before the syscall so a blocking fd cannot stall past
   it.  Partial reads and writes resume where they left off, so a slow
   TCP socket (or an injected short op) never corrupts the stream. *)
let rec read_exact ?deadline ?fault fd buf ofs len =
  if len = 0 then Ok ()
  else
    let ready =
      match deadline with
      | None -> Ok ()
      | Some _ -> wait_ready fd ~for_read:true ~deadline
    in
    match ready with
    | Error _ as e -> e
    | Ok () -> (
        match
          let req = allowance fault Net_fault.Read len in
          Unix.read fd buf ofs req
        with
        | 0 -> Error Closed
        | n -> read_exact ?deadline ?fault fd buf (ofs + n) (len - n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) ->
            read_exact ?deadline ?fault fd buf ofs len
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          -> (
            match wait_ready fd ~for_read:true ~deadline with
            | Error _ as e -> e
            | Ok () -> read_exact ?deadline ?fault fd buf ofs len)
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            Error Closed
        | exception Unix.Unix_error (e, _, _) ->
            Error (Frame_fault (Unix.error_message e)))

let rec write_exact ?deadline ?fault fd buf ofs len =
  if len = 0 then Ok ()
  else
    let ready =
      match deadline with
      | None -> Ok ()
      | Some _ -> wait_ready fd ~for_read:false ~deadline
    in
    match ready with
    | Error _ as e -> e
    | Ok () -> (
        match
          let req = allowance fault Net_fault.Write len in
          Unix.write fd buf ofs req
        with
        | n -> write_exact ?deadline ?fault fd buf (ofs + n) (len - n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) ->
            write_exact ?deadline ?fault fd buf ofs len
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          -> (
            match wait_ready fd ~for_read:false ~deadline with
            | Error _ as e -> e
            | Ok () -> write_exact ?deadline ?fault fd buf ofs len)
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            Error Closed
        | exception Unix.Unix_error (e, _, _) ->
            Error (Frame_fault (Unix.error_message e)))

let read_frame ?(max_bytes = default_max_frame_bytes) ?deadline ?fault fd =
  let header = Bytes.create 4 in
  match read_exact ?deadline ?fault fd header 0 4 with
  | Error _ as e -> e
  | Ok () ->
      let b i = Char.code (Bytes.get header i) in
      let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
      if len > max_bytes then Error (Too_large len)
      else begin
        let payload = Bytes.create len in
        match read_exact ?deadline ?fault fd payload 0 len with
        | Error _ as e -> e
        | Ok () -> Ok (Bytes.unsafe_to_string payload)
      end

let write_frame ?deadline ?fault fd payload =
  let len = String.length payload in
  let frame = Bytes.create (4 + len) in
  Bytes.set frame 0 (Char.chr ((len lsr 24) land 0xFF));
  Bytes.set frame 1 (Char.chr ((len lsr 16) land 0xFF));
  Bytes.set frame 2 (Char.chr ((len lsr 8) land 0xFF));
  Bytes.set frame 3 (Char.chr (len land 0xFF));
  Bytes.blit_string payload 0 frame 4 len;
  write_exact ?deadline ?fault fd frame 0 (4 + len)

(* --- requests ------------------------------------------------------------ *)

type request =
  | Cube of {
      query : string;
      doc : string option;
      algorithm : string option;
      format : string;
      no_cache : bool;
      deadline_ms : int option;
      retries : int option;
      request_id : string option;
    }
  | Ingest of { doc : string; fragment : string }
  | Stats
  | Trace of { name : string option }
  | Ping
  | Shutdown

type provenance = { p_base : int; p_rollup : int; p_cached : int }

type response =
  | Cube_ok of {
      payload : string;
      provenance : provenance;
      seconds : float;
      partial : string option;
      request_id : string option;
    }
  | Ingest_ok of {
      lsn : int;  (** the fragment's WAL sequence number, now durable *)
      sessions : int;  (** resident sessions patched cell-by-cell *)
      cells : int;  (** view cells touched across those sessions *)
      fallbacks : int;  (** sessions flushed for a cold rebuild instead *)
    }
  | Stats_ok of Json.t
  | Trace_ok of Json.t
  | Pong
  | Bye
  | Failed of { code : string; message : string }

(* --- error taxonomy ------------------------------------------------------ *)

(* Wire error codes mirror the CLI's exit codes, so a scripted client
   can treat `x3 serve --query` exactly like `x3 cube`:
     2 = corrupt page/checksum  3 = I/O fault  4 = deadline/cancel
     5 = budget/admission/input caps  1 = everything else. *)
let exit_code_of_error = function
  | "corrupt" -> 2
  | "io_fault" -> 3
  | "timeout" | "cancelled" -> 4
  | "over_budget" | "rejected" | "input_too_large" | "frame_too_large"
  | "answer_too_large" ->
      5
  | _ -> 1

(* Retryable = the same request may succeed on a fresh attempt without
   anything changing on the client side: transient I/O, admission
   overload, a drain that cancelled us, a daemon mid-restart.  A timeout
   against the client's own deadline_ms, a corrupt store, or a budget
   the query simply exceeds will fail identically next time. *)
let retryable_error = function
  | "io_fault" | "rejected" | "cancelled" | "shutting_down" -> true
  | _ -> false

(* --- json ---------------------------------------------------------------- *)

let opt_field name v = match v with None -> [] | Some s -> [ (name, Json.Str s) ]

let opt_int_field name v =
  match v with None -> [] | Some i -> [ (name, Json.Int i) ]

let request_to_json = function
  | Cube
      {
        query;
        doc;
        algorithm;
        format;
        no_cache;
        deadline_ms;
        retries;
        request_id;
      } ->
      Json.Obj
        ([ ("verb", Json.Str "cube"); ("query", Json.Str query) ]
        @ opt_field "doc" doc
        @ opt_field "algorithm" algorithm
        @ [ ("format", Json.Str format); ("no_cache", Json.Bool no_cache) ]
        @ opt_int_field "deadline_ms" deadline_ms
        @ opt_int_field "retries" retries
        @ opt_field "request_id" request_id)
  | Ingest { doc; fragment } ->
      Json.Obj
        [
          ("verb", Json.Str "ingest");
          ("doc", Json.Str doc);
          ("fragment", Json.Str fragment);
        ]
  | Stats -> Json.Obj [ ("verb", Json.Str "stats") ]
  | Trace { name } ->
      Json.Obj ([ ("verb", Json.Str "trace") ] @ opt_field "name" name)
  | Ping -> Json.Obj [ ("verb", Json.Str "ping") ]
  | Shutdown -> Json.Obj [ ("verb", Json.Str "shutdown") ]

let request_of_json j =
  match Json.string_member "verb" j with
  | Some "cube" -> (
      match Json.string_member "query" j with
      | None -> Error "cube request: missing \"query\""
      | Some query ->
          Ok
            (Cube
               {
                 query;
                 doc = Json.string_member "doc" j;
                 algorithm = Json.string_member "algorithm" j;
                 format =
                   Option.value ~default:"csv" (Json.string_member "format" j);
                 no_cache =
                   Option.value ~default:false
                     (Json.bool_member "no_cache" j);
                 deadline_ms = Json.int_member "deadline_ms" j;
                 retries = Json.int_member "retries" j;
                 request_id = Json.string_member "request_id" j;
               }))
  | Some "ingest" -> (
      match
        (Json.string_member "doc" j, Json.string_member "fragment" j)
      with
      | Some doc, Some fragment -> Ok (Ingest { doc; fragment })
      | None, _ -> Error "ingest request: missing \"doc\""
      | _, None -> Error "ingest request: missing \"fragment\"")
  | Some "stats" -> Ok Stats
  | Some "trace" -> Ok (Trace { name = Json.string_member "name" j })
  | Some "ping" -> Ok Ping
  | Some "shutdown" -> Ok Shutdown
  | Some other -> Error (Printf.sprintf "unknown verb %S" other)
  | None -> Error "request: missing \"verb\""

let provenance_to_json p =
  Json.Obj
    [
      ("base", Json.Int p.p_base);
      ("rollup", Json.Int p.p_rollup);
      ("cached", Json.Int p.p_cached);
    ]

let provenance_of_json j =
  {
    p_base = Option.value ~default:0 (Json.int_member "base" j);
    p_rollup = Option.value ~default:0 (Json.int_member "rollup" j);
    p_cached = Option.value ~default:0 (Json.int_member "cached" j);
  }

let response_to_json = function
  | Cube_ok { payload; provenance; seconds; partial; request_id } ->
      Json.Obj
        ([
           ("status", Json.Str "ok");
           ("payload", Json.Str payload);
           ("provenance", provenance_to_json provenance);
           ("seconds", Json.Float seconds);
         ]
        @ opt_field "partial" partial
        @ opt_field "request_id" request_id)
  | Ingest_ok { lsn; sessions; cells; fallbacks } ->
      Json.Obj
        [
          ("status", Json.Str "ingested");
          ("lsn", Json.Int lsn);
          ("sessions", Json.Int sessions);
          ("cells", Json.Int cells);
          ("fallbacks", Json.Int fallbacks);
        ]
  | Stats_ok doc ->
      Json.Obj [ ("status", Json.Str "stats"); ("payload", doc) ]
  | Trace_ok doc ->
      Json.Obj [ ("status", Json.Str "trace"); ("payload", doc) ]
  | Pong -> Json.Obj [ ("status", Json.Str "pong") ]
  | Bye -> Json.Obj [ ("status", Json.Str "bye") ]
  | Failed { code; message } ->
      Json.Obj
        [
          ("status", Json.Str "error");
          ("code", Json.Str code);
          ("message", Json.Str message);
        ]

let response_of_json j =
  match Json.string_member "status" j with
  | Some "ok" -> (
      match Json.string_member "payload" j with
      | None -> Error "ok response: missing \"payload\""
      | Some payload ->
          let provenance =
            match Json.member "provenance" j with
            | Some p -> provenance_of_json p
            | None -> { p_base = 0; p_rollup = 0; p_cached = 0 }
          in
          let seconds =
            match Json.member "seconds" j with
            | Some (Json.Float f) -> f
            | Some (Json.Int i) -> float_of_int i
            | _ -> 0.
          in
          Ok
            (Cube_ok
               {
                 payload;
                 provenance;
                 seconds;
                 partial = Json.string_member "partial" j;
                 request_id = Json.string_member "request_id" j;
               }))
  | Some "ingested" ->
      let int_of name = Option.value ~default:0 (Json.int_member name j) in
      Ok
        (Ingest_ok
           {
             lsn = int_of "lsn";
             sessions = int_of "sessions";
             cells = int_of "cells";
             fallbacks = int_of "fallbacks";
           })
  | Some "stats" -> (
      match Json.member "payload" j with
      | Some doc -> Ok (Stats_ok doc)
      | None -> Error "stats response: missing \"payload\"")
  | Some "trace" -> (
      match Json.member "payload" j with
      | Some doc -> Ok (Trace_ok doc)
      | None -> Error "trace response: missing \"payload\"")
  | Some "pong" -> Ok Pong
  | Some "bye" -> Ok Bye
  | Some "error" ->
      Ok
        (Failed
           {
             code = Option.value ~default:"error" (Json.string_member "code" j);
             message =
               Option.value ~default:"" (Json.string_member "message" j);
           })
  | Some other -> Error (Printf.sprintf "unknown status %S" other)
  | None -> Error "response: missing \"status\""

let encode_request r = Json.to_string ~pretty:false (request_to_json r)
let encode_response r = Json.to_string ~pretty:false (response_to_json r)

let decode s of_json =
  match Json.parse s with Error e -> Error e | Ok j -> of_json j

let decode_request s = decode s request_of_json
let decode_response s = decode s response_of_json
