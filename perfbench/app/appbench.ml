(* Workloads cli_treebank and serve_mix: the program end to end.

   cli_treebank spawns the real [x3 cube -f csv] binary (default
   algorithm) on a 2·10^4-fact sparse 4-axis treebank and times it from
   spawn to exit; every run's CSV digest must equal an in-process export
   of the NAIVE cube.

   serve_mix drives a child [x3 serve --wal] daemon in a closed loop from
   two client connections with no think time: Zipf-skewed cube requests
   over eight dense 3-axis treebank sessions whose resident total is about
   1.5x the daemon's cache budget, and ~5% one-fact ingests into the same
   documents.  Every cube must come back [Cube_ok], ingest LSNs must be
   dense, and at the end every session's cached answer must equal the
   daemon's no_cache answer byte for byte.  One request per run asks for
   the 2·10^4-fact 4-axis cube, whose answer exceeds the client's frame
   cap; it is counted in serve.oversized_failures.

   Both also time each algorithm family's full cube in process on the
   workload's own table (the [<family>_s] metrics), as the fig workloads
   do on theirs. *)

module Engine = X3_core.Engine
module Treebank = X3_workload.Treebank
module Protocol = X3_serve.Protocol
module Client = X3_serve.Server.Client
module Json = X3_obs.Json
module B = X3bench_common.Bench
module F = X3bench_common.Families

let query_text ~doc ~axes =
  let vars = List.init axes (fun i -> i + 1) in
  Printf.sprintf "for $s in doc(%S)//s,\n%s\nX^3 $s by %s\nreturn COUNT($s)."
    doc
    (String.concat ",\n"
       (List.map (fun i -> Printf.sprintf "    $d%d in $s/w%d/d%d" i i i) vars))
    (String.concat ", "
       (List.map
          (fun i ->
            Printf.sprintf "$d%d (%s)" i (if i <= 2 then "LND, PC-AD" else "LND"))
          vars))

let write_doc path tb = X3_xml.Serialize.to_file path (Treebank.generate tb)

let fresh_pool () =
  X3_storage.Buffer_pool.create ~capacity_pages:65536
    (X3_storage.Disk.in_memory ~page_size:8192 ())

(* The CLI's pipeline, in process, each step a layer: query compile,
   document parse, store load, table prepare, columnarise. *)
let load_in_process ~query ~path =
  let compiled =
    match B.layer "ql.compile" (fun () -> X3_ql.Compile.parse_and_compile query) with
    | Ok c -> c
    | Error msg -> B.die "query does not compile: %s" msg
  in
  let doc =
    match
      B.layer "xml.parse" (fun () -> X3_xml.Parser.parse_file_with_dtd path)
    with
    | Ok (doc, _) -> doc
    | Error e -> B.die "%s: %s" path (Format.asprintf "%a" X3_xml.Parser.pp_error e)
  in
  let store = B.layer "xdb.store" (fun () -> X3_xdb.Store.of_document doc) in
  let pool = fresh_pool () in
  let prepared =
    B.layer "pattern.prepare" (fun () ->
        Engine.prepare ~pool ~store compiled.X3_ql.Compile.spec)
  in
  ignore
    (B.layer "pattern.columnar" (fun () ->
         X3_pattern.Witness.columnar_of_table (Engine.table prepared)));
  (compiled.X3_ql.Compile.spec, pool, prepared)

let set_load_layers () =
  B.set "ql.compile_s" (B.layer_s "ql.compile");
  B.set "xml.parse_s" (B.layer_s "xml.parse");
  B.set "xml.parse_minor_words" (B.layer_words "xml.parse");
  B.set "xdb.store_s" (B.layer_s "xdb.store");
  B.set "pattern.prepare_s" (B.layer_s "pattern.prepare");
  B.set "pattern.columnar_s" (B.layer_s "pattern.columnar")

(* Spawn [argv], stdout to [stdout_path]; returns (exit code, seconds). *)
let run_process argv ~stdout_path =
  let out =
    Unix.openfile stdout_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let t0 = B.now () in
  let pid = Unix.create_process argv.(0) argv Unix.stdin out null in
  let _, status = Unix.waitpid [] pid in
  let dt = B.now () -. t0 in
  Unix.close out;
  Unix.close null;
  ((match status with Unix.WEXITED c -> c | _ -> 255), dt)

(* --- cli_treebank ------------------------------------------------------- *)

let cli_treebank (args : B.args) =
  if args.B.x3 = "" then B.die "cli_treebank needs --x3";
  let tb =
    {
      Treebank.seed = args.B.seed;
      num_trees = 20_000;
      axes = 4;
      coverage = false;
      disjoint = true;
      density = Treebank.Sparse;
    }
  in
  let xml = Filename.concat args.B.out_dir "cli_treebank.xml" in
  let qpath = Filename.concat args.B.out_dir "cli_treebank.x3" in
  let csv = Filename.concat args.B.out_dir "cli_treebank.csv" in
  (* Set-up: produce the input document with the program's own generator
     and serializer (what `x3 gen treebank` does), three times, each in a
     fresh child so that this process's heap stays small. *)
  ignore (B.calibrate 3);
  let setup_s =
    B.median
      (List.init 3 (fun _ -> B.in_child (fun () -> snd (B.time (fun () -> write_doc xml tb)))))
  in
  let query = query_text ~doc:xml ~axes:4 in
  Out_channel.with_open_bin qpath (fun oc -> output_string oc query);
  (* peak_rss_mb: a fresh child runs the CLI's pipeline in process —
     compile, parse, load, prepare, the default algorithm, CSV export. *)
  let peak_rss_mb =
    if args.B.trace then 0.
    else
      B.in_child (fun () ->
          let spec, _, prepared = load_in_process ~query ~path:xml in
          let result, _ = Engine.run prepared Engine.Counter in
          ignore
            (Sys.opaque_identity
               (X3_core.Export.csv_string ~func:spec.Engine.func result));
          B.peak_rss_mb "self")
  in
  B.set_tracing args.B.trace;
  let spec, pool, prepared = load_in_process ~query ~path:xml in
  let fam = F.create prepared in
  let func = spec.Engine.func in
  (* The CSV every x3 cube run must print: the digest of the NAIVE cube's
     export, made in a child so that this process keeps only the table. *)
  let reference =
    B.in_child (fun () ->
        let naive, _ = Engine.run prepared Engine.Naive in
        Digest.string (X3_core.Export.csv_string ~func naive))
  in
  if args.B.trace then begin
    (* The CLI's compute (default algorithm COUNTER) and export. *)
    let result, _ = B.layer "core.compute" (fun () -> Engine.run prepared Engine.Counter) in
    let out = B.layer "core.export" (fun () -> X3_core.Export.csv_string ~func result) in
    if Digest.string out <> reference then fam.F.failed <- fam.F.failed + 1;
    B.set "core.compute_s" (B.layer_s "core.compute");
    B.set "core.compute_minor_words" (B.layer_words "core.compute");
    B.set "core.export_s" (B.layer_s "core.export");
    B.set "core.export_minor_words" (B.layer_words "core.export");
    B.set "core.export_bytes" (float_of_int (String.length out));
    B.set "core.cells" (float_of_int (X3_core.Cube_result.total_cells result))
  end;
  B.set_tracing false;
  let cli_failed = ref 0 in
  let cube ?trace_file () =
    let argv =
      Array.of_list
        ([ args.B.x3; "cube"; qpath; "--doc"; xml; "-f"; "csv" ]
        @ match trace_file with Some f -> [ "--trace"; f ] | None -> [])
    in
    let f = B.calibrate 3 in
    let code, dt = run_process argv ~stdout_path:csv in
    if code <> 0 || Digest.file csv <> reference then begin
      incr cli_failed;
      Printf.eprintf "benchmark: x3 cube exit %d or CSV digest mismatch\n%!" code
    end;
    f *. dt
  in
  let loop ?trace_file seconds =
    let t0 = B.now () in
    let rec go acc =
      if List.length acc >= 3 && B.now () -. t0 >= seconds then acc
      else go (cube ?trace_file () :: acc)
    in
    go []
  in
  let finish metrics =
    let attempted = fam.F.attempted and failed = fam.F.failed + !cli_failed in
    B.emit ~correct:(failed = 0) ~attempted ~failed metrics
  in
  if not args.B.trace then begin
    (* CLI runs alternate with family passes, so both sample the whole
       run; the rate is CLI runs per reference second of CLI time. *)
    let t0 = B.now () in
    let rec go walls =
      if List.length walls >= 3 && B.now () -. t0 >= args.B.seconds then walls
      else begin
        let wall = cube () in
        ignore (F.measure ~min_passes:1 fam 0.);
        go (wall :: walls)
      end
    in
    let walls = go [] in
    fam.F.attempted <- fam.F.attempted + List.length walls;
    finish
      (F.end_to_end fam ~setup_s ~peak_rss_mb
         ~answers:walls ~completed:(List.length walls) ~elapsed:(B.sum walls))
  end
  else begin
    let stats = X3_storage.Buffer_pool.stats pool in
    let hits0 = stats.X3_storage.Stats.pool_hits
    and misses0 = stats.X3_storage.Stats.pool_misses in
    let untraced = loop (args.B.seconds /. 2.) in
    let traced =
      loop ~trace_file:(Filename.concat args.B.out_dir "cli_treebank.cli-trace.json")
        (args.B.seconds /. 2.)
    in
    fam.F.attempted <- fam.F.attempted + List.length untraced + List.length traced;
    ignore (F.measure ~min_passes:2 fam 0.);
    B.set_tracing true;
    ignore (F.measure ~min_passes:1 fam 0.);
    let hits = stats.X3_storage.Stats.pool_hits - hits0
    and misses = stats.X3_storage.Stats.pool_misses - misses0 in
    if hits + misses > 0 then
      B.set "storage.pool_hit_ratio"
        (float_of_int hits /. float_of_int (hits + misses));
    set_load_layers ();
    F.report fam ~traced_passes:1;
    B.set "obs.trace_overhead" ((B.median traced /. B.median untraced) -. 1.);
    B.write_chrome_trace (Filename.concat args.B.out_dir "cli_treebank.trace.json");
    finish (B.per_layer_metrics ())
  end

(* --- serve_mix ---------------------------------------------------------- *)

(* Session sizes, hottest first.  An assumption, not a measurement: a
   spread of large and small sessions, so that the cache holds the hot
   head and the tail evicts (see perfbench/README.md). *)
let session_facts = [| 5000; 4000; 3000; 3000; 2000; 2000; 1000; 1000 |]

(* Resident bytes per fact of a dense 3-axis session, measured on the
   daemon's serve.cache.resident_bytes. *)
let bytes_per_fact = 800
let ingest_share = 0.05

(* The request skew: YCSB's zipfian request distribution constant
   (Cooper et al., "Benchmarking Cloud Serving Systems with YCSB",
   SoCC 2010). *)
let zipf_s = 0.99

(* The timed loop runs in slices of this length; the calibration task
   runs between slices, while the daemon is idle. *)
let slice_s = 1.

let stats_doc conn =
  match Client.request ~deadline:30. conn Protocol.Stats with
  | Ok (Protocol.Stats_ok j) -> j
  | _ -> B.die "serve: stats request failed"

(* Counter value, or a histogram's sum, from an x3-metrics/1 document. *)
let stat doc name =
  match Option.bind (Json.member "metrics" doc) (Json.member name) with
  | None -> 0.
  | Some m -> (
      match (Json.member "value" m, Json.member "sum" m) with
      | Some (Json.Int v), _ -> float_of_int v
      | _, Some (Json.Float s) -> s
      | _, Some (Json.Int s) -> float_of_int s
      | _ -> 0.)

let connect addr =
  match Client.connect addr with
  | Ok c -> c
  | Error e -> B.die "serve: connect: %s" e

(* Wait until the daemon answers a ping. *)
let wait_ready addr =
  let deadline = B.now () +. 60. in
  let rec go () =
    let ok =
      match Client.connect addr with
      | Error _ -> false
      | Ok c ->
          let r = Client.request ~deadline:5. c Protocol.Ping in
          Client.close c;
          r = Ok Protocol.Pong
    in
    if ok then ()
    else if B.now () > deadline then B.die "serve: daemon did not come up"
    else begin
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()

let shutdown addr pid =
  (match Client.connect addr with
  | Ok c ->
      ignore (Client.request ~deadline:10. c Protocol.Shutdown);
      Client.close c
  | Error _ -> ());
  let deadline = B.now () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when B.now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid)
    | _ -> ()
  in
  wait ()

(* Span coverage of the daemon's captured request trees: the part of
   each serve.request root that its child spans cover. *)
let capture_coverage dir =
  let files = try Sys.readdir dir |> Array.to_list with Sys_error _ -> [] in
  let num = function
    | Some (Json.Float x) -> x
    | Some (Json.Int i) -> float_of_int i
    | _ -> 0.
  in
  let mark e =
    let args = Json.member "args" e in
    let name = Option.value ~default:"" (Json.string_member "name" e) in
    let parent =
      Option.value ~default:0 (Option.bind args (Json.int_member "parent_id"))
    in
    let ts = num (Json.member "ts" e) /. 1e6 in
    match (Json.string_member "ph" e, Option.bind args (Json.int_member "span_id")) with
    | Some "B", Some id -> Some (B.Open { id; name; ts; parent })
    | Some "E", Some id -> Some (B.Close { id; ts })
    | Some "X", Some id ->
        let hi = ts +. (num (Json.member "dur" e) /. 1e6) in
        Some (B.Whole { B.id; name; lo = ts; hi; parent })
    | _ -> None
  in
  let root_s, covered_s =
    List.fold_left
      (fun (root_s, covered_s) f ->
        let text = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
        let events =
          match Json.parse text with
          | Ok (Json.Arr l) -> l
          | Ok j -> ( match Json.member "traceEvents" j with Some (Json.Arr l) -> l | _ -> [])
          | Error _ -> []
        in
        let total, cov =
          B.span_coverage
            ~is_root:(fun s -> s.B.name = "serve.request")
            (B.spans_of_marks (List.filter_map mark events))
        in
        (root_s +. total, covered_s +. cov))
      (0., 0.) files
  in
  if root_s > 0. then covered_s /. root_s else 0.

type sample = {
  kind : [ `Cube | `Ingest ];
  seconds : float;
  ok : bool;
  provenance : Protocol.provenance option;
  bytes : int;
  lsn : int option;
}

let serve_mix (args : B.args) =
  if args.B.x3 = "" then B.die "serve_mix needs --x3";
  let out = args.B.out_dir in
  let docs =
    Array.mapi
      (fun i facts ->
        let path = Filename.concat out (Printf.sprintf "serve_%d.xml" i) in
        let tb =
          {
            Treebank.seed = (args.B.seed * 100) + i;
            num_trees = facts;
            axes = 3;
            coverage = false;
            disjoint = true;
            density = Treebank.Dense;
          }
        in
        write_doc path tb;
        (path, query_text ~doc:path ~axes:3, tb))
      session_facts
  in
  (* The families, in process, on the hottest session's table: half of
     their passes before the daemon starts, half after it stops. *)
  B.set_tracing args.B.trace;
  let path0, query0, _ = docs.(0) in
  let _, _, prepared = load_in_process ~query:query0 ~path:path0 in
  let fam = F.create prepared in
  B.set_tracing false;
  let family_seconds = 1.5 in
  ignore (F.measure ~min_passes:3 fam family_seconds);
  let big = Filename.concat out "serve_big.xml" in
  write_doc big
    {
      Treebank.seed = args.B.seed;
      num_trees = 20_000;
      axes = 4;
      coverage = false;
      disjoint = true;
      density = Treebank.Sparse;
    };
  let big_query = query_text ~doc:big ~axes:4 in
  let sock = Filename.concat out "x3.sock" in
  let wal = Filename.concat out "ingest.wal" in
  let trace_dir = Filename.concat out "serve_traces" in
  let cache_bytes =
    Array.fold_left ( + ) 0 session_facts * bytes_per_fact * 2 / 3
  in
  let addr = X3_serve.Server.Unix_sock sock in
  let spawn () =
    List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ sock; wal ];
    let argv =
      Array.of_list
        ([
           args.B.x3; "serve"; "--socket"; sock; "--cache-bytes";
           string_of_int cache_bytes; "--workers"; "1"; "--wal"; wal;
         ]
        @
        if args.B.trace then
          [ "--slow-ms"; "0"; "--trace-dir"; trace_dir; "--trace-cap"; "100000" ]
        else [])
    in
    let log =
      Unix.openfile (Filename.concat out "serve.log")
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
    in
    let pid = Unix.create_process args.B.x3 argv Unix.stdin log log in
    Unix.close log;
    pid
  in
  let cube_request ?(no_cache = false) ?(format = "csv") (path, query, _) =
    Protocol.Cube
      {
        query;
        doc = Some path;
        algorithm = None;
        format;
        no_cache;
        deadline_ms = None;
        retries = None;
        request_id = None;
      }
  in
  let failed = ref 0 and attempted = ref 0 in
  let cube_payload conn req =
    incr attempted;
    match Client.request ~deadline:60. conn req with
    | Ok (Protocol.Cube_ok { payload; partial = None; _ }) -> Some payload
    | _ ->
        incr failed;
        None
  in
  (* Set-up: daemon spawn, first pong, and a warm-up pass that loads
     every session once — three times; the third daemon stays. *)
  ignore (B.calibrate 3);
  let setups =
    List.init 3 (fun i ->
        let pid, dt =
          B.time (fun () ->
              let pid = spawn () in
              wait_ready addr;
              let c = connect addr in
              Array.iter (fun d -> ignore (cube_payload c (cube_request d))) docs;
              Client.close c;
              pid)
        in
        if i < 2 then shutdown addr pid;
        (pid, dt))
  in
  let setup_s = B.median (List.map snd setups) in
  let pid = fst (List.nth setups 2) in
  let conn = connect addr in
  (* Zipf over sessions, hottest first. *)
  let weights = Array.mapi (fun k _ -> 1. /. (float_of_int (k + 1) ** zipf_s)) docs in
  let total = Array.fold_left ( +. ) 0. weights in
  let pick rng =
    let u = Random.State.float rng total in
    let rec go k acc =
      if k = Array.length weights - 1 || u < acc +. weights.(k) then k
      else go (k + 1) (acc +. weights.(k))
    in
    go 0 0.
  in
  let fragment rng =
    let v () = String.make 1 (Char.chr (Char.code 'a' + Random.State.int rng 4)) in
    Printf.sprintf
      "<s><w1><d1>%s</d1></w1><w2><d2>%s</d2></w2><w3><d3>%s</d3></w3></s>"
      (v ()) (v ()) (v ())
  in
  let stats0 = stats_doc conn in
  (* One client: requests on connection [c] until [deadline]. *)
  let client c rng deadline =
    let samples = ref [] in
    while B.now () < deadline do
      let d = docs.(pick rng) in
      let path, _, _ = d in
      let ingest = Random.State.float rng 1. < ingest_share in
      let req =
        if ingest then Protocol.Ingest { doc = path; fragment = fragment rng }
        else cube_request d
      in
      let r, dt = B.time (fun () -> Client.request ~deadline:60. c req) in
      let s =
        match r with
        | Ok (Protocol.Cube_ok { payload; provenance; partial = None; _ }) ->
            { kind = `Cube; seconds = dt; ok = true; provenance = Some provenance;
              bytes = String.length payload; lsn = None }
        | Ok (Protocol.Ingest_ok { lsn; _ }) ->
            { kind = `Ingest; seconds = dt; ok = true; provenance = None; bytes = 0;
              lsn = Some lsn }
        | _ ->
            { kind = (if ingest then `Ingest else `Cube); seconds = dt; ok = false;
              provenance = None; bytes = 0; lsn = None }
      in
      samples := s :: !samples
    done;
    !samples
  in
  (* Two clients, in slices.  Each slice starts with the calibration task,
     run while the daemon is idle (the previous slice ended when both
     clients had their last reply), so the daemon's own CPU use cannot
     change the scale of the slice's timings.  [answers] and [elapsed]
     are in reference seconds; the rate counts time inside slices only. *)
  let conns = Array.init 2 (fun _ -> connect addr) in
  let rngs = Array.init 2 (fun i -> Random.State.make [| args.B.seed; i |]) in
  let stop = B.now () +. args.B.seconds in
  let samples = ref [] and answers = ref [] and elapsed = ref 0. in
  while B.now () < stop do
    let f = B.calibrate 3 in
    let deadline = Float.min stop (B.now () +. slice_s) in
    let results = Array.make 2 [] in
    let t0 = B.now () in
    let threads =
      List.init 2 (fun i ->
          Thread.create (fun () -> results.(i) <- client conns.(i) rngs.(i) deadline) ())
    in
    List.iter Thread.join threads;
    elapsed := !elapsed +. (f *. (B.now () -. t0));
    let slice = results.(0) @ results.(1) in
    answers :=
      List.filter_map
        (fun s -> if s.kind = `Cube && s.ok then Some (f *. s.seconds) else None)
        slice
      @ !answers;
    samples := slice @ !samples
  done;
  Array.iter Client.close conns;
  let samples = !samples in
  let stats1 = stats_doc conn in
  List.iter
    (fun s ->
      incr attempted;
      if not s.ok then incr failed)
    samples;
  (* Ingest LSNs must be dense: no gaps, no repeats. *)
  let lsns = List.sort compare (List.filter_map (fun s -> s.lsn) samples) in
  (match lsns with
  | [] -> ()
  | first :: _ ->
      if lsns <> List.init (List.length lsns) (fun k -> first + k) then begin
        incr failed;
        prerr_endline "benchmark: ingest LSNs are not dense"
      end);
  (* Every session's cached answer equals its no_cache answer. *)
  Array.iter
    (fun d ->
      match
        (cube_payload conn (cube_request d), cube_payload conn (cube_request ~no_cache:true d))
      with
      | Some a, Some b when a <> b ->
          incr failed;
          prerr_endline "benchmark: cached answer differs from no_cache"
      | _ -> ())
    docs;
  Client.close conn;
  (* The oversized answer, one attempt on its own connection. *)
  let oversized_failures =
    let c = connect addr in
    let r =
      Client.request ~deadline:120. c
        (cube_request ~format:"json" (big, big_query, ()))
    in
    Client.close c;
    match r with Ok (Protocol.Cube_ok _) -> 0. | _ -> 1.
  in
  let peak = B.peak_rss_mb (string_of_int pid) in
  shutdown addr pid;
  ignore (F.measure ~min_passes:3 fam family_seconds);
  if args.B.trace then begin
    B.set_tracing true;
    ignore (F.measure ~min_passes:1 fam 0.);
    F.report fam ~traced_passes:1;
    set_load_layers ()
  end;
  let cubes = List.filter (fun s -> s.kind = `Cube && s.ok) samples in
  let ingests = List.filter (fun s -> s.kind = `Ingest && s.ok) samples in
  attempted := !attempted + fam.F.attempted;
  failed := !failed + fam.F.failed;
  let finish metrics =
    B.emit ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed metrics
  in
  if not args.B.trace then
    finish
      (F.end_to_end fam ~setup_s ~peak_rss_mb:peak ~answers:!answers
         ~completed:(List.length cubes + List.length ingests)
         ~elapsed:!elapsed)
  else begin
    let delta name = stat stats1 name -. stat stats0 name in
    let hits = delta "serve.cache.hits" and misses = delta "serve.cache.misses" in
    if hits +. misses > 0. then B.set "serve.cache.hit_ratio" (hits /. (hits +. misses));
    B.set "serve.cache.evictions" (delta "serve.cache.evictions");
    B.set "serve.cuboids.base" (delta "serve.cuboids.base");
    B.set "serve.cuboids.rollup" (delta "serve.cuboids.rollup");
    B.set "serve.cuboids.cached" (delta "serve.cuboids.cached");
    B.set "serve.admission_wait_s" (delta "serve.latency.admission_wait");
    B.set "serve.frame_read_s" (delta "serve.latency.frame_read");
    B.set "serve.frame_write_s" (delta "serve.latency.frame_write");
    B.set "serve.ingest.cells_patched" (delta "serve.ingest.cells");
    B.set "serve.ingest.fallbacks" (delta "serve.ingest.fallbacks");
    B.set "wal.commit_bytes" (delta "wal.commit_bytes");
    B.set "wal.commit_fsync_s" (delta "wal.latency.commit_fsync");
    (* Client latency by the cheapest provenance that served any cuboid. *)
    let by_class cls =
      List.filter_map
        (fun s ->
          match s.provenance with
          | Some p ->
              let c =
                if p.Protocol.p_base > 0 then `Base
                else if p.Protocol.p_rollup > 0 then `Rollup
                else `Cached
              in
              if c = cls then Some s.seconds else None
          | None -> None)
        cubes
    in
    (* A class no request fell into reads 0, as an unexercised layer. *)
    List.iter
      (fun (name, cls) ->
        match by_class cls with [] -> () | xs -> B.set name (B.median xs))
      [
        ("serve.cube.base_s", `Base);
        ("serve.cube.rollup_s", `Rollup);
        ("serve.cube.cached_s", `Cached);
      ];
    B.set "serve.answer_bytes"
      (B.median (List.map (fun s -> float_of_int s.bytes) cubes));
    B.set "serve.ingest_p50_ms"
      (1000. *. B.median (List.map (fun s -> s.seconds) ingests));
    B.set "serve.oversized_failures" oversized_failures;
    let coverage = capture_coverage trace_dir in
    B.set "serve.trace_coverage" coverage;
    B.write_chrome_trace (Filename.concat out "serve_mix.trace.json");
    let metrics = B.per_layer_metrics () in
    (* For the daemon, the unattributed share is what its captured request
       trees leave uncovered. *)
    finish
      (List.map
         (fun (m : B.metric) ->
           if m.B.name = "obs.unattributed_share" then { m with B.value = 1. -. coverage }
           else m)
         metrics)
  end

let () =
  let args = B.parse_args () in
  B.start_calibrator ();
  match args.B.workload with
  | "cli_treebank" -> cli_treebank args
  | "serve_mix" -> serve_mix args
  | w -> B.die "appbench: unknown workload %S" w
