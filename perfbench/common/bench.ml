(* Helpers shared by the benchmark executables: command-line arguments,
   order statistics, the result line, peak RSS, and the layer spans a
   traced run records around calls into the program's public functions. *)

module Trace = X3_obs.Trace

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out_dir : string;  (** scratch inputs and the Chrome-trace files *)
  x3 : string;  (** path of the built [x3] binary (app workloads only) *)
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref 0 and out_dir = ref ".bench_out" and x3 = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run");
      ("--out", Arg.Set_string out_dir, "DIR scratch and trace output");
      ("--x3", Arg.Set_string x3, "PATH x3 binary");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "figbench/appbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (Sys.file_exists !out_dir) then Sys.mkdir !out_dir 0o755;
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    out_dir = !out_dir;
    x3 = !x3;
  }

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("benchmark: " ^ m);
      exit 2)
    fmt

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* --- order statistics --------------------------------------------------- *)

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile p = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let h = p *. float_of_int (Array.length a - 1) in
      let lo = int_of_float h in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* The highest percentile that still has ten samples beyond it; the
   median when there are too few samples for any tail. *)
let tail xs =
  let n = List.length xs in
  if n < 20 then median xs else quantile (1. -. (10. /. float_of_int n)) xs

let sum = List.fold_left ( +. ) 0.

(* Index just past the first occurrence of [key] in [text]. *)
let index_after text key =
  let n = String.length text and k = String.length key in
  let rec go i =
    if i + k > n then None
    else if String.sub text i k = key then Some (i + k)
    else go (i + 1)
  in
  go 0

(* --- machine speed ------------------------------------------------------ *)

(* The host's speed shifts by up to 1.5x for a minute at a time (other
   tenants share its cores), far more than a regression bound.  So every
   timing is taken next to a fixed calibration task — sorting and hashing
   40k integers, as the engine's grouping does — run by a small helper
   process forked before any workload data exists, so that the task's
   cost depends neither on the program nor on this process's heap.  A run
   reports its timings in reference seconds: wall seconds scaled by
   [cal_ref /. median calibration time], of the samples taken right
   before the timing where there are such, else of the whole run. *)

let cal_ref = 0.01
let cal_samples : float list ref = ref []
let cal_pipes : (out_channel * in_channel) option ref = ref None

let calibration_task () =
  let a = Array.init 40_000 (fun i -> ((i * 7919) + 13) land 0xfffff) in
  Array.sort compare a;
  let h = Hashtbl.create 1024 in
  Array.iter (fun k -> Hashtbl.replace h (k land 0x3fff) k) a;
  ignore (Sys.opaque_identity h)

(* Fork the helper; call first thing in [main].  It exits when this
   process closes its request pipe at exit. *)
let start_calibrator () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close req_w;
      Unix.close resp_r;
      let ic = Unix.in_channel_of_descr req_r in
      let oc = Unix.out_channel_of_descr resp_w in
      (try
         while true do
           ignore (input_char ic);
           let (), dt = time calibration_task in
           Printf.fprintf oc "%.9f\n%!" dt
         done
       with End_of_file -> ());
      Unix._exit 0
  | pid ->
      Unix.close req_r;
      Unix.close resp_w;
      let req = Unix.out_channel_of_descr req_w in
      cal_pipes := Some (req, Unix.in_channel_of_descr resp_r);
      at_exit (fun () ->
          close_out_noerr req;
          ignore (Unix.waitpid [] pid))

(* Run the calibration task [n] times and record its times.  Returns the
   reference seconds per wall second of this moment, for a timing taken
   right after: the host drifts within seconds, so a timing scaled by its
   own calibration is steadier than one scaled by the run's. *)
let calibrate n =
  match !cal_pipes with
  | None -> invalid_arg "Bench.calibrate: no calibrator"
  | Some (req, resp) ->
      let samples =
        List.init n (fun _ ->
            output_char req 'c';
            flush req;
            float_of_string (input_line resp))
      in
      cal_samples := samples @ !cal_samples;
      cal_ref /. median samples

(* Reference seconds per wall second over the whole run. *)
let speed_factor () = cal_ref /. median !cal_samples

(* --- peak memory -------------------------------------------------------- *)

(* VmHWM of a process, in MiB: "self" or a pid. *)
let peak_rss_mb pid =
  let ic = open_in ("/proc/" ^ pid ^ "/status") in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

(* --- forked children ------------------------------------------------ *)

(* [f ()] in a forked child, its result sent back through a pipe.  The
   child starts from a copy of this process's heap and drops all it
   allocates when it exits, so later work here does not run on a heap
   that [f] grew (OCaml 5.1's major heap never shrinks), and its VmHWM
   counts only this process's memory at the fork plus what [f] used. *)
let in_child (f : unit -> 'a) : 'a =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      (match f () with
      | v ->
          Marshal.to_channel oc v [];
          close_out oc;
          Unix._exit 0
      | exception e ->
          prerr_endline ("benchmark: child failed: " ^ Printexc.to_string e);
          Unix._exit 2)
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v = try Some (Marshal.from_channel ic : 'a) with End_of_file -> None in
      close_in ic;
      match (Unix.waitpid [] pid, v) with
      | (_, Unix.WEXITED 0), Some v -> v
      | _ -> die "a forked benchmark child failed"

(* --- the result line ---------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let emit ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun { name; unit_; value } ->
           let v =
             if Float.is_finite value then Printf.sprintf "%.17g" value
             else "null"
           in
           Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name v unit_)
         metrics)
  in
  Printf.printf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed body;
  print_newline ()

(* --- layer spans -------------------------------------------------------- *)

(* In a traced run every call into a layer runs inside a [bench.<layer>]
   span and records its wall time and minor-heap words.  After each call
   the global rings are drained: the part of each bench span that no
   direct child span of the program covers is the unattributed time, and
   the bench spans with two levels of program spans beneath them are kept
   for the Chrome-trace file. *)

let tracing = ref false

type layer_acc = { mutable calls : float list; mutable words : float }

let layers : (string, layer_acc) Hashtbl.t = Hashtbl.create 32
let bench_seconds = ref 0.
let covered_seconds = ref 0.
let kept : Trace.event list ref = ref []
let dropped = ref 0

let layer_acc name =
  match Hashtbl.find_opt layers name with
  | Some a -> a
  | None ->
      let a = { calls = []; words = 0. } in
      Hashtbl.replace layers name a;
      a

(* Median seconds of one call and total minor words across calls. *)
let layer_s name = median (layer_acc name).calls
let layer_words name = (layer_acc name).words

let is_bench name = String.length name > 6 && String.sub name 0 6 = "bench."

(* Union length of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let iv =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b)))
      (0., None) iv
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* A span of a trace, paired from its events: id, name, start and stop
   seconds, and the id of its parent (0 for none). *)
type span = { id : int; name : string; lo : float; hi : float; parent : int }

(* A trace event as the pairing sees it: the opening or closing half of
   a span, or a span emitted whole. *)
type mark =
  | Open of { id : int; name : string; ts : float; parent : int }
  | Close of { id : int; ts : float }
  | Whole of span

(* The spans of a list of marks, oldest first; a span whose opening half
   is missing is left out. *)
let spans_of_marks marks =
  let opened = Hashtbl.create 256 in
  List.filter_map
    (function
      | Open o ->
          Hashtbl.replace opened o.id (o.name, o.ts, o.parent);
          None
      | Close { id; ts } ->
          Option.map
            (fun (name, lo, parent) -> { id; name; lo; hi = ts; parent })
            (Hashtbl.find_opt opened id)
      | Whole s -> Some s)
    marks

(* The total length of the spans [is_root] picks, and the part of it
   that their direct children cover. *)
let span_coverage ~is_root spans =
  let children = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add children s.parent (s.lo, s.hi)) spans;
  List.fold_left
    (fun (total, cov) s ->
      if is_root s then
        ( total +. (s.hi -. s.lo),
          cov +. covered ~lo:s.lo ~hi:s.hi (Hashtbl.find_all children s.id) )
      else (total, cov))
    (0., 0.) spans

let drain () =
  let rings = Trace.dump () in
  Trace.reset ();
  List.iter
    (fun (r : Trace.ring) ->
      dropped := !dropped + r.Trace.ring_dropped;
      let spans =
        spans_of_marks
          (List.filter_map
             (fun (e : Trace.event) ->
               let id = e.Trace.span and ts = e.Trace.ts in
               match e.Trace.phase with
               | Trace.Begin ->
                   Some (Open { id; name = e.Trace.name; ts; parent = e.Trace.parent })
               | Trace.End -> Some (Close { id; ts })
               | Trace.Complete lo ->
                   Some
                     (Whole { id; name = e.Trace.name; lo; hi = ts; parent = e.Trace.parent })
               | Trace.Instant -> None)
             r.Trace.events)
      in
      let total, cov = span_coverage ~is_root:(fun s -> is_bench s.name) spans in
      bench_seconds := !bench_seconds +. total;
      covered_seconds := !covered_seconds +. cov;
      let by_id = Hashtbl.create 256 in
      List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
      let depth = Hashtbl.create 256 in
      let rec depth_of id =
        match Hashtbl.find_opt depth id with
        | Some d -> d
        | None ->
            let d =
              match Hashtbl.find_opt by_id id with
              | None -> max_int / 2
              | Some s when is_bench s.name -> 0
              | Some s -> 1 + depth_of s.parent
            in
            Hashtbl.replace depth id d;
            d
      in
      List.iter
        (fun (e : Trace.event) ->
          let keep =
            match e.Trace.phase with
            | Trace.Instant -> false
            | _ -> depth_of e.Trace.span <= 2
          in
          if keep then kept := e :: !kept)
        r.Trace.events)
    rings

let layer name f =
  if not !tracing then f ()
  else begin
    let acc = layer_acc name in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let sp = Trace.start ("bench." ^ name) in
    let v =
      match f () with
      | v ->
          Trace.finish sp;
          v
      | exception e ->
          Trace.finish sp;
          raise e
    in
    acc.calls <- (now () -. t0) :: acc.calls;
    acc.words <- acc.words +. (Gc.minor_words () -. w0);
    drain ();
    v
  end

(* Tracing on: bench spans and the program's own probes are recorded.
   Off: both are skipped, as in an end-to-end run. *)
let set_tracing on =
  tracing := on;
  if on then Trace.enable () else Trace.disable ()

let unattributed_share () =
  if !bench_seconds <= 0. then 0.
  else 1. -. (!covered_seconds /. !bench_seconds)

(* The kept spans, as one Chrome-trace JSON file. *)
let write_chrome_trace path =
  set_tracing false;
  let ring =
    {
      Trace.ring_domain = 0;
      events = List.rev !kept;
      ring_dropped = !dropped;
    }
  in
  X3_obs.Json.to_file path (X3_obs.Export.chrome_trace [ ring ])

(* --- per-layer metrics ---------------------------------------------------- *)

let families = [ "counter"; "buc"; "bucopt"; "td"; "tdopt"; "tdoptall" ]

let family_counters =
  [
    ("minor_words", "words");
    ("sort_ops", "count");
    ("rows_sorted", "count");
    ("keys_built", "count");
    ("dedup_tracked", "count");
    ("radix_groupings", "count");
    ("hash_groupings", "count");
  ]

(* Every traced run prints all of these, in this order; a layer the
   workload does not exercise reads 0. *)
let per_layer =
  [
    ("ql.compile_s", "s");
    ("xml.parse_s", "s");
    ("xml.parse_minor_words", "words");
    ("xdb.store_s", "s");
    ("pattern.prepare_s", "s");
    ("pattern.witness_rows", "count");
    ("pattern.columnar_s", "s");
    ("lattice.observe_s", "s");
  ]
  @ List.concat_map
      (fun f ->
        (("core." ^ f ^ ".s"), "s")
        :: List.map (fun (c, u) -> ("core." ^ f ^ "." ^ c, u)) family_counters)
      families
  @ [
      ("core.counter.passes", "count");
      ("core.compute_s", "s");
      ("core.compute_minor_words", "words");
      ("core.export_s", "s");
      ("core.export_minor_words", "words");
      ("core.export_bytes", "bytes");
      ("core.cells", "count");
      ("storage.pool_hit_ratio", "ratio");
      ("wal.commit_fsync_s", "s");
      ("wal.commit_bytes", "bytes");
      ("serve.cache.hit_ratio", "ratio");
      ("serve.cache.evictions", "count");
      ("serve.cuboids.base", "count");
      ("serve.cuboids.rollup", "count");
      ("serve.cuboids.cached", "count");
      ("serve.cube.base_s", "s");
      ("serve.cube.rollup_s", "s");
      ("serve.cube.cached_s", "s");
      ("serve.admission_wait_s", "s");
      ("serve.frame_read_s", "s");
      ("serve.frame_write_s", "s");
      ("serve.answer_bytes", "bytes");
      ("serve.ingest.cells_patched", "count");
      ("serve.ingest.fallbacks", "count");
      ("serve.ingest_p50_ms", "ms");
      ("serve.oversized_failures", "count");
      ("serve.trace_coverage", "ratio");
      ("obs.calibration_s", "s");
      ("obs.trace_overhead", "ratio");
      ("obs.unattributed_share", "ratio");
      ("check.expected_wrong", "count");
      ("check.expected_wrong_matched", "count");
    ]

let layer_values : (string, float) Hashtbl.t = Hashtbl.create 128

let set name v =
  if not (List.mem_assoc name per_layer) then
    invalid_arg ("Bench.set: unknown per-layer metric " ^ name);
  Hashtbl.replace layer_values name v

let per_layer_metrics () =
  set "obs.unattributed_share" (unattributed_share ());
  set "obs.calibration_s" (median !cal_samples);
  List.map
    (fun (name, unit_) ->
      m name unit_ (Option.value ~default:0. (Hashtbl.find_opt layer_values name)))
    per_layer
