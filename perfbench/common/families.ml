(* The paper's §4 metric on one prepared table: each algorithm family's
   full-cube [Engine.run], timed, with its output checked against a NAIVE
   reference.  A family that [Engine.correct_under] says is correct for
   the table's observed properties must match the reference; a family
   predicted wrong is counted as expected-wrong, and a match is reported
   rather than failed.

   Only entry points that predate the columnar layout are used
   (Engine.prepare/run, Cube_result.iter, Aggregate.value,
   Properties.observe, Instrument.pp), so this file builds on older
   commits too. *)

module Engine = X3_core.Engine
module Properties = X3_lattice.Properties
module Cube_result = X3_core.Cube_result

let families = Engine.[ Counter; Buc; Bucopt; Td; Tdopt; Tdoptall ]
let name a = String.lowercase_ascii (Engine.algorithm_to_string a)

(* A cube's cell count and an order-independent fingerprint of its
   answers: for four seeds, the sum over its cells of a 30-bit seeded hash
   of (cuboid, key, value).  Two cubes with different answers collide with
   probability about 2^-120.  Values are compared exactly, as
   [Cube_result.equal] compares them for COUNT, the aggregate of every
   workload here. *)
type fingerprint = int * int list

let fingerprint ~func cube : fingerprint =
  let acc = Array.make 4 0 in
  Cube_result.iter
    (fun ~cuboid ~key cell ->
      let v = (cuboid, key, X3_core.Aggregate.value func cell) in
      for s = 0 to 3 do
        acc.(s) <- acc.(s) + Hashtbl.seeded_hash s v
      done)
    cube;
  (Cube_result.total_cells cube, Array.to_list acc)

type t = {
  prepared : Engine.prepared;
  config : Engine.config;
  reference : fingerprint;  (** of the NAIVE cube *)
  disjoint : bool;
  coverage : bool;
  first_cells : (string, int) Hashtbl.t;
  times : (string, float list) Hashtbl.t;  (** untraced runs only *)
  mutable attempted : int;
  mutable failed : int;
  mutable expected_wrong : int;
  mutable expected_wrong_matched : int;
}

let func t = (Engine.spec_of t.prepared).Engine.func

let create ?(config = Engine.default_config) prepared =
  let props =
    Bench.layer "lattice.observe" (fun () ->
        Properties.observe (Engine.table prepared) (Engine.lattice prepared))
  in
  (* The reference is computed in a child and only its fingerprint kept,
     so that this process, from which every timed run is forked, holds the
     table and no benchmark data. *)
  let func = (Engine.spec_of prepared).Engine.func in
  let reference =
    Bench.in_child (fun () ->
        fingerprint ~func (fst (Engine.run ~config prepared Engine.Naive)))
  in
  {
    prepared;
    config;
    reference;
    disjoint = Properties.all_disjoint props;
    coverage = Properties.all_covered props;
    first_cells = Hashtbl.create 8;
    times = Hashtbl.create 8;
    attempted = 0;
    failed = 0;
    expected_wrong = 0;
    expected_wrong_matched = 0;
  }

(* What a run of [alg] hands to [check]: the fingerprint of the family's
   first cube, which is compared in full; for later cubes only the cell
   count, which must not change. *)
let summarise t alg cube =
  if Hashtbl.mem t.first_cells (name alg) then
    (Cube_result.total_cells cube, None)
  else
    let fp = fingerprint ~func:(func t) cube in
    (fst fp, Some fp)

let check t alg (cells, fp) =
  t.attempted <- t.attempted + 1;
  let n = name alg in
  match fp with
  | None ->
      if Hashtbl.find_opt t.first_cells n <> Some cells then
        t.failed <- t.failed + 1
  | Some fp ->
      Hashtbl.replace t.first_cells n cells;
      let matches = fp = t.reference in
      if Engine.correct_under alg ~disjoint:t.disjoint ~coverage:t.coverage
      then begin
        if not matches then begin
          t.failed <- t.failed + 1;
          Printf.eprintf "benchmark: %s differs from NAIVE\n%!" n
        end
      end
      else begin
        t.expected_wrong <- t.expected_wrong + 1;
        if matches then t.expected_wrong_matched <- t.expected_wrong_matched + 1
      end

(* The run's counters, read through Instrument's printer so that fields
   added after the oldest replay target read as 0. *)
let counters instr =
  let text = Format.asprintf "%a" X3_core.Instrument.pp instr in
  let find key =
    match Bench.index_after text key with
    | None -> 0.
    | Some i ->
        let j = ref i in
        while !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9' do
          incr j
        done;
        if !j = i then 0. else float_of_string (String.sub text i (!j - i))
  in
  [
    ("sort_ops", find "sorts=");
    ("rows_sorted", find "sorted=");
    ("keys_built", find "keys=");
    ("dedup_tracked", find "dedup=");
    ("radix_groupings", find "radix:");
    ("hash_groupings", find "/hash:");
    ("passes", find "passes=");
  ]

(* An untraced family run shorter than this is repeated, up to
   [max_repeats] times, so short runs still give enough samples. *)
let min_sample_s = 0.25
let max_repeats = 8

(* One untraced run of [alg], with its repeats, in a forked child: every
   run starts from this process's heap, which holds only the table.  (The
   major heap only grows within one process, so runs made one after
   another would each start from a different heap.)  Returns the run
   times and the summary to check. *)
let run_in_child t alg =
  Bench.in_child (fun () ->
      let run () =
        Bench.time (fun () -> fst (Engine.run ~config:t.config t.prepared alg))
      in
      let cube, dt = run () in
      let summary = summarise t alg cube in
      let repeats =
        min max_repeats (int_of_float (Float.ceil (min_sample_s /. dt)))
      in
      (dt :: List.init (repeats - 1) (fun _ -> snd (run ())), summary))

(* One pass: every family once, in the paper's order, each timed right
   after its own calibration.  Returns the pass's time (the first run of
   each family).  Untraced passes record per-family times; traced ones
   run in this process, inside a layer span, and record the counters of
   the returned Instrument.  Times are in reference seconds. *)
let pass t =
  List.fold_left
    (fun total alg ->
      let n = name alg in
      let f = Bench.calibrate 3 in
      if !Bench.tracing then begin
        let (cube, instr), dt =
          Bench.time (fun () ->
              Bench.layer ("core." ^ n) (fun () ->
                  Engine.run ~config:t.config t.prepared alg))
        in
        check t alg (summarise t alg cube);
        List.iter
          (fun (c, v) ->
            if c <> "passes" then Bench.set (Printf.sprintf "core.%s.%s" n c) v
            else if alg = Engine.Counter then Bench.set "core.counter.passes" v)
          (counters instr);
        total +. (f *. dt)
      end
      else begin
        let times, summary = run_in_child t alg in
        check t alg summary;
        let times = List.map (( *. ) f) times in
        Hashtbl.replace t.times n
          (times @ Option.value ~default:[] (Hashtbl.find_opt t.times n));
        total +. List.hd times
      end)
    0. families

(* Passes until [seconds] have gone by, at least [min_passes].  Three by
   default, so that each family's median has a sample on either side and
   one slow sample (the host stalls now and then) cannot move it. *)
let measure ?(min_passes = 3) t seconds =
  let t0 = Bench.now () in
  let rec go acc =
    if List.length acc >= min_passes && Bench.now () -. t0 >= seconds then
      List.rev acc
    else go (pass t :: acc)
  in
  go []

(* Per-layer numbers of the family runs made so far: median untraced
   reference seconds per family, minor words per traced call, check
   counts. *)
let report t ~traced_passes =
  Hashtbl.iter (fun n ts -> Bench.set ("core." ^ n ^ ".s") (Bench.median ts)) t.times;
  if traced_passes > 0 then
    List.iter
      (fun alg ->
        let n = name alg in
        Bench.set
          (Printf.sprintf "core.%s.minor_words" n)
          (Bench.layer_words ("core." ^ n) /. float_of_int traced_passes))
      families;
  Bench.set "pattern.witness_rows"
    (float_of_int (X3_pattern.Witness.row_count (Engine.table t.prepared)));
  Bench.set "lattice.observe_s" (Bench.layer_s "lattice.observe");
  Bench.set "check.expected_wrong" (float_of_int t.expected_wrong);
  Bench.set "check.expected_wrong_matched" (float_of_int t.expected_wrong_matched)

(* The end-to-end metrics every workload prints: set-up, peak memory,
   the workload's answer latencies and rate, and the median untraced run
   of each family on this table.  [answers] and [elapsed] are in
   reference seconds (see {!Bench.calibrate}); [setup_s] is in wall
   seconds and scaled by the run's speed factor. *)
let end_to_end t ~setup_s ~peak_rss_mb ~answers ~completed ~elapsed =
  [
    Bench.m "setup_s" "s" (Bench.speed_factor () *. setup_s);
    Bench.m "peak_rss_mb" "MB" peak_rss_mb;
    Bench.m "answer_p50_ms" "ms" (1000. *. Bench.median answers);
    Bench.m "answer_tail_ms" "ms" (1000. *. Bench.tail answers);
    Bench.m "answers_per_s" "1/s" (float_of_int completed /. elapsed);
  ]
  @ List.map
      (fun alg ->
        let n = name alg in
        Bench.m (n ^ "_s") "s"
          (Bench.median (Option.value ~default:[] (Hashtbl.find_opt t.times n))))
      families
