(* Workloads fig4_sparse and fig9_dense: the paper's §4 metric, each
   algorithm family's full-cube computation on one prepared witness
   table.  One answer is one pass over COUNTER, BUC, BUCOPT, TD, TDOPT
   and TDOPTALL; every family's cube is checked against NAIVE.

   The timing path uses only Treebank, Store, Buffer_pool and the
   Families module, so this file also builds on commits that predate
   the columnar layout, for regression replays. *)

module Engine = X3_core.Engine
module Treebank = X3_workload.Treebank
module B = X3bench_common.Bench
module F = X3bench_common.Families

let treebank_config ~seed = function
  (* Fig. 4: sparse values, coverage fails, disjointness holds. *)
  | "fig4_sparse" ->
      {
        Treebank.seed;
        num_trees = 1_000;
        axes = 7;
        coverage = false;
        disjoint = true;
        density = Treebank.Sparse;
      }
  (* Fig. 9: dense values, neither property holds. *)
  | "fig9_dense" ->
      {
        Treebank.seed;
        num_trees = 10_000;
        axes = 6;
        coverage = false;
        disjoint = false;
        density = Treebank.Dense;
      }
  | w -> B.die "figbench: unknown workload %S" w

let () =
  let args = B.parse_args () in
  B.start_calibrator ();
  let tb = treebank_config ~seed:args.B.seed args.B.workload in
  let spec = Treebank.spec tb in
  (* The budgets bench/figures.ml uses for these figures. *)
  let config =
    {
      Engine.default_config with
      counter_budget = 40 * tb.Treebank.num_trees;
      sort_budget = max 500 (tb.Treebank.num_trees / 5);
    }
  in
  B.set_tracing args.B.trace;
  (* Set-up: load the document into the store and prepare the table —
     what the paper keeps out of its cube timings. *)
  let setup doc =
    let store = B.layer "xdb.store" (fun () -> X3_xdb.Store.of_document doc) in
    let pool =
      X3_storage.Buffer_pool.create ~capacity_pages:65536
        (X3_storage.Disk.in_memory ~page_size:8192 ())
    in
    let prepared =
      B.layer "pattern.prepare" (fun () -> Engine.prepare ~pool ~store spec)
    in
    (pool, prepared)
  in
  ignore (B.calibrate 3);
  (* Three timed set-ups; the median is setup_s.  The first two run in
     fresh children, so only one table is ever alive here.  The first
     child then runs every family once: its VmHWM is peak_rss_mb, the
     memory of a process holding one document and one prepared table. *)
  let child_setup ~families () =
    B.in_child (fun () ->
        let doc = Treebank.generate tb in
        let (_, prepared), dt = B.time (fun () -> setup doc) in
        if families then
          List.iter (fun alg -> ignore (Engine.run ~config prepared alg)) F.families;
        (dt, B.peak_rss_mb "self"))
  in
  let dt1, peak_rss_mb = child_setup ~families:true () in
  let dt2, _ = child_setup ~families:false () in
  let doc = Treebank.generate tb in
  let (pool, prepared), dt3 = B.time (fun () -> setup doc) in
  let setup_s = B.median [ dt1; dt2; dt3 ] in
  let fam = F.create ~config prepared in
  B.set_tracing false;
  if not args.B.trace then begin
    let t0 = B.now () in
    let passes = F.measure fam args.B.seconds in
    let elapsed = B.now () -. t0 in
    B.emit ~correct:(fam.F.failed = 0) ~attempted:fam.F.attempted
      ~failed:fam.F.failed
      (F.end_to_end fam ~setup_s ~peak_rss_mb
         ~answers:passes ~completed:(List.length passes)
         ~elapsed:(B.speed_factor () *. elapsed))
  end
  else begin
    (* Untraced passes give the per-family times and the overhead base;
       traced passes give the counters, allocation and spans. *)
    let stats = X3_storage.Buffer_pool.stats pool in
    let hits0 = stats.X3_storage.Stats.pool_hits
    and misses0 = stats.X3_storage.Stats.pool_misses in
    let untraced = F.measure ~min_passes:2 fam (args.B.seconds /. 2.) in
    B.set_tracing true;
    let traced = F.measure ~min_passes:2 fam (args.B.seconds /. 2.) in
    let hits = stats.X3_storage.Stats.pool_hits - hits0
    and misses = stats.X3_storage.Stats.pool_misses - misses0 in
    if hits + misses > 0 then
      B.set "storage.pool_hit_ratio"
        (float_of_int hits /. float_of_int (hits + misses));
    B.set "xdb.store_s" (B.layer_s "xdb.store");
    B.set "pattern.prepare_s" (B.layer_s "pattern.prepare");
    F.report fam ~traced_passes:(List.length traced);
    B.set "obs.trace_overhead" ((B.median traced /. B.median untraced) -. 1.);
    B.write_chrome_trace
      (Filename.concat args.B.out_dir (args.B.workload ^ ".trace.json"));
    B.emit ~correct:(fam.F.failed = 0) ~attempted:fam.F.attempted
      ~failed:fam.F.failed (B.per_layer_metrics ())
  end
