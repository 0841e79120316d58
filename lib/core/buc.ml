module Lattice = X3_lattice.Lattice
module State = X3_lattice.State
module Axis = X3_pattern.Axis
module Witness = X3_pattern.Witness
module Columnar = Witness.Columnar

type variant = [ `Plain | `Opt | `Custom of X3_lattice.Properties.t ]

(* The recursion's per-worker state: the current restriction (states/ids)
   is mutated in place down the recursion, so every worker needs its own
   copy, along with private counters. The rows themselves are indices into
   the shared immutable columns — partitions copy and reorder 8-byte ints,
   never boxed rows. *)
type env = {
  states : State.t array;
  ids : int array;  (* current partition's dictionary id per present axis *)
  key : Group_key.scratch;  (* the current group's key words *)
  instr : Instrument.t;
}

let compute ~variant (ctx : Context.t) =
  let lattice = ctx.lattice in
  let axes = Lattice.axes lattice in
  let k = Array.length axes in
  let result = Cube_result.create ~table:ctx.table lattice in
  try
    let cols = Context.cols ctx in
    let bm = Context.block_measures ctx cols in
    let nrows = Columnar.rows cols in
    let cell_id r ai = Columnar.id cols ~axis:ai ~row:r in
    let dict_sizes = Witness.dict_sizes ctx.table in
    (* Only rows holding the fact's first binding on every removed axis
       represent their fact here (see Context.cols_represents); the
       partition keeps the others because deeper refinements may make
       those axes present. *)
    let represents env r =
      let ai = ref 0 in
      while
        !ai < k
        &&
        match env.states.(!ai) with
        | State.Removed -> Columnar.first cols ~axis:!ai ~row:r
        | State.Present _ -> true
      do
        incr ai
      done;
      !ai >= k
    in
    (* Three aggregation modes (§3.4):
       - BUC: representative rows, deduplicated by fact id — always
         correct;
       - BUCOPT: raw row counts, assuming strict disjointness globally —
         cheap, and silently wrong when the assumption fails (a fact's
         cartesian duplicates all get counted);
       - BUCCUST: where the property oracle proves the cuboid disjoint,
         count representative rows without identity tracking; elsewhere
         run the full BUC aggregation. *)
    let mode_of cid =
      match variant with
      | `Plain -> `Dedup
      | `Opt -> `Raw
      | `Custom props ->
          if X3_lattice.Properties.cuboid_disjoint props cid then
            `Representative
          else `Dedup
    in
    (* The group is inserted on its first counted row: a group exists only
       if some fact is in it. *)
    let aggregate_into env (cid, mode) rows_lo rows_hi part =
      let tbl = Cube_result.cells result cid in
      let words = Group_key.words env.key in
      let g = ref (-1) in
      let add r =
        if !g < 0 then g := Group_table.find_or_add tbl words;
        Group_table.add tbl !g bm (Columnar.block_of_row cols r)
      in
      match mode with
      | `Raw ->
          for i = rows_lo to rows_hi do
            add part.(i)
          done
      | `Representative ->
          for i = rows_lo to rows_hi do
            if represents env part.(i) then add part.(i)
          done
      | `Dedup ->
          (* Every partition sort is stable and the root is in table
             order, so each run lists its rows in table order — and a
             fact's rows are contiguous in the table, so its
             representatives are consecutive here: comparing with the
             last fact counted removes every duplicate. *)
          let last = ref min_int and tracked = ref 0 in
          for i = rows_lo to rows_hi do
            if represents env part.(i) then begin
              let fact = Columnar.fact cols part.(i) in
              if fact <> !last then begin
                last := fact;
                incr tracked;
                add part.(i)
              end
            end
          done;
          env.instr.Instrument.dedup_tracked <-
            env.instr.Instrument.dedup_tracked + !tracked
    in
    (* The cuboid the current state vector emits into, with its
       aggregation mode, or [None] when it is not a cuboid of the lattice:
       any axis left Removed — skipped by the recursion or not yet
       reached — must actually allow LND; otherwise this restriction is
       only an intermediate step and must not be emitted. The vector is
       fixed for a whole [branch] call, so this runs once per branch, not
       once per cell. *)
    let emit_target env =
      let rec emittable i =
        i >= k
        || ((match env.states.(i) with
            | State.Removed -> Axis.allows_lnd axes.(i)
            | State.Present _ -> true)
           && emittable (i + 1))
      in
      if emittable 0 then
        let cid = Lattice.id lattice (Array.copy env.states) in
        Some (cid, mode_of cid)
      else None
    in
    (* Byte accounting runs only on the domain owning the shared context —
       workers' recursion is unaccounted (their branches are bounded by the
       index array the calling domain already booked). Result cells are
       booked at refine boundaries; partition sub-arrays transiently per
       branch. *)
    let governed = not (Governor.is_unbounded (Context.account ctx)) in
    let booked_cells = ref 0 in
    let book_result () =
      if governed then begin
        let cells = Cube_result.total_cells result in
        if cells > !booked_cells then begin
          Context.reserve ctx ((cells - !booked_cells) * Context.counter_cost ctx);
          booked_cells := cells
        end
      end
    in
    let rec refine env target part lo hi next =
      (* Stop check at partition boundaries — but only on the domain that
         owns the shared context (workers carry a private [instr]); a stop
         abandons the recursion with already-emitted cells intact. *)
      if env.instr == ctx.instr then begin
        Context.check ctx;
        book_result ()
      end;
      (* Empty restrictions produce no groups (a group exists only if some
         fact is in it), matching the reference semantics. *)
      (match target with
      | Some target when hi >= lo ->
          env.instr.Instrument.keys_built <-
            env.instr.Instrument.keys_built + 1;
          Group_key.load_ids env.key env.states env.ids;
          aggregate_into env target lo hi part
      | _ -> ());
      for ai = next to k - 1 do
        List.iter
          (fun mask -> branch env part lo hi ai mask)
          (Axis.states axes.(ai))
      done
    and branch env part lo hi ai mask =
      (* Restrict to rows whose axis-[ai] binding is valid at [mask]:
         count, then fill, to avoid intermediate lists. *)
      let n = ref 0 in
      for i = lo to hi do
        if Columnar.qualifies cols ~axis:ai ~row:part.(i) ~state:mask then
          incr n
      done;
      let sub =
        if !n = 0 then [||]
        else begin
          let sub = Array.make !n 0 in
          let j = ref 0 in
          for i = lo to hi do
            let r = part.(i) in
            if Columnar.qualifies cols ~axis:ai ~row:r ~state:mask then begin
              sub.(!j) <- r;
              incr j
            end
          done;
          sub
        end
      in
      let n = Array.length sub in
      if n > 0 then begin
        (* The sub-array is live for the whole branch (and under it, the
           deeper sub-arrays of the recursion): book its words, releasing
           on the way back up. *)
        let sub_bytes =
          if governed && env.instr == ctx.instr then 8 * (n + 2) else 0
        in
        let partition () =
          (* Partition on the grouping id, stably, at a cost proportional
             to the partition (see [Radix.partition_sort]). Dictionary ids
             compare as plain ints — no string walks. *)
          let instr = env.instr in
          (match
             Radix.partition_sort ~radix_bits:ctx.radix_bits
               ~id:(fun r -> cell_id r ai)
               ~size:dict_sizes.(ai) sub
           with
          | Radix.Unsorted -> ()
          | tier ->
              instr.Instrument.sort_ops <- instr.Instrument.sort_ops + 1;
              instr.Instrument.rows_sorted <- instr.Instrument.rows_sorted + n;
              if tier = Radix.Counting then
                instr.Instrument.radix_groupings <-
                  instr.Instrument.radix_groupings + 1
              else
                instr.Instrument.hash_groupings <-
                  instr.Instrument.hash_groupings + 1);
          env.states.(ai) <- State.Present mask;
          let target = emit_target env in
          let run_start = ref 0 in
          for i = 1 to n do
            let boundary =
              i = n || cell_id sub.(i) ai <> cell_id sub.(!run_start) ai
            in
            if boundary then begin
              env.ids.(ai) <- cell_id sub.(!run_start) ai;
              refine env target sub !run_start (i - 1) (ai + 1);
              run_start := i
            end
          done;
          env.states.(ai) <- State.Removed
        in
        (* The release closure is only needed when bytes were booked. *)
        if sub_bytes = 0 then partition ()
        else begin
          Context.reserve ctx sub_bytes;
          Fun.protect
            ~finally:(fun () -> Context.release ctx sub_bytes)
            partition
        end
      end
    in
    let fresh_env ~instr =
      {
        states = Array.make k State.Removed;
        ids = Array.make k 0;
        key = Group_key.make_scratch ctx.layout;
        instr;
      }
    in
    let root = Array.init nrows Fun.id in
    if Context.workers ctx <= 1 then begin
      (* The base witness set is the full row-index range; the recursion
         partitions index arrays in memory, as BUC does when the input fits
         (our scaled inputs do; the I/O cost of the initial columnarising
         read is counted by [Context.cols]). *)
      try
        (* The root index array is resident for the whole recursion. *)
        if governed then Context.reserve ctx (8 * (nrows + 2));
        let env = fresh_env ~instr:ctx.instr in
        X3_obs.Trace.with_span "buc.recursion"
          ~attrs:[ ("rows", X3_obs.Trace.Int nrows) ]
          (fun () -> refine env (emit_target env) root 0 (nrows - 1) 0)
      with Context.Stop _ -> ()
    end
    else begin
      try
        (* Parallel BUC splits at the recursion's first level. Branch
           (ai, mask) emits exactly the cuboids whose first present axis is
           [ai] with state [mask] (axes below [ai] stay Removed inside the
           branch), so distinct tasks write to disjoint cuboids — and
           Cube_result preallocates one table per cuboid, so workers
           aggregate straight into the shared result with no partial-merge
           step. Within a branch the partitioning, sort and recursion are
           byte-for-byte the sequential ones; the columns and block
           measures are immutable and shared. *)
        if governed then Context.reserve ctx (8 * (nrows + 2));
        (* The apex (everything Removed) belongs to no branch; [next = k]
           emits just it, on the calling domain. *)
        let env = fresh_env ~instr:ctx.instr in
        refine env (emit_target env) root 0 (nrows - 1) k;
        let tasks =
          Array.of_list
            (List.concat_map
               (fun ai ->
                 List.map (fun mask -> (ai, mask)) (Axis.states axes.(ai)))
               (List.init k Fun.id))
        in
        let states =
          Parallel.run ~workers:ctx.workers ~tasks:(Array.length tasks)
            ~init:(fun _ -> fresh_env ~instr:(Instrument.create ()))
            ~body:(fun env t ->
              let ai, mask = tasks.(t) in
              X3_obs.Trace.with_span "buc.branch"
                ~attrs:[ ("axis", X3_obs.Trace.Int ai) ]
                (fun () -> branch env root 0 (nrows - 1) ai mask))
        in
        Array.iter
          (fun env -> Instrument.merge ~into:ctx.instr env.instr)
          states;
        book_result ()
      with Context.Stop _ -> ()
    end;
    result
  with Context.Stop _ -> result
