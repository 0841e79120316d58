module Lattice = X3_lattice.Lattice
module Properties = X3_lattice.Properties
module Cuboid = X3_lattice.Cuboid
module Witness = X3_pattern.Witness
module Trace = X3_obs.Trace

module Int_set = Set.Make (Int)

(* A view counts its groups in a Group_table over the session's coded
   keys, like every other family; the table's group numbers index the
   fact set each group sits beside. A group's fact set is all it holds:
   its cell is computed from the set when needed. *)
type t = {
  cuboid_id : int;
  lattice : Lattice.t;
  layout : Group_key.layout;
  dicts : Witness.Dict.t array;
  measure : int -> float;
  groups : Group_table.t;
  mutable facts : Int_set.t array;  (** per group number *)
}

let create (ctx : Context.t) ~cuboid =
  {
    cuboid_id = cuboid;
    lattice = ctx.lattice;
    layout = ctx.layout;
    dicts = Witness.dicts ctx.table;
    measure = ctx.measure;
    groups = Group_table.create ~words:ctx.layout.Group_key.words;
    facts = [||];
  }

let cuboid_id t = t.cuboid_id
let group_count t = Group_table.length t.groups

let states t = Lattice.cuboid t.lattice t.cuboid_id

(* Room for group [g]'s fact set, grown with the table. *)
let make_room t g =
  let n = Array.length t.facts in
  if g >= n then begin
    let grown = Array.make (max 16 (2 * n)) Int_set.empty in
    Array.blit t.facts 0 grown 0 n;
    t.facts <- grown
  end

let fact_items t ~key =
  match Group_key.of_parts t.layout ~dicts:t.dicts (states t) key with
  | None -> []
  | Some coded ->
      let g = Group_table.find_key t.groups coded in
      if g < 0 then [] else Int_set.elements t.facts.(g)

(* Every row of [cols] from [from] on that represents its fact in the
   view's cuboid joins its group; returns how many did. Fact sets make a
   repeat idempotent (set union), so non-disjoint rows cost memory, never
   correctness — the same §3.6 discipline as rollup merging. *)
let add_rows (ctx : Context.t) t cols ~from ~checkpoint =
  let c = states t in
  let scratch = Group_key.make_scratch t.layout in
  let added = ref 0 in
  for row = from to Witness.Columnar.rows cols - 1 do
    checkpoint ();
    if Context.cols_represents c cols ~row then begin
      Group_key.load_cols scratch c cols ~row;
      ctx.instr.Instrument.keys_built <- ctx.instr.Instrument.keys_built + 1;
      let g = Group_table.find_or_add t.groups (Group_key.words scratch) in
      make_room t g;
      t.facts.(g) <- Int_set.add (Witness.Columnar.fact cols row) t.facts.(g);
      incr added
    end
  done;
  !added

let materialize (ctx : Context.t) ~cuboid =
  let cols = Context.cols ctx in
  let rows = Witness.Columnar.rows cols in
  ctx.instr.Instrument.table_scans <- ctx.instr.Instrument.table_scans + 1;
  ctx.instr.Instrument.rows_scanned <- ctx.instr.Instrument.rows_scanned + rows;
  let t = create ctx ~cuboid in
  let sp = Trace.start "witness.scan" in
  Fun.protect
    ~finally:(fun () -> Trace.finish sp ~attrs:[ ("rows", Trace.Int rows) ])
    (fun () ->
      ignore
        (add_rows ctx t cols ~from:0 ~checkpoint:(fun () ->
             Context.checkpoint ctx)));
  t

(* The ingest delta patch: [materialize]'s per-row step over only the
   rows [Context.note_append] added at the columns' tail. *)
let apply_rows (ctx : Context.t) t ~from =
  add_rows ctx t (Context.cols ctx) ~from ~checkpoint:ignore

(* Estimated resident bytes, in the spirit of the Governor cost model:
   per group ~96 bytes (its key and columns in the group table, its share
   of the lookup index and its fact-set slot), plus one balanced-set node
   per fact id (4 fields + header = 5 words). The fixed tail covers the
   record itself. *)
let group_cost = 96
let fact_cost = 40

let approx_bytes t =
  let bytes = ref 128 in
  for g = 0 to group_count t - 1 do
    bytes := !bytes + group_cost + (fact_cost * Int_set.cardinal t.facts.(g))
  done;
  !bytes

let cell_of_facts t facts =
  let cell = Aggregate.create () in
  Int_set.iter (fun fact -> Aggregate.add cell (t.measure fact)) facts;
  cell

let values t g =
  Group_key.to_parts t.layout ~dicts:t.dicts (states t)
    (Group_table.key t.groups g)

let cells t =
  List.init (group_count t) (fun g -> (values t g, cell_of_facts t t.facts.(g)))
  |> List.sort (fun (a, _) (b, _) ->
         List.compare Group_key.compare_values a b)

let rollup_unchecked (ctx : Context.t) t ~coarser =
  let rolled = create ctx ~cuboid:coarser in
  let masks = Group_key.word_masks t.layout (states rolled) in
  for g = 0 to group_count t - 1 do
    let g' =
      Group_table.find_or_add_group ~masks rolled.groups ~src:t.groups g
    in
    make_room rolled g';
    (* The fact sets make the merge duplicate-safe: a fact present in two
       finer groups counts once here. *)
    rolled.facts.(g') <- Int_set.union rolled.facts.(g') t.facts.(g)
  done;
  rolled

(* A covered path from [finer] to [coarser] in the lattice DAG: every step
   must be a covered edge. Breadth-first over parents. *)
let covered_path lattice props ~finer ~coarser =
  if finer = coarser then Ok ()
  else begin
    let visited = Hashtbl.create 16 in
    let rec search frontier =
      match frontier with
      | [] ->
          Error
            (Printf.sprintf
               "no covered lattice path from cuboid %d to cuboid %d — \
                coverage fails on every route, the intermediate is missing \
                facts"
               finer coarser)
      | node :: rest ->
          if node = coarser then Ok ()
          else if Hashtbl.mem visited node then search rest
          else begin
            Hashtbl.add visited node ();
            let next =
              List.filter
                (fun parent ->
                  Properties.edge_covered props ~finer:node ~coarser:parent
                  && Cuboid.leq
                       (Lattice.cuboid lattice parent)
                       (Lattice.cuboid lattice coarser))
                (Lattice.parents lattice node)
            in
            search (rest @ next)
          end
    in
    search [ finer ]
  end

let rollup (ctx : Context.t) ~props t ~coarser =
  let fine = Lattice.cuboid ctx.lattice t.cuboid_id in
  let coarse = Lattice.cuboid ctx.lattice coarser in
  if not (Cuboid.leq fine coarse) then
    Error
      (Printf.sprintf "cuboid %d is not a relaxation of cuboid %d" coarser
         t.cuboid_id)
  else begin
    match covered_path ctx.lattice props ~finer:t.cuboid_id ~coarser with
    | Error _ as e -> e
    | Ok () -> Ok (rollup_unchecked ctx t ~coarser)
  end

(* --- snapshot persistence ---------------------------------------------- *)
(* The portable form of a view is its groups' values plus fact-id sets:
   coded keys are relative to one table's dictionaries, so persisting them
   would tie the snapshot to dictionary iteration order. Load re-interns
   through [Group_key.of_parts] against the context it is loaded into.

   Records: one 'M' header (cuboid id, group count), then per group one
   'K' record — for each present axis a u32 length and the value's bytes,
   then a u32 fact count and the u32 fact ids. 'G' group records (one
   u16-length-prefixed key string) are an older format, refused: a view
   is cheap to recompute, and a refused one is never misread. *)

let add_u32 buf v =
  for shift = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * shift)) land 0xFF))
  done

let read_u32 record pos =
  let u8 p = Char.code record.[p] in
  u8 pos lor (u8 (pos + 1) lsl 8) lor (u8 (pos + 2) lsl 16)
  lor (u8 (pos + 3) lsl 24)

let to_records t =
  let header = Buffer.create 9 in
  Buffer.add_char header 'M';
  add_u32 header t.cuboid_id;
  add_u32 header (group_count t);
  let record g =
    let buf = Buffer.create 64 in
    Buffer.add_char buf 'K';
    List.iter
      (fun v ->
        add_u32 buf (String.length v);
        Buffer.add_string buf v)
      (values t g);
    add_u32 buf (Int_set.cardinal t.facts.(g));
    Int_set.iter (fun fact -> add_u32 buf fact) t.facts.(g);
    Buffer.contents buf
  in
  Buffer.contents header :: List.init (group_count t) record

let save t store = X3_storage.Snapshot_store.commit store (to_records t)

(* [arity] values, then the fact list, filling the record exactly. *)
let parse_group ~arity record =
  let len = String.length record in
  let fits pos n = pos + n <= len in
  let rec read_values n pos acc =
    if n = 0 then Ok (List.rev acc, pos)
    else if not (fits pos 4) then Error "view snapshot: truncated key"
    else
      let vlen = read_u32 record pos in
      if not (fits (pos + 4) vlen) then Error "view snapshot: truncated key"
      else
        read_values (n - 1) (pos + 4 + vlen)
          (String.sub record (pos + 4) vlen :: acc)
  in
  if len = 0 then Error "view snapshot: empty group record"
  else if record.[0] = 'G' then
    Error "view snapshot: group record in an older format (string keys)"
  else if record.[0] <> 'K' then Error "view snapshot: bad group record"
  else
    match read_values arity 1 [] with
    | Error _ as e -> e
    | Ok (key, pos) ->
        if not (fits pos 4) then Error "view snapshot: truncated fact list"
        else
          let nfacts = read_u32 record pos in
          if pos + 4 + (4 * nfacts) <> len then
            Error "view snapshot: truncated fact list"
          else begin
            let facts = ref Int_set.empty in
            for i = 0 to nfacts - 1 do
              facts := Int_set.add (read_u32 record (pos + 4 + (4 * i))) !facts
            done;
            Ok (key, !facts)
          end

let of_records (ctx : Context.t) records =
  match records with
  | [] -> Error "view snapshot: empty store"
  | header :: rest ->
      if String.length header <> 9 || header.[0] <> 'M' then
        Error "view snapshot: bad header record"
      else begin
        let cuboid_id = read_u32 header 1 in
        let expected = read_u32 header 5 in
        if cuboid_id >= Lattice.size ctx.lattice then
          Error
            (Printf.sprintf
               "view snapshot: cuboid %d not in this lattice (size %d)"
               cuboid_id (Lattice.size ctx.lattice))
        else begin
          let cuboid = Lattice.cuboid ctx.lattice cuboid_id in
          let arity =
            Array.fold_left
              (fun n -> function
                | X3_lattice.State.Removed -> n
                | X3_lattice.State.Present _ -> n + 1)
              0 cuboid
          in
          let t = create ctx ~cuboid:cuboid_id in
          let rec go = function
            | [] ->
                if group_count t <> expected then
                  Error "view snapshot: group count mismatch"
                else Ok t
            | record :: rest -> (
                match parse_group ~arity record with
                | Error _ as e -> e
                | Ok (key, facts) -> (
                    match
                      Group_key.of_parts t.layout ~dicts:t.dicts cuboid key
                    with
                    | None ->
                        Error
                          (Printf.sprintf
                             "view snapshot: group (%s) names values unknown \
                              to this witness table"
                             (String.concat ", " key))
                    | Some coded ->
                        let g =
                          Group_table.find_or_add t.groups
                            (match coded with
                            | Group_key.Packed p -> [| p |]
                            | Group_key.Wide w -> w)
                        in
                        make_room t g;
                        t.facts.(g) <- facts;
                        go rest))
          in
          go rest
        end
      end

let load (ctx : Context.t) store =
  of_records ctx (X3_storage.Snapshot_store.read store)

(* A view and the result it fills share the session's dictionaries, so
   re-keying is by id alone; the layouts may still differ if the
   dictionaries grew in between. *)
let to_result t result =
  let cuboid = states t in
  let tbl = Cube_result.cells result t.cuboid_id in
  let scratch = Group_key.make_scratch (Cube_result.layout result) in
  let ids = Array.make (Array.length cuboid) 0 in
  let measures = [| 0. |] in
  for g = 0 to group_count t - 1 do
    Array.iteri
      (fun axis _ -> ids.(axis) <- Group_table.id_at t.layout t.groups g ~axis)
      ids;
    Group_key.load_ids scratch cuboid ids;
    let r = Group_table.find_or_add tbl (Group_key.words scratch) in
    Int_set.iter
      (fun fact ->
        measures.(0) <- t.measure fact;
        Group_table.add tbl r measures 0)
      t.facts.(g)
  done
