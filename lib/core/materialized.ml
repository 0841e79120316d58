module Lattice = X3_lattice.Lattice
module Properties = X3_lattice.Properties
module Cuboid = X3_lattice.Cuboid
module Witness = X3_pattern.Witness

module Int_set = Set.Make (Int)

(* Groups are kept under coded keys relative to the source table's
   dictionaries; the value-keyed accessors translate through them, like
   Cube_result. A group's fact set is all it holds: its cell is computed
   from the set when needed. *)
type t = {
  cuboid_id : int;
  lattice : Lattice.t;
  layout : Group_key.layout;
  dicts : Witness.Dict.t array;
  measure : int -> float;
  groups : (Group_key.t, Int_set.t ref) Hashtbl.t;
}

let cuboid_id t = t.cuboid_id
let group_count t = Hashtbl.length t.groups

let states t = Lattice.cuboid t.lattice t.cuboid_id

let fact_items t ~key =
  match Group_key.of_parts t.layout ~dicts:t.dicts (states t) key with
  | None -> []
  | Some coded -> (
      match Hashtbl.find_opt t.groups coded with
      | Some facts -> Int_set.elements !facts
      | None -> [])

let add_fact groups key fact =
  match Hashtbl.find_opt groups key with
  | Some facts -> facts := Int_set.add fact !facts
  | None -> Hashtbl.replace groups key (ref (Int_set.singleton fact))

let materialize (ctx : Context.t) ~cuboid =
  let c = Lattice.cuboid ctx.lattice cuboid in
  let groups = Hashtbl.create 256 in
  let scratch = Group_key.make_scratch ctx.layout in
  Context.scan ctx (fun row ->
      if Context.row_represents c row then begin
        Group_key.load scratch c row;
        ctx.instr.Instrument.keys_built <-
          ctx.instr.Instrument.keys_built + 1;
        add_fact groups (Group_key.freeze scratch) row.Witness.fact
      end);
  {
    cuboid_id = cuboid;
    lattice = ctx.lattice;
    layout = ctx.layout;
    dicts = Witness.dicts ctx.table;
    measure = ctx.measure;
    groups;
  }

(* The ingest delta patch: [materialize]'s per-row step over only the
   appended rows. Adding facts to group fact-sets is duplicate-safe (set
   union semantics), so non-disjoint repeats across the new rows cost
   memory, never correctness — the same §3.6 discipline as rollup
   merging. The rows must be coded against the same table (and layout)
   the view was built on. *)
let apply_rows (ctx : Context.t) t rows =
  let c = Lattice.cuboid t.lattice t.cuboid_id in
  let scratch = Group_key.make_scratch t.layout in
  let touched = ref 0 in
  List.iter
    (fun row ->
      if Context.row_represents c row then begin
        Group_key.load scratch c row;
        ctx.Context.instr.Instrument.keys_built <-
          ctx.Context.instr.Instrument.keys_built + 1;
        add_fact t.groups (Group_key.freeze scratch) row.Witness.fact;
        incr touched
      end)
    rows;
  !touched

(* Estimated resident bytes, in the spirit of the Governor cost model:
   per group one bucket + boxed key + the ref cell (~96 bytes, like
   counter_cost), plus one balanced-set node per fact id (4 fields +
   header = 5 words). The fixed tail covers the record itself. *)
let group_cost = 96
let fact_cost = 40

let approx_bytes t =
  Hashtbl.fold
    (fun _ facts acc -> acc + group_cost + (fact_cost * Int_set.cardinal !facts))
    t.groups 128

let cell_of_facts t facts =
  let cell = Aggregate.create () in
  Int_set.iter (fun fact -> Aggregate.add cell (t.measure fact)) facts;
  cell

let values t key = Group_key.to_parts t.layout ~dicts:t.dicts (states t) key

let cells t =
  Hashtbl.fold
    (fun key facts acc -> (values t key, cell_of_facts t !facts) :: acc)
    t.groups []
  |> List.sort (fun (a, _) (b, _) ->
         List.compare Group_key.compare_values a b)

let rollup_unchecked (ctx : Context.t) t ~coarser =
  let coarse = Lattice.cuboid ctx.lattice coarser in
  let groups = Hashtbl.create 256 in
  Hashtbl.iter
    (fun key facts ->
      let key' = Group_key.project t.layout ~to_:coarse key in
      match Hashtbl.find_opt groups key' with
      | Some merged ->
          (* The fact sets make the merge duplicate-safe: a fact present in
             two finer groups counts once here. *)
          merged := Int_set.union !merged !facts
      | None -> Hashtbl.replace groups key' (ref !facts))
    t.groups;
  { t with cuboid_id = coarser; groups }

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
  add_u32 header (Hashtbl.length t.groups);
  let records =
    Hashtbl.fold
      (fun key facts acc ->
        let buf = Buffer.create 64 in
        Buffer.add_char buf 'K';
        List.iter
          (fun v ->
            add_u32 buf (String.length v);
            Buffer.add_string buf v)
          (values t key);
        add_u32 buf (Int_set.cardinal !facts);
        Int_set.iter (fun fact -> add_u32 buf fact) !facts;
        Buffer.contents buf :: acc)
      t.groups []
  in
  Buffer.contents header :: records

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
          let dicts = Witness.dicts ctx.table in
          let groups = Hashtbl.create (max 16 expected) in
          let rec go = function
            | [] ->
                if Hashtbl.length groups <> expected then
                  Error "view snapshot: group count mismatch"
                else
                  Ok
                    {
                      cuboid_id;
                      lattice = ctx.lattice;
                      layout = ctx.layout;
                      dicts;
                      measure = ctx.measure;
                      groups;
                    }
            | record :: rest -> (
                match parse_group ~arity record with
                | Error _ as e -> e
                | Ok (key, facts) -> (
                    match Group_key.of_parts ctx.layout ~dicts cuboid key with
                    | None ->
                        Error
                          (Printf.sprintf
                             "view snapshot: group (%s) names values unknown \
                              to this witness table"
                             (String.concat ", " key))
                    | Some coded ->
                        Hashtbl.replace groups coded (ref facts);
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
  Hashtbl.iter
    (fun key facts ->
      Array.iteri
        (fun axis _ -> ids.(axis) <- Group_key.id_at t.layout key ~axis)
        ids;
      Group_key.load_ids scratch cuboid ids;
      let g = Group_table.find_or_add tbl (Group_key.words scratch) in
      Int_set.iter
        (fun fact ->
          measures.(0) <- t.measure fact;
          Group_table.add tbl g measures 0)
        !facts)
    t.groups
