module Lattice = X3_lattice.Lattice
module Witness = X3_pattern.Witness

(* Cells are stored under coded (packed-integer) keys; the value-keyed API
   below translates through the witness dictionaries. *)

type t = {
  lattice : Lattice.t;
  table : Witness.t;
  layout : Group_key.layout;
  cells : Aggregate.cell Group_key.Tbl.t array;
}

let create ~table lattice =
  {
    lattice;
    table;
    layout = Group_key.layout_of_table table;
    cells = Array.init (Lattice.size lattice) (fun _ -> Group_key.Tbl.create 64);
  }

let lattice t = t.lattice
let table t = t.table
let layout t = t.layout

(* --- coded hot path ----------------------------------------------------- *)

let cell t ~cuboid ~key =
  let tbl = t.cells.(cuboid) in
  match Group_key.Tbl.find_opt tbl key with
  | Some c -> c
  | None ->
      let c = Aggregate.create () in
      Group_key.Tbl.replace tbl key c;
      c

let cell_scratch t ~cuboid scratch =
  Group_key.Tbl.find_or_add t.cells.(cuboid) scratch ~default:Aggregate.create

let find_coded t ~cuboid ~key = Group_key.Tbl.find_opt t.cells.(cuboid) key
let set_cell t ~cuboid ~key c = Group_key.Tbl.replace t.cells.(cuboid) key c
let iter_cuboid t cuboid f = Group_key.Tbl.iter f t.cells.(cuboid)

let cuboid_size t cuboid = Group_key.Tbl.length t.cells.(cuboid)

let total_cells t =
  Array.fold_left (fun acc tbl -> acc + Group_key.Tbl.length tbl) 0 t.cells

(* --- values: export, pivot and tests -------------------------------------- *)

let states t cuboid = Lattice.cuboid t.lattice cuboid
let dicts t = Witness.dicts t.table

let values t ~cuboid key =
  Group_key.to_parts t.layout ~dicts:(dicts t) (states t cuboid) key

let find t ~cuboid ~key =
  match Group_key.of_parts t.layout ~dicts:(dicts t) (states t cuboid) key with
  | None -> None
  | Some k -> find_coded t ~cuboid ~key:k

(* Ranks are built lazily, once per axis, for every cuboid sorted through
   the same [ordered t]. *)
let ordered t =
  let ranks = Array.map (fun d -> lazy (Group_key.rank d)) (dicts t) in
  fun cuboid ->
    let cells =
      Group_key.Tbl.fold (fun key c acc -> (key, c) :: acc) t.cells.(cuboid) []
      |> Array.of_list
    in
    let present =
      List.filter_map
        (fun ai ->
          match (states t cuboid).(ai) with
          | X3_lattice.State.Removed -> None
          | X3_lattice.State.Present _ -> Some (ai, Lazy.force ranks.(ai)))
        (List.init (Array.length ranks) Fun.id)
      |> Array.of_list
    in
    let rec compare_from i a b =
      if i = Array.length present then 0
      else
        let axis, rank = present.(i) in
        let c =
          Int.compare
            rank.(Group_key.id_at t.layout a ~axis)
            rank.(Group_key.id_at t.layout b ~axis)
        in
        if c <> 0 then c else compare_from (i + 1) a b
    in
    Array.sort (fun (a, _) (b, _) -> compare_from 0 a b) cells;
    cells

let cuboid_cells t cuboid =
  Array.fold_right
    (fun (key, c) acc -> (values t ~cuboid key, c) :: acc)
    (ordered t cuboid) []

let iter f t =
  Array.iteri
    (fun cuboid tbl -> Group_key.Tbl.iter (fun key c -> f ~cuboid ~key c) tbl)
    t.cells

let render parts = "(" ^ String.concat ", " parts ^ ")"

(* Comparison goes through values on both sides: the cubes may come from
   separately materialised tables whose dictionaries assign different
   ids to the same values. *)
let first_difference ~func a b =
  if Lattice.size a.lattice <> Lattice.size b.lattice then
    Some (-1, "", "lattices differ in size")
  else begin
    let found = ref None in
    Array.iteri
      (fun cuboid tbl ->
        if !found = None then begin
          Group_key.Tbl.iter
            (fun key ca ->
              if !found = None then begin
                let parts = values a ~cuboid key in
                match find b ~cuboid ~key:parts with
                | None ->
                    found :=
                      Some
                        (cuboid, render parts, "group missing from second cube")
                | Some cb ->
                    if not (Aggregate.equal_value func ca cb) then
                      found :=
                        Some
                          ( cuboid,
                            render parts,
                            Printf.sprintf "%g <> %g"
                              (Aggregate.value func ca)
                              (Aggregate.value func cb) )
              end)
            tbl;
          Group_key.Tbl.iter
            (fun key _ ->
              if !found = None then begin
                let parts = values b ~cuboid key in
                if find a ~cuboid ~key:parts = None then
                  found :=
                    Some (cuboid, render parts, "extra group in second cube")
              end)
            b.cells.(cuboid)
        end)
      a.cells;
    !found
  end

let equal ~func a b = first_difference ~func a b = None

let pp ?(max_groups = 20) ~func ppf t =
  let ordered = ordered t in
  Array.iter
    (fun cuboid ->
      let groups = ordered cuboid in
      Format.fprintf ppf "cuboid %d %s: %d group(s)@." cuboid
        (X3_lattice.Cuboid.to_string
           (Lattice.axes t.lattice)
           (Lattice.cuboid t.lattice cuboid))
        (Array.length groups);
      Array.iteri
        (fun i (key, c) ->
          if i < max_groups then
            Format.fprintf ppf "  %s %a@."
              (render (values t ~cuboid key))
              (Aggregate.pp func) c
          else if i = max_groups then Format.fprintf ppf "  ...@.")
        groups)
    (Lattice.by_degree t.lattice)
