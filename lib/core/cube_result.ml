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

let adopt t ~cuboid tbl =
  if Group_key.Tbl.length t.cells.(cuboid) > 0 then
    invalid_arg "Cube_result.adopt: cuboid already holds cells";
  t.cells.(cuboid) <- tbl

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

(* Output order is an LSD radix sort over integer rank keys. The present
   axes are taken last first and packed, each in its rank's bit width,
   into one int per group while they fit 62 bits (a chunk; a Wide layout
   may need more than one). Each chunk is sorted by stable counting
   passes over 11-bit digits, least significant first, carrying a
   permutation along, so the first axis ends up most significant —
   component by component in [Group_key.compare_values] order. Keys
   within a cuboid are distinct, so the order has no ties. The count
   array is a fixed 2048 slots whatever the dictionary sizes. *)
let digit_bits = 11
let digit_mask = (1 lsl digit_bits) - 1
let chunk_bits = 62

(* The sort's work arrays, grown to the largest cuboid and shared by every
   cuboid sorted through one [ordered t]. *)
type work = {
  mutable perm : int array;
  mutable perm' : int array;
  mutable code : int array;
  mutable code' : int array;
  count : int array;
}

let reserve w n =
  if Array.length w.perm < n then begin
    w.perm <- Array.make n 0;
    w.perm' <- Array.make n 0;
    w.code <- Array.make n 0;
    w.code' <- Array.make n 0
  end

(* One stable counting pass over the digit at [shift] of [code.(0..n-1)],
   carrying [perm] along. *)
let pass w n shift =
  let c = w.code and p = w.perm and count = w.count in
  Array.fill count 0 (digit_mask + 1) 0;
  for j = 0 to n - 1 do
    let digit = (c.(j) lsr shift) land digit_mask in
    count.(digit) <- count.(digit) + 1
  done;
  (* A digit every key shares leaves the order as it is. *)
  if count.((c.(0) lsr shift) land digit_mask) < n then begin
    let c' = w.code' and p' = w.perm' in
    let start = ref 0 in
    for b = 0 to digit_mask do
      let k = count.(b) in
      count.(b) <- !start;
      start := !start + k
    done;
    for j = 0 to n - 1 do
      let digit = (c.(j) lsr shift) land digit_mask in
      let pos = count.(digit) in
      c'.(pos) <- c.(j);
      p'.(pos) <- p.(j);
      count.(digit) <- pos + 1
    done;
    w.code <- c';
    w.code' <- c;
    w.perm <- p';
    w.perm' <- p
  end

let rec chunk_code layout key acc = function
  | [] -> acc
  | (axis, rank, offset) :: rest ->
      chunk_code layout key
        (acc lor (rank.(Group_key.id_at layout key ~axis) lsl offset))
        rest

(* Sort [perm.(0..n-1)], slots of [tbl], by one chunk of axes, each given
   as (axis, rank, bit offset). *)
let sort_chunk w layout tbl n chunk bits =
  let c = w.code and p = w.perm in
  for j = 0 to n - 1 do
    c.(j) <- chunk_code layout (Group_key.Tbl.key_at tbl p.(j)) 0 chunk
  done;
  let shift = ref 0 in
  while !shift < bits do
    pass w n !shift;
    shift := !shift + digit_bits
  done

(* Ranks are built lazily, once per axis, for every cuboid sorted through
   the same [ordered t]. The sort moves slot numbers, never the keys or
   cells themselves. *)
let ordered t =
  let ranks = Array.map (fun d -> lazy (Group_key.rank d)) (dicts t) in
  let w =
    {
      perm = [||];
      perm' = [||];
      code = [||];
      code' = [||];
      count = Array.make (digit_mask + 1) 0;
    }
  in
  fun cuboid f ->
    let tbl = t.cells.(cuboid) in
    let n = Group_key.Tbl.length tbl in
    reserve w n;
    let j = ref 0 in
    for slot = 0 to Group_key.Tbl.slot_count tbl - 1 do
      if Group_key.Tbl.used tbl slot then begin
        w.perm.(!j) <- slot;
        incr j
      end
    done;
    if n > 1 then begin
      let states = states t cuboid in
      let chunk = ref [] and bits = ref 0 in
      for axis = Array.length states - 1 downto 0 do
        match states.(axis) with
        | X3_lattice.State.Removed -> ()
        | X3_lattice.State.Present _ ->
            let rank = Lazy.force ranks.(axis) in
            let width = Group_key.bits_for (Array.length rank) in
            if !bits + width > chunk_bits then begin
              sort_chunk w t.layout tbl n !chunk !bits;
              chunk := [];
              bits := 0
            end;
            chunk := (axis, rank, !bits) :: !chunk;
            bits := !bits + width
      done;
      sort_chunk w t.layout tbl n !chunk !bits
    end;
    let perm = w.perm in
    for i = 0 to n - 1 do
      let slot = perm.(i) in
      f i (Group_key.Tbl.key_at tbl slot) (Group_key.Tbl.value_at tbl slot)
    done

let cuboid_cells t cuboid =
  let acc = ref [] in
  ordered t cuboid (fun _ key c -> acc := (values t ~cuboid key, c) :: !acc);
  List.rev !acc

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
      Format.fprintf ppf "cuboid %d %s: %d group(s)@." cuboid
        (X3_lattice.Cuboid.to_string
           (Lattice.axes t.lattice)
           (Lattice.cuboid t.lattice cuboid))
        (cuboid_size t cuboid);
      ordered cuboid (fun i key c ->
          if i < max_groups then
            Format.fprintf ppf "  %s %a@."
              (render (values t ~cuboid key))
              (Aggregate.pp func) c
          else if i = max_groups then Format.fprintf ppf "  ...@."))
    (Lattice.by_degree t.lattice)
