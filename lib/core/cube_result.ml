module Lattice = X3_lattice.Lattice
module Witness = X3_pattern.Witness

(* Each cuboid's cells are one group table under coded keys; the
   value-keyed API below translates through the witness dictionaries. *)

type t = {
  lattice : Lattice.t;
  table : Witness.t;
  layout : Group_key.layout;
  cells : Group_table.t array;
}

let create ~table lattice =
  let layout = Group_key.layout_of_table table in
  {
    lattice;
    table;
    layout;
    cells =
      Array.init (Lattice.size lattice) (fun _ ->
          Group_table.create ~words:layout.Group_key.words);
  }

let lattice t = t.lattice
let table t = t.table
let layout t = t.layout

(* --- coded hot path ----------------------------------------------------- *)

let cells t cuboid = t.cells.(cuboid)

let adopt t ~cuboid tbl =
  if Group_table.length t.cells.(cuboid) > 0 then
    invalid_arg "Cube_result.adopt: cuboid already holds cells";
  if Group_table.words tbl <> t.layout.Group_key.words then
    invalid_arg "Cube_result.adopt: key width differs from the layout";
  t.cells.(cuboid) <- tbl

let find_coded t ~cuboid ~key =
  let tbl = t.cells.(cuboid) in
  match Group_table.find_key tbl key with
  | -1 -> None
  | g -> Some (Group_table.cell tbl g)

let cuboid_size t cuboid = Group_table.length t.cells.(cuboid)

let total_cells t =
  Array.fold_left (fun acc tbl -> acc + Group_table.length tbl) 0 t.cells

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

(* Sort [perm.(0..n-1)], groups of [tbl], by one chunk of axes, each
   given as (axis, rank, bit offset). *)
let sort_chunk w layout tbl n chunk bits =
  let c = w.code and p = w.perm in
  Array.fill c 0 n 0;
  List.iter
    (fun (axis, rank, offset) ->
      for j = 0 to n - 1 do
        c.(j) <-
          c.(j) lor (rank.(Group_table.id_at layout tbl p.(j) ~axis) lsl offset)
      done)
    chunk;
  let shift = ref 0 in
  while !shift < bits do
    pass w n !shift;
    shift := !shift + digit_bits
  done

(* Ranks are built lazily, once per axis, for every cuboid sorted through
   the same [ordered t]. The sort moves group numbers, never the keys or
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
    let n = Group_table.length tbl in
    reserve w n;
    for g = 0 to n - 1 do
      w.perm.(g) <- g
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
      f i perm.(i)
    done

let cuboid_cells t cuboid =
  let tbl = t.cells.(cuboid) and acc = ref [] in
  ordered t cuboid (fun _ g ->
      acc :=
        (values t ~cuboid (Group_table.key tbl g), Group_table.cell tbl g)
        :: !acc);
  List.rev !acc

let iter_table f tbl =
  for g = 0 to Group_table.length tbl - 1 do
    f (Group_table.key tbl g) (Group_table.cell tbl g)
  done

let iter f t =
  Array.iteri (fun cuboid -> iter_table (fun key c -> f ~cuboid ~key c)) t.cells

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
          iter_table
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
          iter_table
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
      let tbl = t.cells.(cuboid) in
      ordered cuboid (fun i g ->
          if i < max_groups then
            Format.fprintf ppf "  %s %a@."
              (render (values t ~cuboid (Group_table.key tbl g)))
              (Aggregate.pp func) (Group_table.cell tbl g)
          else if i = max_groups then Format.fprintf ppf "  ...@."))
    (Lattice.by_degree t.lattice)
