module Lattice = X3_lattice.Lattice
module State = X3_lattice.State
module Axis = X3_pattern.Axis
module Witness = X3_pattern.Witness

let csv_quote field =
  let needs_quoting =
    String.exists (function '"' | ',' | '\n' | '\r' -> true | _ -> false) field
  in
  if not needs_quoting then field
  else begin
    let buf = Buffer.create (String.length field + 8) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_char buf c)
      field;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

(* One column per axis: the grouping value straight from the axis
   dictionary when the axis is present, (ALL) when it is removed. *)
let axis_column result cuboid key ai =
  match cuboid.(ai) with
  | State.Removed -> "(ALL)"
  | State.Present _ ->
      Witness.Dict.value
        (Witness.dict (Cube_result.table result) ai)
        (Group_key.id_at (Cube_result.layout result) key ~axis:ai)

let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let to_csv ~func buf result =
  let lattice = Cube_result.lattice result in
  let axes = Lattice.axes lattice in
  Buffer.add_string buf "cuboid,degree";
  Array.iter
    (fun axis ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (csv_quote axis.Axis.name))
    axes;
  Buffer.add_char buf ',';
  Buffer.add_string buf (Aggregate.func_to_string func);
  Buffer.add_char buf '\n';
  let ordered = Cube_result.ordered result in
  Array.iter
    (fun id ->
      let cuboid = Lattice.cuboid lattice id in
      let prefix = Printf.sprintf "%d,%d" id (Lattice.degree lattice id) in
      Array.iter
        (fun (key, cell) ->
          Buffer.add_string buf prefix;
          for ai = 0 to Array.length cuboid - 1 do
            Buffer.add_char buf ',';
            Buffer.add_string buf (csv_quote (axis_column result cuboid key ai))
          done;
          Buffer.add_char buf ',';
          Buffer.add_string buf (float_repr (Aggregate.value func cell));
          Buffer.add_char buf '\n')
        (ordered id))
    (Lattice.by_degree lattice)

let csv_string ~func result =
  let buf = Buffer.create 4096 in
  to_csv ~func buf result;
  Buffer.contents buf

let json_escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let to_json ~func buf result =
  let lattice = Cube_result.lattice result in
  let axes = Lattice.axes lattice in
  let add_string s =
    Buffer.add_char buf '"';
    json_escape buf s;
    Buffer.add_char buf '"'
  in
  Buffer.add_string buf "[";
  let ordered = Cube_result.ordered result in
  let first_cuboid = ref true in
  Array.iter
    (fun id ->
      if not !first_cuboid then Buffer.add_string buf ",";
      first_cuboid := false;
      let cuboid = Lattice.cuboid lattice id in
      Buffer.add_string buf "\n  {\"cuboid\": ";
      Buffer.add_string buf (string_of_int id);
      Buffer.add_string buf ", \"states\": [";
      Array.iteri
        (fun i state ->
          if i > 0 then Buffer.add_string buf ", ";
          add_string
            (Printf.sprintf "%s:%s" axes.(i).Axis.name
               (State.to_string axes.(i) state)))
        cuboid;
      Buffer.add_string buf "], \"groups\": [";
      let first_group = ref true in
      Array.iter
        (fun (key, cell) ->
          if not !first_group then Buffer.add_string buf ", ";
          first_group := false;
          Buffer.add_string buf "{\"key\": [";
          let first_part = ref true in
          Array.iteri
            (fun ai state ->
              match state with
              | State.Removed -> ()
              | State.Present _ ->
                  if not !first_part then Buffer.add_string buf ", ";
                  first_part := false;
                  add_string (axis_column result cuboid key ai))
            cuboid;
          Buffer.add_string buf "], \"value\": ";
          let v = Aggregate.value func cell in
          Buffer.add_string buf
            (if Float.is_nan v then "null" else float_repr v);
          Buffer.add_string buf "}")
        (ordered id);
      Buffer.add_string buf "]}")
    (Lattice.by_degree lattice);
  Buffer.add_string buf "\n]\n"

let json_string ~func result =
  let buf = Buffer.create 4096 in
  to_json ~func buf result;
  Buffer.contents buf
