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

(* Every dictionary value rendered once per export, not once per cell:
   [columns.(ai).(id)]. *)
let render_columns result render =
  Array.map
    (fun dict ->
      Array.init (Witness.Dict.size dict) (fun id ->
          render (Witness.Dict.value dict id)))
    (Witness.dicts (Cube_result.table result))

(* The rendered grouping value of a present axis of group [g]. *)
let column layout columns tbl g ai =
  columns.(ai).(Group_table.id_at layout tbl g ~axis:ai)

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

(* Integral values below 1e15 are written digit by digit, which is what
   ["%.0f"] prints for them; zero (["0"] or ["-0"]), fractions, larger
   magnitudes and NaN go through [Printf]. *)
let add_number buf v =
  if Float.is_integer v && Float.abs v < 1e15 then begin
    let n = Float.to_int v in
    if n > 0 then add_digits buf n
    else if n < 0 then begin
      Buffer.add_char buf '-';
      add_digits buf (-n)
    end
    else Buffer.add_string buf (Printf.sprintf "%.0f" v)
  end
  else Buffer.add_string buf (Printf.sprintf "%g" v)

(* The writers call [cut buf] after each cuboid's rows. *)
let write_csv ~cut ~func buf result =
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
  let layout = Cube_result.layout result in
  let columns = render_columns result csv_quote in
  Array.iter
    (fun id ->
      let cuboid = Lattice.cuboid lattice id in
      let tbl = Cube_result.cells result id in
      let prefix = Printf.sprintf "%d,%d" id (Lattice.degree lattice id) in
      ordered id (fun _ g ->
          Buffer.add_string buf prefix;
          for ai = 0 to Array.length cuboid - 1 do
            Buffer.add_char buf ',';
            Buffer.add_string buf
              (match cuboid.(ai) with
              | State.Removed -> "(ALL)"
              | State.Present _ -> column layout columns tbl g ai)
          done;
          Buffer.add_char buf ',';
          add_number buf (Group_table.value func tbl g);
          Buffer.add_char buf '\n');
      cut buf)
    (Lattice.by_degree lattice)

(* An export as one string, assembled from a piece per cuboid: cutting the
   buffer after each cuboid lets it grow only to the largest cuboid's
   rows, and the string is built once at its exact size, so no doubling
   leaves garbage the size of the whole answer behind. *)
let export_string write ~func result =
  let buf = Buffer.create 4096 and pieces = ref [] in
  let cut buf =
    pieces := Buffer.contents buf :: !pieces;
    Buffer.clear buf
  in
  write ~cut ~func buf result;
  cut buf;
  String.concat "" (List.rev !pieces)

let to_csv ~func buf result = write_csv ~cut:ignore ~func buf result
let csv_string ~func result = export_string write_csv ~func result

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

let json_quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  json_escape buf s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let write_json ~cut ~func buf result =
  let lattice = Cube_result.lattice result in
  let axes = Lattice.axes lattice in
  let add_string s =
    Buffer.add_char buf '"';
    json_escape buf s;
    Buffer.add_char buf '"'
  in
  Buffer.add_string buf "[";
  let ordered = Cube_result.ordered result in
  let layout = Cube_result.layout result in
  let columns = render_columns result json_quote in
  let first_cuboid = ref true in
  Array.iter
    (fun id ->
      if not !first_cuboid then Buffer.add_string buf ",";
      first_cuboid := false;
      let cuboid = Lattice.cuboid lattice id in
      let tbl = Cube_result.cells result id in
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
      ordered id (fun i g ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf "{\"key\": [";
          let first_part = ref true in
          Array.iteri
            (fun ai state ->
              match state with
              | State.Removed -> ()
              | State.Present _ ->
                  if not !first_part then Buffer.add_string buf ", ";
                  first_part := false;
                  Buffer.add_string buf (column layout columns tbl g ai))
            cuboid;
          Buffer.add_string buf "], \"value\": ";
          let v = Group_table.value func tbl g in
          if Float.is_nan v then Buffer.add_string buf "null"
          else add_number buf v;
          Buffer.add_string buf "}");
      Buffer.add_string buf "]}";
      cut buf)
    (Lattice.by_degree lattice);
  Buffer.add_string buf "\n]\n"

let to_json ~func buf result = write_json ~cut:ignore ~func buf result
let json_string ~func result = export_string write_json ~func result
