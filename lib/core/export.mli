(** Cube result export.

    Downstream OLAP front-ends want flat files, not OCaml values. The CSV
    layout has one row per group: the cuboid id, one column per axis (the
    axis's relaxation state, or its grouping value when present — [(ALL)]
    for removed axes, RFC-4180 quoting), and the aggregate value. JSON
    mirrors it as one object per cuboid. *)

val to_csv :
  func:Aggregate.func -> Buffer.t -> Cube_result.t -> unit
(** Append the full cube as CSV (with a header line) to the buffer. Rows
    are emitted in lattice [by_degree] order, groups sorted by key, so the
    output is deterministic. *)

val csv_string : func:Aggregate.func -> Cube_result.t -> string

val to_json :
  func:Aggregate.func -> Buffer.t -> Cube_result.t -> unit
(** Same content as JSON: a top-level array of
    [{"cuboid": id, "pattern": [...axis states...],
      "groups": [{"key": [...], "value": v}]}]. *)

val json_string : func:Aggregate.func -> Cube_result.t -> string

val add_number : Buffer.t -> float -> unit
(** Append an aggregate value as both formats print it: as ["%.0f"] would
    for integral values below 1e15 in magnitude, ["%g"] otherwise. *)
