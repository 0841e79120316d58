(** A computed cube: one aggregate cell per (cuboid, group).

    Cells live under coded integer keys ({!Group_key.t}) — the algorithms
    never touch strings. The value half of this interface translates
    through the witness table's dictionaries: a group is named by its list
    of values, one per present axis in axis order. *)

type t

val create : table:X3_pattern.Witness.t -> X3_lattice.Lattice.t -> t
(** The table supplies the dictionaries (and so the key layout) that the
    cube's coded keys are relative to. *)

val lattice : t -> X3_lattice.Lattice.t
val table : t -> X3_pattern.Witness.t
val layout : t -> Group_key.layout

(** {1 Coded access — the algorithms' hot path} *)

val cells : t -> int -> Group_table.t
(** The cuboid's group table, which algorithms count into directly. Its
    keys are under {!layout}. *)

val adopt : t -> cuboid:int -> Group_table.t -> unit
(** Make a finished counter table the cuboid's cells, without copying: the
    result owns the table from then on, and the caller must not touch it
    again. Raises [Invalid_argument] if the cuboid already holds cells or
    the table's key width differs from the layout's. *)

val find_coded : t -> cuboid:int -> key:Group_key.t -> Aggregate.cell option

val cuboid_size : t -> int -> int

val total_cells : t -> int
(** The paper's "cube result size" — cells summed over all cuboids. *)

(** {1 Value access — export, pivot and tests} *)

val find : t -> cuboid:int -> key:string list -> Aggregate.cell option
(** [None] when some value never occurs on its axis, or the group does not
    exist. Raises [Invalid_argument] when [key] does not hold one value per
    present axis. *)

val ordered : t -> int -> (int -> int -> unit) -> unit
(** [ordered t cuboid f] calls [f i g] on the cuboid's groups in output
    order, [g] numbering the group in [cells t cuboid] and [i] counting
    from 0 — component by component, by
    {!Group_key.compare_values}. The order comes from an integer LSD radix
    sort over per-axis {!Group_key.rank}s. Partially applied, [ordered t]
    ranks each axis dictionary at most once across all the cuboids it is
    then applied to; [f] must not call back into the same [ordered t] nor
    add cells to [t]. No key or cell is built: [f] reads ids and values
    from the table. *)

val cuboid_cells : t -> int -> (string list * Aggregate.cell) list
(** {!ordered}, with each key as its values. *)

val iter :
  (cuboid:int -> key:Group_key.t -> Aggregate.cell -> unit) -> t -> unit
(** Every cell of every cuboid, in no particular order, each key and cell
    built fresh. *)

val equal : func:Aggregate.func -> t -> t -> bool
(** Same groups with the same aggregate values in every cuboid. Keys are
    compared by decoded value, so the cubes may come from separately
    materialised tables. *)

val first_difference :
  func:Aggregate.func -> t -> t -> (int * string * string) option
(** A human-readable witness of inequality: cuboid id, the group's values
    rendered as [(a, b)], description. *)

val pp :
  ?max_groups:int -> func:Aggregate.func -> Format.formatter -> t -> unit
