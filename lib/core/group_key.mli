(** Group keys.

    A group within a cuboid is identified by the values of the cuboid's
    present axes, in axis order. Since the witness table dictionary-encodes
    its dimension values, a group key is the tuple of per-axis dictionary
    ids, packed into the bit fields of {!layout.words} 62-bit int words:
    one word when the axis widths fit ({!layout.packed_fits}), more
    otherwise, with no field straddling two words. The algorithms build
    keys through a reusable {!scratch} (allocation-free), count them in a
    {!Group_table}, and re-key between cuboids with per-word masks
    ({!word_masks}).

    Values leave the engine only through the dictionaries: export, pivot
    and views map a coded key back to one value per present axis
    ({!to_parts}, or {!id_at} and [Witness.Dict.value] per column), and
    list groups in {!compare_values} order through per-axis {!rank}s. *)

(** {1 Packed integer keys} *)

type t = Packed of int | Wide of int array
(** A boundary value: [Packed] when the layout has one word, [Wide]
    holding the layout's words otherwise (zero fields at removed axes).
    Keys of the same table and cuboid always share a constructor. *)

type layout = {
  widths : int array;  (** bits per axis, from the dictionary sizes *)
  word : int array;  (** the key word holding each axis's field *)
  offsets : int array;  (** bit offset of each axis's field in its word *)
  words : int;  (** key words per group, at least 1 *)
  total_bits : int;
  packed_fits : bool;  (** [words = 1] *)
}

val layout_of_sizes : int array -> layout
val layout_of_table : X3_pattern.Witness.t -> layout

val bits_for : int -> int
(** Bits needed to hold ids [0 .. n-1]; 0 for empty or singleton
    dictionaries. *)

(** {2 Scratch: the allocation-free row → key path} *)

type scratch

val make_scratch : layout -> scratch

val words : scratch -> int array
(** The scratch's live key words ([layout.words] of them), overwritten by
    every load: what {!Group_table} lookups read. *)

val load_cols :
  scratch ->
  X3_lattice.Cuboid.t ->
  X3_pattern.Witness.Columnar.t ->
  row:int ->
  unit
(** Assemble the key of row index [row] under the cuboid from the id
    columns. Raises [Invalid_argument] if a present axis is unbound (the
    row does not qualify). *)

val load_ids : scratch -> X3_lattice.Cuboid.t -> int array -> unit
(** Assemble the key from one id per axis (entries at removed axes are
    ignored). Raises [Invalid_argument] on a negative id at a present
    axis. *)

val load_sortable : scratch -> string -> unit
(** Decode a {!scratch_sortable} form into the scratch. Raises
    [Invalid_argument] on malformed input. *)

val freeze : scratch -> t
(** An immutable key from the scratch's current contents. *)

(** {2 Keys without rows} *)

val of_axis_ids : layout -> X3_lattice.Cuboid.t -> int array -> t
(** {!load_ids} into a fresh key. *)

val field : layout -> int -> axis:int -> int
(** [field layout word ~axis] is the dictionary id [axis] stores in
    [word], which must be key word [layout.word.(axis)]. *)

val id_at : layout -> t -> axis:int -> int
(** The dictionary id stored for [axis] (0 for removed axes). *)

val word_masks : layout -> X3_lattice.Cuboid.t -> int array
(** Per key word, the bits of the fields the cuboid keeps: projecting a
    key to the cuboid is an [land] per word. *)

(** {2 The dictionary boundary} *)

val of_parts :
  layout ->
  dicts:X3_pattern.Witness.Dict.t array ->
  X3_lattice.Cuboid.t ->
  string list ->
  t option
(** Coded key of a decoded value list (one string per present axis, axis
    order). [None] when some value is not in its axis dictionary — no group
    with that key exists. Raises [Invalid_argument] on arity mismatch. *)

val to_parts :
  layout ->
  dicts:X3_pattern.Witness.Dict.t array ->
  X3_lattice.Cuboid.t ->
  t ->
  string list
(** Decode back to the present axes' values, in axis order. *)

(** {2 Output order} *)

val compare_values : string -> string -> int
(** The order groups are listed in, per component: by [length land 0xFF],
    then [length lsr 8], then bytes — the byte order of [u16]
    little-endian length-prefixed values, so a 256-byte value sorts before
    a 1-byte one. Groups compare component by component in axis order. *)

val rank : X3_pattern.Witness.Dict.t -> int array
(** [rank d] maps each id of [d] to the position of its value in
    {!compare_values} order: comparing ranks compares values. *)

(** {2 Serialisation for the external sort} *)

val scratch_sortable : scratch -> string
(** The scratch's current key as a tag byte, then each key word as 8
    big-endian bytes: [String.compare] over sortable forms is a total
    order grouping equal keys — what the sort-based algorithm needs. *)

val equal : t -> t -> bool
