(** The engine's one group table: a cuboid's groups, each a key of
    [words] int words ({!Group_key.layout.words}) with unboxed aggregate
    columns beside it.

    Groups are numbered densely [0 .. length - 1] in insertion order, and
    a group keeps its number for the table's lifetime: a number is what
    an algorithm carries between a lookup and the adds that follow it, and
    what an indirect sort of the groups moves around. Keys sit in flat
    [int array]s, 1024 groups' worth apiece; [n], [total], [low] and
    [high] are unboxed columns beside them; a per-group [mark] stamp
    records the last fact block or fact that contributed, so
    deduplication needs no side set. The lookup index is linear probing
    over a power-of-two int array with a 3/4 load bound; growth rehashes
    the key words. Only the first 1024 groups' storage is ever copied on
    growth.

    A lookup or an insert allocates nothing apart from amortised growth.
    Measures are passed as an array and an index, never as a float
    argument, so no call boxes a float. *)

type t

val create : words:int -> t

val words : t -> int

val length : t -> int
(** Groups in the table. *)

(** {1 Lookup} *)

val find : t -> int array -> int
(** The group whose key is the first [words] entries of the array, or
    [-1]. *)

val find_or_add : t -> int array -> int
(** {!find}, inserting the key with empty aggregates when it is absent
    (what [Aggregate.create] holds). *)

val find_or_add_word : t -> int -> int
(** {!find_or_add} for a one-word key; the table must have one word per
    key. *)

val hash : t -> int array -> int
(** The hash a lookup of these key words probes from: the first index
    position tried is [hash land (slots - 1)]. A fresh table's first
    insert makes an 8-slot index. *)

(** {1 Aggregates} *)

val add : t -> int -> float array -> int -> unit
(** [add t g ms i] folds measure [ms.(i)] into group [g]. *)

val add_marked : t -> int -> mark:int -> float array -> int -> bool
(** {!add} unless group [g]'s stamp is already [mark] (a fact block or
    fact id, never negative); stamps it either way. Returns whether the
    measure was added. A fact's rows are contiguous, so stamping with the
    fact's block or id counts it once per group. *)

val merge_columns :
  t ->
  int ->
  n:int array ->
  total:float array ->
  low:float array ->
  high:float array ->
  int ->
  unit
(** [merge_columns t g ~n ~total ~low ~high i] folds slot [i] of another
    set of aggregate columns (a radix accumulator's) into group [g]. *)

val find_or_add_group : ?masks:int array -> t -> src:t -> int -> int
(** [find_or_add_group t ~src h] is {!find_or_add} of [src]'s group [h]
    key, projected first through [masks] (one per word,
    {!Group_key.word_masks}) when given. Both tables must have the same
    [words]. *)

val merge_into : ?masks:int array -> t -> src:t -> unit
(** Fold every group of [src] into [t], in [src]'s group order. With
    [masks] (one per word, {!Group_key.word_masks}) each key is projected
    first: a roll-up. Both tables must have the same [words]. *)

val value : Aggregate.func -> t -> int -> float
(** [Aggregate.value] of group [g]. *)

(** {1 The boundary} *)

val key : t -> int -> Group_key.t
val cell : t -> int -> Aggregate.cell
(** A fresh copy of group [g]'s aggregates. *)

val find_key : t -> Group_key.t -> int
(** {!find} by a boundary key; [-1] when absent. *)

val id_at : Group_key.layout -> t -> int -> axis:int -> int
(** The dictionary id group [g]'s key stores for [axis], under the
    layout the table's keys were built with. *)
