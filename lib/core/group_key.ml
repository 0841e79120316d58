module State = X3_lattice.State
module Witness = X3_pattern.Witness
module Dict = Witness.Dict

(* --- packed integer keys ------------------------------------------------ *)
(* Per-axis dictionary ids packed into the bit fields of 62-bit int words.
   An axis whose dictionary holds [n] values needs [bits_for n] bits;
   fields are laid out in axis order, each in the current word when it
   fits and in a fresh word otherwise, so no field straddles two words.
   Fields of axes a cuboid removes are zero, so projection to a coarser
   cuboid is a mask per word. *)

type t = Packed of int | Wide of int array

type layout = {
  widths : int array;  (** bits per axis *)
  word : int array;  (** key word of each axis's field *)
  offsets : int array;  (** bit offset of each axis's field in its word *)
  words : int;
  total_bits : int;
  packed_fits : bool;  (** one word? *)
}

(* Bits to hold every id of a dictionary of [n] values (0 .. n-1). *)
let bits_for n =
  if n < 0 then invalid_arg "Group_key.bits_for: negative size";
  let rec go bits cap = if cap >= n then bits else go (bits + 1) (cap * 2) in
  go 0 1

(* 62 rather than 63: keeps every word strictly below [max_int], so the
   sign bit never flips and the sortable big-endian form stays
   order-consistent. *)
let word_bits = 62

let layout_of_sizes sizes =
  let k = Array.length sizes in
  let widths = Array.map bits_for sizes in
  let word = Array.make k 0 and offsets = Array.make k 0 in
  let current = ref 0 and used = ref 0 in
  for ai = 0 to k - 1 do
    if !used + widths.(ai) > word_bits then begin
      incr current;
      used := 0
    end;
    word.(ai) <- !current;
    offsets.(ai) <- !used;
    used := !used + widths.(ai)
  done;
  let total_bits = Array.fold_left ( + ) 0 widths in
  let words = !current + 1 in
  { widths; word; offsets; words; total_bits; packed_fits = words = 1 }

let layout_of_table table = layout_of_sizes (Witness.dict_sizes table)

let field_mask layout ai =
  ((1 lsl layout.widths.(ai)) - 1) lsl layout.offsets.(ai)

(* --- scratch: the allocation-free row -> key path ----------------------- *)

type scratch = { s_layout : layout; s_words : int array }

let make_scratch layout =
  { s_layout = layout; s_words = Array.make layout.words 0 }

let words scratch = scratch.s_words

let bad_row () = invalid_arg "Group_key: a present axis is unbound"

let[@inline] clear s =
  for i = 0 to Array.length s.s_words - 1 do
    s.s_words.(i) <- 0
  done

let[@inline] set_field s ai id =
  if id < 0 then bad_row ();
  let l = s.s_layout in
  let wi = l.word.(ai) in
  s.s_words.(wi) <- s.s_words.(wi) lor (id lsl l.offsets.(ai))

(* Ids come straight from the id columns. *)
let load_cols s cuboid cols ~row =
  clear s;
  for ai = 0 to Array.length cuboid - 1 do
    match cuboid.(ai) with
    | State.Removed -> ()
    | State.Present _ -> set_field s ai (Witness.Columnar.id cols ~axis:ai ~row)
  done

let load_ids s cuboid ids =
  clear s;
  for ai = 0 to Array.length cuboid - 1 do
    match cuboid.(ai) with
    | State.Removed -> ()
    | State.Present _ -> set_field s ai ids.(ai)
  done

let freeze s =
  if s.s_layout.packed_fits then Packed s.s_words.(0)
  else Wide (Array.copy s.s_words)

(* --- building and inspecting keys directly ------------------------------ *)

let of_axis_ids layout cuboid ids =
  let s = make_scratch layout in
  load_ids s cuboid ids;
  freeze s

let field layout word ~axis =
  (word lsr layout.offsets.(axis)) land ((1 lsl layout.widths.(axis)) - 1)

let key_word key i = match key with Packed p -> p | Wide w -> w.(i)

let id_at layout key ~axis =
  field layout (key_word key layout.word.(axis)) ~axis

let word_masks layout cuboid =
  let masks = Array.make layout.words 0 in
  Array.iteri
    (fun ai state ->
      match state with
      | State.Removed -> ()
      | State.Present _ ->
          let wi = layout.word.(ai) in
          masks.(wi) <- masks.(wi) lor field_mask layout ai)
    cuboid;
  masks

(* --- the dictionary boundary -------------------------------------------- *)

let of_parts layout ~dicts cuboid parts =
  let k = Array.length cuboid in
  let ids = Array.make k 0 in
  let rec go ai parts =
    if ai >= k then match parts with [] -> true | _ :: _ -> false
    else
      match cuboid.(ai) with
      | State.Removed -> go (ai + 1) parts
      | State.Present _ -> (
          match parts with
          | [] -> false
          | part :: rest -> (
              match Dict.find dicts.(ai) part with
              | None -> raise Exit
              | Some id ->
                  ids.(ai) <- id;
                  go (ai + 1) rest))
  in
  match go 0 parts with
  | true -> Some (of_axis_ids layout cuboid ids)
  | false -> invalid_arg "Group_key.of_parts: arity mismatch"
  | exception Exit -> None

let to_parts layout ~dicts cuboid key =
  let parts = ref [] in
  for ai = Array.length cuboid - 1 downto 0 do
    match cuboid.(ai) with
    | State.Removed -> ()
    | State.Present _ ->
        parts := Dict.value dicts.(ai) (id_at layout key ~axis:ai) :: !parts
  done;
  !parts

(* --- output order ------------------------------------------------------- *)
(* Exported groups are listed in the byte order of their values written as
   [u16 little-endian length | bytes] per component: the order every
   release so far has printed. Comparing those encodings component by
   component means low length byte, then high length byte, then bytes —
   so a 256-byte value sorts before a 1-byte one. *)

let compare_values a b =
  let la = String.length a and lb = String.length b in
  let c = Int.compare (la land 0xFF) (lb land 0xFF) in
  if c <> 0 then c
  else
    let c = Int.compare (la lsr 8) (lb lsr 8) in
    if c <> 0 then c else String.compare a b

let rank dict =
  let n = Dict.size dict in
  let by_value = Array.init n Fun.id in
  Array.stable_sort
    (fun i j -> compare_values (Dict.value dict i) (Dict.value dict j))
    by_value;
  let rank = Array.make n 0 in
  Array.iteri (fun pos id -> rank.(id) <- pos) by_value;
  rank

(* --- order-agnostic serialisation for external sort --------------------- *)
(* A tag byte (one word or several), then each word as 8 big-endian bytes:
   [String.compare] over sortable forms is a total order that groups equal
   keys — all the sort-based algorithm needs. *)

let scratch_sortable s =
  let words = s.s_words in
  let b = Bytes.create (1 + (8 * Array.length words)) in
  Bytes.set b 0 (if s.s_layout.packed_fits then '\000' else '\001');
  Array.iteri
    (fun i v -> Bytes.set_int64_be b (1 + (8 * i)) (Int64.of_int v))
    words;
  Bytes.unsafe_to_string b

let load_sortable s str =
  let l = s.s_layout in
  if String.length str <> 1 + (8 * l.words) then
    invalid_arg "Group_key.load_sortable: bad length";
  if str.[0] <> if l.packed_fits then '\000' else '\001' then
    invalid_arg "Group_key.load_sortable: bad tag";
  for i = 0 to l.words - 1 do
    s.s_words.(i) <- Int64.to_int (String.get_int64_be str (1 + (8 * i)))
  done

let equal a b =
  match (a, b) with
  | Packed p, Packed q -> p = q
  | Wide u, Wide v -> u = v
  | _ -> false
