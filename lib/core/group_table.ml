(* Groups are dense numbers in insertion order; the lookup index maps a
   key's hash position to its group number, and growth doubles it at the
   3/4 load bound and rehashes the key words. Group [g] lives in chunk
   [g lsr chunk_bits]: its [w] key words at [(g land chunk_mask) * w] of
   the chunk's flat int array, its aggregates at [g land chunk_mask] of
   the chunk's unboxed columns. The first chunk grows by doubling up to
   [chunk_size] groups; later chunks are allocated full and never move,
   so a big table's growth leaves only its old index behind as garbage,
   not copies of every column. A fresh table holds a one-slot index and
   no chunk: the lattice's many empty cuboids cost a few words each. *)

let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

type chunk = {
  keys : int array;
  n : int array;
  total : float array;
  low : float array;
  high : float array;
  mark : int array;  (** last contributing block or fact *)
}

type t = {
  w : int;
  buf : int array;  (** [w] words: a one-word or projected probe key *)
  mutable index : int array;  (** power of two; [-1] free, else a group *)
  mutable chunks : chunk array;
  mutable capacity : int;  (** groups the chunks hold *)
  mutable size : int;
}

let no_mark = min_int

let create ~words =
  if words < 1 then invalid_arg "Group_table.create: words";
  {
    w = words;
    buf = Array.make words 0;
    index = [| -1 |];
    chunks = [||];
    capacity = 0;
    size = 0;
  }

let words t = t.w
let length t = t.size

let[@inline] chunk t g = t.chunks.(g lsr chunk_bits)
let[@inline] slot g = g land chunk_mask

(* Splitmix-style finaliser: full avalanche. *)
let[@inline] mix x =
  let x = x lxor (x lsr 31) in
  let x = x * 0x2545F4914F6CDD1D in
  x lxor (x lsr 29)

let[@inline] hash_at t src off =
  if t.w = 1 then mix src.(off)
  else begin
    let h = ref 0x9E3779B9 in
    for i = 0 to t.w - 1 do
      h := mix (!h lxor src.(off + i))
    done;
    !h
  end

let[@inline] same t g src off =
  let keys = (chunk t g).keys and w = t.w in
  if w = 1 then keys.(slot g) = src.(off)
  else begin
    let base = slot g * w and i = ref 0 in
    while !i < w && keys.(base + !i) = src.(off + !i) do
      incr i
    done;
    !i = w
  end

(* The index position holding the key at [src.(off ..)], or the free
   position it would take. *)
let position t src off =
  let index = t.index in
  let mask = Array.length index - 1 in
  let i = ref (hash_at t src off land mask) in
  while
    let g = index.(!i) in
    g >= 0 && not (same t g src off)
  do
    i := (!i + 1) land mask
  done;
  !i

let extend a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Chunk [c] (or an empty one) copied into room for [cap] groups. *)
let widen w c cap =
  {
    keys = extend c.keys (cap * w) 0;
    n = extend c.n cap 0;
    total = extend c.total cap 0.;
    low = extend c.low cap infinity;
    high = extend c.high cap neg_infinity;
    mark = extend c.mark cap no_mark;
  }

let empty_chunk =
  { keys = [||]; n = [||]; total = [||]; low = [||]; high = [||]; mark = [||] }

let add_capacity t =
  if t.capacity < chunk_size then begin
    let cap = min chunk_size (max 8 (2 * t.capacity)) in
    let c = if t.capacity = 0 then empty_chunk else t.chunks.(0) in
    t.chunks <- [| widen t.w c cap |];
    t.capacity <- cap
  end
  else begin
    t.chunks <- Array.append t.chunks [| widen t.w empty_chunk chunk_size |];
    t.capacity <- t.capacity + chunk_size
  end

let grow_index t =
  t.index <- Array.make (max 8 (2 * Array.length t.index)) (-1);
  for g = 0 to t.size - 1 do
    t.index.(position t (chunk t g).keys (slot g * t.w)) <- g
  done

let find_or_add_at t src off =
  let i = position t src off in
  let g = t.index.(i) in
  if g >= 0 then g
  else begin
    let i =
      if 4 * (t.size + 1) <= 3 * Array.length t.index then i
      else begin
        grow_index t;
        position t src off
      end
    in
    if t.size = t.capacity then add_capacity t;
    let g = t.size in
    let keys = (chunk t g).keys and base = slot g * t.w in
    for j = 0 to t.w - 1 do
      keys.(base + j) <- src.(off + j)
    done;
    t.index.(i) <- g;
    t.size <- g + 1;
    g
  end

let find t words = t.index.(position t words 0)
let find_or_add t words = find_or_add_at t words 0

let find_or_add_word t x =
  if t.w <> 1 then invalid_arg "Group_table.find_or_add_word: wide table";
  t.buf.(0) <- x;
  find_or_add_at t t.buf 0

let hash t words = hash_at t words 0

(* --- aggregates ----------------------------------------------------------- *)

let[@inline] add t g ms i =
  let m = ms.(i) and c = chunk t g and g = slot g in
  c.n.(g) <- c.n.(g) + 1;
  c.total.(g) <- c.total.(g) +. m;
  if m < c.low.(g) then c.low.(g) <- m;
  if m > c.high.(g) then c.high.(g) <- m

let add_marked t g ~mark ms i =
  let c = chunk t g in
  if c.mark.(slot g) = mark then false
  else begin
    c.mark.(slot g) <- mark;
    add t g ms i;
    true
  end

let merge_columns t g ~n ~total ~low ~high i =
  let c = chunk t g and g = slot g in
  c.n.(g) <- c.n.(g) + n.(i);
  c.total.(g) <- c.total.(g) +. total.(i);
  if low.(i) < c.low.(g) then c.low.(g) <- low.(i);
  if high.(i) > c.high.(g) then c.high.(g) <- high.(i)

let merge t g ~src h =
  let c = chunk src h in
  merge_columns t g ~n:c.n ~total:c.total ~low:c.low ~high:c.high (slot h)

let find_or_add_group ?masks t ~src h =
  let keys = (chunk src h).keys and base = slot h * src.w in
  match masks with
  | None -> find_or_add_at t keys base
  | Some masks ->
      for j = 0 to t.w - 1 do
        t.buf.(j) <- keys.(base + j) land masks.(j)
      done;
      find_or_add_at t t.buf 0

let merge_into ?masks t ~src =
  if src.w <> t.w then invalid_arg "Group_table.merge_into: key widths differ";
  for h = 0 to src.size - 1 do
    merge t (find_or_add_group ?masks t ~src h) ~src h
  done

let value func t g =
  let c = chunk t g and g = slot g in
  let n = c.n.(g) in
  match func with
  | Aggregate.Count -> float_of_int n
  | Aggregate.Sum -> c.total.(g)
  | Aggregate.Avg -> if n = 0 then nan else c.total.(g) /. float_of_int n
  | Aggregate.Min -> if n = 0 then nan else c.low.(g)
  | Aggregate.Max -> if n = 0 then nan else c.high.(g)

(* --- the boundary --------------------------------------------------------- *)

let key t g =
  let keys = (chunk t g).keys in
  if t.w = 1 then Group_key.Packed keys.(slot g)
  else Group_key.Wide (Array.sub keys (slot g * t.w) t.w)

let cell t g =
  let c = chunk t g and g = slot g in
  {
    Aggregate.n = c.n.(g);
    total = c.total.(g);
    low = c.low.(g);
    high = c.high.(g);
  }

let find_key t = function
  | Group_key.Packed p when t.w = 1 ->
      t.buf.(0) <- p;
      find t t.buf
  | Group_key.Wide w when Array.length w = t.w -> find t w
  | _ -> invalid_arg "Group_table.find_key: key width differs from the table"

let id_at layout t g ~axis =
  let word = layout.Group_key.word.(axis) in
  Group_key.field layout (chunk t g).keys.((slot g * t.w) + word) ~axis
