type t = {
  arena : Bytes.t;
  mutable tail : int; (* end of the last block; [tail, capacity) holds no block *)
  mutable peak : int; (* the highest [tail] has been *)
  mutable fl_map : int; (* bit [fl]: some list of first level [fl] is non-empty *)
  sl_maps : int array; (* first level -> bit [sl]: list [(fl, sl)] is non-empty *)
  heads : int array; (* list index -> offset of its first free block, -1 if none *)
  mutable used : int;
  mutable live : int;
}

exception Out_of_memory of int

let granule = 8

let min_block = 16

let header_bytes = 4

let max_capacity = 1 lsl 32

(* A block header is one 32-bit word: the block's size in granules,
   shifted past two flags.  [prev_free_bit] says the block before this
   one is free, so its boundary tag (the last word of that block) holds
   its size. *)
let free_bit = 1

let prev_free_bit = 2

(* A free block's links to its list neighbours, as offsets in granules
   ([nil] for none), and its boundary tag, its size in granules in its
   last word. *)
let next_at = 4

let prev_at = 8

let nil = 0xFFFF_FFFF

(* Bounds-checked: a corrupt size or link raises instead of reading
   outside the arena. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let word a off = Int32.to_int (get32 a off) land 0xFFFF_FFFF

let set_word a off v = set32 a off (Int32.of_int v)

let link a at =
  let w = word a at in
  if w = nil then -1 else w * granule

let set_link a at off = set_word a at (if off < 0 then nil else off / granule)

(* ---- two-level segregated fit ------------------------------------------ *)

(* A size of [u] granules lives on list [u] below [sl_count]; above, its
   first level is its power of two and its second level the next
   [sl_bits] bits, so a list spans at most 1/32 of its sizes.  A list
   index is [(fl lsl sl_bits) lor sl]. *)
let sl_bits = 5

let sl_count = 1 lsl sl_bits

(* Blocks are below 2^32 bytes, 2^29 granules: first levels 0..25. *)
let fl_count = 26

(* The index of the highest set bit of [0 < u < 2^32]. *)
let msb u =
  let r = if u lsr 16 <> 0 then 16 else 0 in
  let u = u lsr r in
  let s = if u lsr 8 <> 0 then 8 else 0 in
  let u = u lsr s and r = r + s in
  let s = if u lsr 4 <> 0 then 4 else 0 in
  let u = u lsr s and r = r + s in
  let s = if u lsr 2 <> 0 then 2 else 0 in
  r + s + ((u lsr s) lsr 1)

let lowest_bit m = msb (m land -m)

let list_of u =
  if u < sl_count then u
  else
    let m = msb u in
    ((m - sl_bits + 1) lsl sl_bits) lor ((u lsr (m - sl_bits)) - sl_count)

(* The smallest size whose list holds only blocks of at least [u]
   granules: every block found from there on fits without a walk. *)
let round_up u = if u < sl_count then u else u + (1 lsl (msb u - sl_bits)) - 1

(* The first block of the first non-empty list at or after index [i], or
   -1. *)
let find t i =
  let fl = i lsr sl_bits in
  if fl >= fl_count then -1
  else
    let sm = t.sl_maps.(fl) land (-1 lsl (i land (sl_count - 1))) in
    if sm <> 0 then t.heads.((fl lsl sl_bits) lor lowest_bit sm)
    else
      let fm = t.fl_map land (-1 lsl (fl + 1)) in
      if fm = 0 then -1
      else
        let fl = lowest_bit fm in
        t.heads.((fl lsl sl_bits) lor lowest_bit t.sl_maps.(fl))

(* Make [u] granules at [off] a free block on its list.  Its predecessor
   is never free: free neighbours are always merged. *)
let insert t off u =
  let a = t.arena and i = list_of u in
  let head = t.heads.(i) in
  set_word a off ((u lsl 2) lor free_bit);
  set_link a (off + next_at) head;
  set_link a (off + prev_at) (-1);
  if head >= 0 then set_link a (head + prev_at) off;
  set_word a (off + (u * granule) - 4) u;
  t.heads.(i) <- off;
  let fl = i lsr sl_bits in
  t.sl_maps.(fl) <- t.sl_maps.(fl) lor (1 lsl (i land (sl_count - 1)));
  t.fl_map <- t.fl_map lor (1 lsl fl)

(* Take the free block of [u] granules at [off] off its list. *)
let unlink t off u =
  let a = t.arena in
  let next = link a (off + next_at) and prev = link a (off + prev_at) in
  if next >= 0 then set_link a (next + prev_at) prev;
  if prev >= 0 then set_link a (prev + next_at) next
  else begin
    let i = list_of u in
    t.heads.(i) <- next;
    if next < 0 then begin
      let fl = i lsr sl_bits in
      let m = t.sl_maps.(fl) land ((1 lsl (i land (sl_count - 1))) lxor -1) in
      t.sl_maps.(fl) <- m;
      if m = 0 then t.fl_map <- t.fl_map land ((1 lsl fl) lxor -1)
    end
  end

(* ---- the arena ----------------------------------------------------------- *)

let create ~capacity =
  if capacity < min_block then invalid_arg "Slab.create: capacity too small";
  if capacity > max_capacity then invalid_arg "Slab.create: capacity above 2^32 bytes";
  {
    arena = Bytes.create capacity;
    tail = 0;
    peak = 0;
    fl_map = 0;
    sl_maps = Array.make fl_count 0;
    heads = Array.make (fl_count * sl_count) (-1);
    used = 0;
    live = 0;
  }

let[@cold] out_of_memory len = raise (Out_of_memory len)

let units_of_header h = h lsr 2

(* A free block that holds [u] granules, or -1: the first block of the
   first list whose sizes all fit, else the head of [u]'s own list if it
   happens to fit, so that a block freed last serves any request up to
   its size (a delete then an insert of the same size reuses it). *)
let fit t u =
  let off = find t (list_of (round_up u)) in
  if off >= 0 then off
  else
    let off = t.heads.(list_of u) in
    if off >= 0 && units_of_header (word t.arena off) >= u then off else -1

let alloc t len =
  if len < 0 then invalid_arg "Slab.alloc: negative size";
  if len > Bytes.length t.arena then out_of_memory len;
  let u = if len <= min_block then min_block / granule else (len + granule - 1) / granule in
  let a = t.arena in
  let off = fit t u in
  let off =
    if off >= 0 then begin
      let have = units_of_header (word a off) in
      unlink t off have;
      if have - u >= min_block / granule then begin
        (* Split: the rest stays free, and the block after it keeps its
           prev-free flag. *)
        insert t (off + (u * granule)) (have - u);
        set_word a off (u lsl 2)
      end
      else begin
        set_word a off (have lsl 2);
        let next = off + (have * granule) in
        if next < t.tail then set_word a next (word a next land (prev_free_bit lxor -1))
      end;
      off
    end
    else begin
      let off = t.tail in
      if off + (u * granule) > Bytes.length a then out_of_memory len;
      t.tail <- off + (u * granule);
      if t.tail > t.peak then t.peak <- t.tail;
      set_word a off (u lsl 2);
      off
    end
  in
  t.used <- t.used + (units_of_header (word a off) * granule);
  t.live <- t.live + 1;
  off

let free t off =
  if off < 0 || off >= t.tail || off land (granule - 1) <> 0 then
    invalid_arg "Slab.free: not a region";
  let a = t.arena in
  let h = word a off in
  if h land free_bit <> 0 then invalid_arg "Slab.free: double free";
  let size = units_of_header h * granule in
  t.used <- t.used - size;
  t.live <- t.live - 1;
  let start =
    if h land prev_free_bit = 0 then off
    else begin
      let pu = word a (off - 4) in
      let prev = off - (pu * granule) in
      unlink t prev pu;
      prev
    end
  in
  let stop = off + size in
  let stop =
    if stop < t.tail && word a stop land free_bit <> 0 then begin
      let nu = units_of_header (word a stop) in
      unlink t stop nu;
      stop + (nu * granule)
    end
    else stop
  in
  if stop = t.tail then t.tail <- start
  else begin
    insert t start ((stop - start) / granule);
    set_word a stop (word a stop lor prev_free_bit)
  end

let region_bytes t off = units_of_header (word t.arena off) * granule

let write t off ~pos b =
  let len = Bytes.length b in
  if pos < header_bytes || pos + len > region_bytes t off then
    invalid_arg "Slab.write: data exceeds region capacity";
  Bytes.blit b 0 t.arena (off + pos) len

let arena t = t.arena

let used_bytes t = t.used

let arena_bytes t = t.tail

let peak_bytes t = t.peak


let live_regions t = t.live

let fold_blocks t f acc =
  let rec go off acc =
    if off >= t.tail then acc
    else
      let h = word t.arena off in
      let size = units_of_header h * granule in
      if size < min_block then invalid_arg "Slab.fold_blocks: corrupt block header";
      go (off + size) (f off size (h land free_bit <> 0) acc)
  in
  go 0 acc

let free_bytes t =
  let rec walk off acc =
    if off < 0 then acc
    else walk (link t.arena (off + next_at)) (acc + region_bytes t off)
  in
  Array.fold_left (fun acc head -> walk head acc) 0 t.heads
