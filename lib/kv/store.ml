type guard = [ `Lock ]

let slots_per_bucket = 7

(* A bucket is [bucket_words] consecutive words of an index array:
   [slots_per_bucket] slot words, then the link to its overflow bucket. *)
let bucket_words = 8

let link = slots_per_bucket

(* Overflow buckets come in chunks of [chunk_buckets], allocated one at a
   time and never moved. *)
let chunk_bits = 6

let chunk_buckets = 1 lsl chunk_bits

let chunk_words = chunk_buckets * bucket_words

(* A slot word is [tag lor (item offset lsl tag_bits)]; 0 is an empty slot
   (tags are never 0). *)
let tag_bits = 16

let tag_mask = (1 lsl tag_bits) - 1

(* Item header offsets; bytes 0-3 are the slab's (Slab.header_bytes). *)
let klen_at = 4

let vlen_at = 6

let header_bytes = 10

let max_key = 0xFFFF

let max_value = 0xFFFF_FFFF

(* Buckets are numbered per partition: the primary buckets [0, n), then
   overflow bucket [o] as [n + o], in chunk [o / chunk_buckets].  A link
   word holds the number of the next bucket (0 = none: bucket 0 is
   primary), and a slot is named by [bucket * bucket_words + slot]. *)
type partition = {
  lock : Spinlock.t;
  epochs : int Atomic.t array; (* one per primary bucket: its chain's epoch *)
  primary : int array;
  mutable chunks : int array array;
      (* The spine: overflow chunk [c] at [c], unused entries [no_chunk].
         Readers load the field once per attempt; a writer that outgrows
         it publishes a copy holding the same chunks. *)
  mutable n_chunks : int;
  mutable overflow_used : int; (* overflow buckets handed out *)
}

let no_chunk : int array = [||]

type t = {
  partition_bits : int;
  bucket_bits : int;
  partitions : partition array;
  slab : Slab.t;
  arena : Bytes.t; (* the slab's arena: items are read and written in place *)
  slab_lock : Spinlock.t;
      (* One slab serves every partition, so writers of two partitions
         share its free lists: [alloc] and [free] run under this lock.
         Filling an allocated item needs no lock, since the item belongs
         to its writer until a slot word publishes it. *)
  items : int Atomic.t;
  overflow_count : int Atomic.t;
  ordered : Ordered.t; (* off until the first [scan] *)
}

let create ?(partition_bits = 4) ?(bucket_bits = 10) ?(value_arena_bytes = 256 * 1024 * 1024)
    () =
  if partition_bits < 0 || bucket_bits < 0 || partition_bits > 30 || bucket_bits > 30 then
    invalid_arg "Store.create: bits out of [0, 30]";
  let n_buck = 1 lsl bucket_bits in
  let mk_partition _ =
    {
      lock = Spinlock.create ();
      epochs = Array.init n_buck (fun _ -> Atomic.make 0);
      primary = Array.make (n_buck * bucket_words) 0;
      chunks = [| no_chunk |];
      n_chunks = 0;
      overflow_used = 0;
    }
  in
  let slab = Slab.create ~capacity:value_arena_bytes in
  {
    partition_bits;
    bucket_bits;
    partitions = Array.init (1 lsl partition_bits) mk_partition;
    slab;
    arena = Slab.arena slab;
    slab_lock = Spinlock.create ();
    items = Atomic.make 0;
    overflow_count = Atomic.make 0;
    ordered = Ordered.create ();
  }

let partition_count t = Array.length t.partitions

let fields t key =
  Keyhash.fields key ~partition_bits:t.partition_bits ~bucket_bits:t.bucket_bits


let bucket_of t f = (f lsr tag_bits) land ((1 lsl t.bucket_bits) - 1)

(* ---- items, read in place ------------------------------------------ *)

(* The readers below may see a freed and reused item (the epoch check
   then discards what they read), so each bounds what it reads.  A stale
   item offset may since have been merged into a free block, split, or
   landed inside another item's bytes, so nothing read there is trusted:
   an offset was once the start of a block of at least 16 B, so the
   10-byte header lies in the arena, and every length derived from it
   (the key's, the value's) is checked against the arena before it is
   used.  A value length also sizes the caller's buffer, so [copy_value]
   confirms it with the chain epoch first. *)

let key_length a off = Bytes.get_uint16_le a (off + klen_at)

let value_length a off =
  Bytes.get_uint16_le a (off + vlen_at)
  lor (Bytes.get_uint16_le a (off + vlen_at + 2) lsl 16)

let rec key_equal a pos key i n =
  i >= n
  || (Bytes.unsafe_get a (pos + i) = String.unsafe_get key i && key_equal a pos key (i + 1) n)

let has_key a off key =
  let n = String.length key in
  key_length a off = n
  &&
  let pos = off + header_bytes in
  pos + n <= Bytes.length a && key_equal a pos key 0 n

let key_string a off =
  let pos = off + header_bytes and n = key_length a off in
  if pos + n <= Bytes.length a then Bytes.sub_string a pos n else ""

(* ---- bucket chains ---------------------------------------------------- *)

let[@inline] chunk_of n k = (k - n) lsr chunk_bits

let[@inline] offset_in_chunk n k = ((k - n) land (chunk_buckets - 1)) * bucket_words

(* Where bucket [k] lives in the current spine: only writers, under the
   partition lock, address buckets this way. *)
let bucket_array p k =
  let n = Array.length p.epochs in
  if k < n then p.primary else p.chunks.(chunk_of n k)

let bucket_offset p k =
  let n = Array.length p.epochs in
  if k < n then k * bucket_words else offset_in_chunk n k

(* Slot word [r] (a slot name, [bucket * bucket_words + slot]) in spine
   [chunks], which holds the slot's bucket. *)
let slot_word p chunks r =
  let n = Array.length p.epochs and k = r / bucket_words in
  if k < n then p.primary.(r)
  else chunks.(chunk_of n k).(offset_in_chunk n k + (r mod bucket_words))

let set_slot p r w =
  let k = r / bucket_words in
  (bucket_array p k).(bucket_offset p k + (r mod bucket_words)) <- w

(* [find_slot]'s result for a link that leads past [chunks], a reader's
   snapshot of the spine: the writer that linked the bucket grew the
   spine after the reader loaded it, so the attempt is torn. *)
let torn_slot = -2

(* The slot holding [key] in the chain from bucket [k], at [off] in [arr],
   or -1. *)
let rec find_slot a p chunks k arr off s tag key =
  if s = slots_per_bucket then
    let next = arr.(off + link) in
    if next = 0 then -1
    else
      let n = Array.length p.epochs in
      (* [lsr]: a link below [n] maps past every spine too. *)
      let c = chunk_of n next in
      if c >= Array.length chunks then torn_slot
      else
        let chunk = chunks.(c) and off = offset_in_chunk n next in
        if off >= Array.length chunk then torn_slot
        else find_slot a p chunks next chunk off 0 tag key
  else
    let w = arr.(off + s) in
    if w land tag_mask = tag && has_key a (w lsr tag_bits) key then (k * bucket_words) + s
    else find_slot a p chunks k arr off (s + 1) tag key

(* Chain epochs: odd while a write is in flight. *)
let begin_write epoch = Atomic.incr epoch (* even -> odd *)

let end_write epoch = Atomic.incr epoch (* odd -> even *)

(* Value lengths double as results: [absent] for a missing key, [torn]
   for an attempt that read a header no live item has. *)
let absent = -1

let torn = -2

(* [len] is read once and checked against the arena.  Before it sizes
   [buf] the chain's epoch must still read [e1]: then the item was live
   all along and [len] is its value's, where a torn read could otherwise
   grow the caller's buffer to the arena's size.  A writer may still free
   the item and another reuse it mid-copy; the caller's epoch check then
   discards the copy, which fits the buffer sized for it.  [off < 0] asks
   for the length only. *)
let copy_value t epoch e1 item buf off =
  let a = t.arena in
  let len = value_length a item and pos = item + header_bytes + key_length a item in
  if pos + len > Bytes.length a then torn
  else if off < 0 then len
  else if Atomic.get epoch <> e1 then torn
  else begin
    Bytes.blit a pos (buf len) off len;
    len
  end

(* Optimistic read: retry while a writer holds the chain epoch odd or the
   epoch changed underneath us. *)
let rec read_attempt t p b tag key buf off =
  let epoch = p.epochs.(b) in
  let e1 = Atomic.get epoch in
  if e1 land 1 = 1 then begin
    Domain.cpu_relax ();
    read_attempt t p b tag key buf off
  end
  else
    let chunks = p.chunks in
    let i = find_slot t.arena p chunks b p.primary (b * bucket_words) 0 tag key in
    let len =
      if i = torn_slot then torn
      else if i < 0 then absent
      else copy_value t epoch e1 (slot_word p chunks i lsr tag_bits) buf off
    in
    if len <> torn && Atomic.get epoch = e1 then len
    else begin
      Domain.cpu_relax ();
      read_attempt t p b tag key buf off
    end

let lookup t key buf off =
  let f = fields t key in
  read_attempt t
    t.partitions.(f lsr (t.bucket_bits + tag_bits))
    (bucket_of t f) (f land tag_mask) key buf off

let read_into t key ~buf ~off =
  if off < 0 then invalid_arg "Store.read_into: negative offset";
  lookup t key buf off

let get ?now:_ t key =
  let value = ref Bytes.empty in
  let fresh len =
    value := Bytes.create len;
    !value
  in
  if read_into t key ~buf:fresh ~off:0 < 0 then None else Some !value

let no_copy _ = Bytes.empty

let length t key = lookup t key no_copy (-1)

let size_of ?now:_ t key =
  let len = length t key in
  if len < 0 then None else Some len


(* ---- writes ------------------------------------------------------------ *)

let slab_alloc t len =
  Spinlock.lock t.slab_lock;
  match Slab.alloc t.slab len with
  | off ->
      Spinlock.unlock t.slab_lock;
      off
  | exception e ->
      Spinlock.unlock t.slab_lock;
      raise e

let slab_free t off =
  Spinlock.lock t.slab_lock;
  match Slab.free t.slab off with
  | () -> Spinlock.unlock t.slab_lock
  | exception e ->
      Spinlock.unlock t.slab_lock;
      raise e

(* One more chunk of overflow buckets.  A reader holding the old spine
   finds every chunk it can reach in it: a link into the new chunk is
   written later, under the chain's epoch. *)
let[@cold] add_chunk p =
  let chunk = Array.make chunk_words 0 in
  if p.n_chunks = Array.length p.chunks then begin
    let spine = Array.make (2 * p.n_chunks) no_chunk in
    Array.blit p.chunks 0 spine 0 p.n_chunks;
    spine.(p.n_chunks) <- chunk;
    p.chunks <- spine
  end
  else p.chunks.(p.n_chunks) <- chunk;
  p.n_chunks <- p.n_chunks + 1

(* A free slot in the chain from bucket [k] (at [off] in [arr]), linking
   a fresh overflow bucket when the chain is full.  Inside the chain's
   write section, with an overflow bucket to spare. *)
let rec empty_slot t p k arr off s =
  if s = slots_per_bucket then begin
    let next = arr.(off + link) in
    if next <> 0 then empty_slot t p next (bucket_array p next) (bucket_offset p next) 0
    else begin
      let next = Array.length p.epochs + p.overflow_used in
      p.overflow_used <- p.overflow_used + 1;
      arr.(off + link) <- next;
      Atomic.incr t.overflow_count;
      next * bucket_words
    end
  end
  else if arr.(off + s) = 0 then (k * bucket_words) + s
  else empty_slot t p k arr off (s + 1)

(* Publish the item at [item] for [key]: replace the key's slot word, or
   fill an empty slot.  Returns the replaced item, or -1 for an insert.
   Under the partition lock. *)
let publish t p b tag key item =
  let base = b * bucket_words and word = tag lor (item lsl tag_bits) in
  let i = find_slot t.arena p p.chunks b p.primary base 0 tag key in
  (* An overflow bucket to spare first, so that nothing inside the write
     section allocates or raises. *)
  if i < 0 && p.overflow_used = p.n_chunks * chunk_buckets then add_chunk p;
  let epoch = p.epochs.(b) in
  begin_write epoch;
  let old =
    if i >= 0 then begin
      let old = slot_word p p.chunks i lsr tag_bits in
      set_slot p i word;
      old
    end
    else begin
      set_slot p (empty_slot t p b p.primary base 0) word;
      -1
    end
  in
  end_write epoch;
  if old < 0 then begin
    Atomic.incr t.items;
    Ordered.add t.ordered key
  end;
  old

let put t ~guard:(_ : guard) key value =
  let klen = String.length key and vlen = Bytes.length value in
  if klen > max_key then invalid_arg "Store.put: key longer than 65535 bytes";
  if vlen > max_value then invalid_arg "Store.put: value of 4 GiB or more";
  (* Fill the item before it is published, so readers never observe a
     partially written one; the epoch protocol covers the slot word. *)
  let item = slab_alloc t (header_bytes + klen + vlen) in
  let a = t.arena in
  Bytes.set_uint16_le a (item + klen_at) klen;
  Bytes.set_uint16_le a (item + vlen_at) (vlen land 0xFFFF);
  Bytes.set_uint16_le a (item + vlen_at + 2) (vlen lsr 16);
  Bytes.blit_string key 0 a (item + header_bytes) klen;
  Slab.write t.slab item ~pos:(header_bytes + klen) value;
  let f = fields t key in
  let p = t.partitions.(f lsr (t.bucket_bits + tag_bits)) in
  Spinlock.lock p.lock;
  let old = publish t p (bucket_of t f) (f land tag_mask) key item in
  Spinlock.unlock p.lock;
  if old >= 0 then slab_free t old

(* Clear the key's slot inside the partition lock and drop it from the
   SCAN index, then free the item once the lock is released. *)
let delete t ~guard:(_ : guard) key =
  let f = fields t key in
  let p = t.partitions.(f lsr (t.bucket_bits + tag_bits)) and b = bucket_of t f in
  Spinlock.lock p.lock;
  let i =
    find_slot t.arena p p.chunks b p.primary (b * bucket_words) 0 (f land tag_mask) key
  in
  let item = if i < 0 then -1 else slot_word p p.chunks i lsr tag_bits in
  if item >= 0 then begin
    let epoch = p.epochs.(b) in
    begin_write epoch;
    set_slot p i 0;
    end_write epoch;
    Atomic.decr t.items;
    Ordered.remove t.ordered key
  end;
  Spinlock.unlock p.lock;
  if item >= 0 then begin
    slab_free t item;
    true
  end
  else false

(* ---- whole-store walks ------------------------------------------------- *)

exception Torn

(* Fold [f] over the items of the chain from bucket [k] (at [off] in
   [arr]), in a reader's snapshot [chunks] of the spine; raises [Torn] at
   a link that leads past it. *)
let rec fold_chain p chunks arr off s f acc =
  if s = slots_per_bucket then
    let next = arr.(off + link) in
    if next = 0 then acc
    else
      let n = Array.length p.epochs in
      let c = chunk_of n next in
      if c >= Array.length chunks then raise Torn
      else
        let chunk = chunks.(c) and off = offset_in_chunk n next in
        if off >= Array.length chunk then raise Torn else fold_chain p chunks chunk off 0 f acc
  else
    let w = arr.(off + s) in
    let acc = if w = 0 then acc else f (w lsr tag_bits) acc in
    fold_chain p chunks arr off (s + 1) f acc

(* [f arena item acc] folded over the items of chain [b], read under the
   chain's epoch as a GET reads it: an attempt that a write overlapped is
   discarded and the fold restarts from [acc]. *)
let rec fold_chain_read t p b f acc =
  let epoch = p.epochs.(b) in
  let e1 = Atomic.get epoch in
  if e1 land 1 = 1 then begin
    Domain.cpu_relax ();
    fold_chain_read t p b f acc
  end
  else
    match
      fold_chain p p.chunks p.primary (b * bucket_words) 0 (fun item acc -> f t.arena item acc) acc
    with
    | r when Atomic.get epoch = e1 -> r
    | _ | (exception Torn) ->
        Domain.cpu_relax ();
        fold_chain_read t p b f acc

let fold_items t f acc =
  Array.fold_left
    (fun acc p ->
      let acc = ref acc in
      for b = 0 to Array.length p.epochs - 1 do
        acc := fold_chain_read t p b f !acc
      done;
      !acc)
    acc t.partitions

(* The index build: every key, read out of the arena.  Takes no
   partition lock, since it runs under the index lock and writers take
   the partition lock first. *)
let keys t () = fold_items t (fun a item keys -> key_string a item :: keys) []

let scan t ~start ~count f =
  Ordered.build t.ordered (keys t);
  let visited = ref 0 in
  Ordered.iter_from t.ordered ~start (fun key ->
      if !visited >= count then false
      else begin
        let len = length t key in
        if len >= 0 then begin
          f key len;
          incr visited
        end (* else deleted since the snapshot *);
        !visited < count
      end);
  !visited

type stats = {
  items : int;
  value_bytes : int;
  arena_bytes : int;
  arena_peak_bytes : int;
  overflow_buckets : int;
  index_words : int;
  partitions : int;
  arena_huge_pages : bool;
}

let index_words p = Array.length p.primary + (p.n_chunks * chunk_words) + Array.length p.chunks

let stats (t : t) =
  {
    items = Atomic.get t.items;
    value_bytes = Slab.used_bytes t.slab;
    arena_bytes = Slab.arena_bytes t.slab;
    arena_peak_bytes = Slab.peak_bytes t.slab;
    overflow_buckets = Atomic.get t.overflow_count;
    index_words = Array.fold_left (fun acc p -> acc + index_words p) 0 t.partitions;
    partitions = partition_count t;
    arena_huge_pages = Slab.huge_pages t.slab;
  }

let iter (t : t) f =
  fold_items t (fun a item acc -> (key_string a item, value_length a item) :: acc) []
  |> List.iter (fun (key, len) -> f key len)
