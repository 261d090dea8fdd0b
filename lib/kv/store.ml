type guard = [ `Lock ]

let slots_per_bucket = 7

(* A bucket is [bucket_words] consecutive words of its partition's table:
   [slots_per_bucket] slot words, then the link to its overflow bucket. *)
let bucket_words = 8

let link = slots_per_bucket

(* A slot word is [tag lor (item offset lsl tag_bits)]; 0 is an empty slot
   (tags are never 0). *)
let tag_bits = 16

let tag_mask = (1 lsl tag_bits) - 1

(* Item header offsets; bytes 0-3 are the slab's (Slab.header_bytes). *)
let flags_at = 4

let klen_at = 5

let vlen_at = 7

let expiry_at = 11

let header_bytes = 11

let ttl_header_bytes = 19

let has_ttl = 1

let max_key = 0xFFFF

let max_value = 0xFFFF_FFFF

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

type partition = {
  lock : Spinlock.t;
  epochs : int Atomic.t array; (* one per primary bucket: its chain's epoch *)
  mutable table : int array;
      (* The primary buckets, then the overflow pool.  Readers load the
         field once per attempt: a writer that grows the pool publishes a
         copy, and only writes under a chain's epoch touch the copy. *)
  mutable buckets_used : int; (* primary buckets plus pool buckets handed out *)
}

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
  expired : int Atomic.t;
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
      table = Array.make (n_buck * bucket_words) 0;
      buckets_used = n_buck;
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
    expired = Atomic.make 0;
    ordered = Ordered.create ();
  }

let partition_count t = Array.length t.partitions

let fields t key =
  Keyhash.fields key ~partition_bits:t.partition_bits ~bucket_bits:t.bucket_bits

let partition_of_key t key = fields t key lsr (t.bucket_bits + tag_bits)

let bucket_of t f = (f lsr tag_bits) land ((1 lsl t.bucket_bits) - 1)

(* ---- items, read in place ------------------------------------------ *)

(* The readers below may see a freed and reused item (the epoch check
   then discards what they read), so each bounds what it reads.  A stale
   item offset may since have been merged into a free block, split, or
   landed inside another item's bytes, so nothing read there is trusted:
   an offset was once the start of a block of at least 16 B, so the
   11-byte header lies in the arena, and every length derived from it
   (the TTL header's end, the key, the value) is checked against the
   arena before it is used.  A value length also sizes the caller's
   buffer, so [copy_value] confirms it with the chain epoch first. *)

let item_header a off =
  if Bytes.get_uint8 a (off + flags_at) land has_ttl = 0 then header_bytes
  else ttl_header_bytes

let key_length a off = Bytes.get_uint16_le a (off + klen_at)

let value_length a off =
  Bytes.get_uint16_le a (off + vlen_at)
  lor (Bytes.get_uint16_le a (off + vlen_at + 2) lsl 16)

(* [now] past the item's deadline: lapsed.  An item without a TTL never
   lapses. *)
let lapsed a off now =
  Bytes.get_uint8 a (off + flags_at) land has_ttl <> 0
  && Int64.float_of_bits (get64 a (off + expiry_at)) <= now

let rec key_equal a pos key i n =
  i >= n
  || (Bytes.unsafe_get a (pos + i) = String.unsafe_get key i && key_equal a pos key (i + 1) n)

let has_key a off key =
  let n = String.length key in
  key_length a off = n
  &&
  let pos = off + item_header a off in
  pos + n <= Bytes.length a && key_equal a pos key 0 n

let key_string a off =
  let pos = off + item_header a off and n = key_length a off in
  if pos + n <= Bytes.length a then Bytes.sub_string a pos n else ""

(* ---- bucket chains ---------------------------------------------------- *)

(* The index in [table] of the slot holding [key] in the chain from the
   bucket at word [base], or -1. *)
let rec find_slot a table base s tag key =
  if s = slots_per_bucket then
    let next = table.(base + link) in
    if next = 0 then -1 else find_slot a table (next * bucket_words) 0 tag key
  else
    let w = table.(base + s) in
    if w land tag_mask = tag && has_key a (w lsr tag_bits) key then base + s
    else find_slot a table base (s + 1) tag key

(* Chain epochs: odd while a write is in flight. *)
let begin_write epoch = Atomic.incr epoch (* even -> odd *)

let end_write epoch = Atomic.incr epoch (* odd -> even *)

(* Value lengths double as results: [absent] for a missing or lapsed
   key, [torn] for an attempt that read a header no live item has. *)
let absent = -1

let torn = -2

(* [len] is read once and checked against the arena.  Before it sizes
   [buf] the chain's epoch must still read [e1]: then the item was live
   all along and [len] is its value's, where a torn read could otherwise
   grow the caller's buffer to the arena's size.  A writer may still free
   the item and another reuse it mid-copy; the caller's epoch check then
   discards the copy, which fits the buffer sized for it.  [off < 0] asks
   for the length only. *)
let copy_value t epoch e1 item now buf off =
  let a = t.arena in
  let hdr = item_header a item in
  if item + hdr > Bytes.length a then torn
  else if lapsed a item now then absent
  else
    let len = value_length a item and pos = item + hdr + key_length a item in
    if pos + len > Bytes.length a then torn
    else if off < 0 then len
    else if Atomic.get epoch <> e1 then torn
    else begin
      Bytes.blit a pos (buf len) off len;
      len
    end

(* Optimistic read: retry while a writer holds the chain epoch odd or the
   epoch changed underneath us. *)
let rec read_attempt t p b tag key now buf off =
  let epoch = p.epochs.(b) in
  let e1 = Atomic.get epoch in
  if e1 land 1 = 1 then begin
    Domain.cpu_relax ();
    read_attempt t p b tag key now buf off
  end
  else
    let table = p.table in
    let i = find_slot t.arena table (b * bucket_words) 0 tag key in
    let len =
      if i < 0 then absent else copy_value t epoch e1 (table.(i) lsr tag_bits) now buf off
    in
    if len <> torn && Atomic.get epoch = e1 then len
    else begin
      Domain.cpu_relax ();
      read_attempt t p b tag key now buf off
    end

(* Lazy expiry: a read at [now] past the item's deadline answers as if
   the item were absent.  The slot itself is reclaimed by [expire] /
   [expire_sweep] — readers hold no write permission under the epoch
   protocol.  The [neg_infinity] default makes the check free for callers
   without a clock. *)
let lookup t key now buf off =
  let f = fields t key in
  read_attempt t
    t.partitions.(f lsr (t.bucket_bits + tag_bits))
    (bucket_of t f) (f land tag_mask) key now buf off

(* The default is matched in the body: in the parameter it would read to
   the analyzer as a closure per call. *)
let read_into ?now t key ~buf ~off =
  if off < 0 then invalid_arg "Store.read_into: negative offset";
  lookup t key (match now with Some now -> now | None -> neg_infinity) buf off

let get ?now t key =
  let value = ref Bytes.empty in
  let fresh len =
    value := Bytes.create len;
    !value
  in
  if read_into ?now t key ~buf:fresh ~off:0 < 0 then None else Some !value

let no_copy _ = Bytes.empty

let length ?now t key =
  lookup t key (match now with Some now -> now | None -> neg_infinity) no_copy (-1)

let size_of ?now t key =
  let len = length ?now t key in
  if len < 0 then None else Some len

let mem ?now t key = length ?now t key >= 0

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

(* Pool growth doubles the pool (at least 16 buckets), so it is
   amortized.  A reader that loaded the old array may finish on it: no
   write reaches the old copy, and any later write to the reader's chain
   changes that chain's epoch. *)
let[@cold] grow p =
  let old = p.table in
  let n = Array.length old / bucket_words in
  let pool = n - Array.length p.epochs in
  let table = Array.make ((n + max 16 pool) * bucket_words) 0 in
  Array.blit old 0 table 0 (Array.length old);
  p.table <- table

(* A free slot in the chain from word [base], linking a fresh overflow
   bucket from the pool when the chain is full.  Inside the chain's write
   section, with room in the pool. *)
let rec empty_slot t p base s =
  if s = slots_per_bucket then begin
    let next = p.table.(base + link) in
    if next <> 0 then empty_slot t p (next * bucket_words) 0
    else begin
      let next = p.buckets_used in
      p.buckets_used <- next + 1;
      p.table.(base + link) <- next;
      Atomic.incr t.overflow_count;
      next * bucket_words
    end
  end
  else if p.table.(base + s) = 0 then base + s
  else empty_slot t p base (s + 1)

(* Publish the item at [item] for [key]: replace the key's slot word, or
   fill an empty slot.  Returns the replaced item, or -1 for an insert.
   Under the partition lock. *)
let publish t p b tag key item =
  let base = b * bucket_words and word = tag lor (item lsl tag_bits) in
  let i = find_slot t.arena p.table base 0 tag key in
  (* Room for one more overflow bucket first, so that nothing inside the
     write section allocates or raises. *)
  if i < 0 && (p.buckets_used + 1) * bucket_words > Array.length p.table then grow p;
  let epoch = p.epochs.(b) in
  begin_write epoch;
  let old =
    if i >= 0 then begin
      let old = p.table.(i) lsr tag_bits in
      p.table.(i) <- word;
      old
    end
    else begin
      p.table.(empty_slot t p base 0) <- word;
      -1
    end
  in
  end_write epoch;
  if old < 0 then begin
    Atomic.incr t.items;
    Ordered.add t.ordered key
  end;
  old

let put ?(expires_at = infinity) t ~guard:(_ : guard) key value =
  let klen = String.length key and vlen = Bytes.length value in
  if klen > max_key then invalid_arg "Store.put: key longer than 65535 bytes";
  if vlen > max_value then invalid_arg "Store.put: value of 4 GiB or more";
  let ttl = expires_at <> infinity in
  let hdr = if ttl then ttl_header_bytes else header_bytes in
  (* Fill the item before it is published, so readers never observe a
     partially written one; the epoch protocol covers the slot word. *)
  let item = slab_alloc t (hdr + klen + vlen) in
  let a = t.arena in
  Bytes.set_uint8 a (item + flags_at) (if ttl then has_ttl else 0);
  Bytes.set_uint16_le a (item + klen_at) klen;
  Bytes.set_uint16_le a (item + vlen_at) (vlen land 0xFFFF);
  Bytes.set_uint16_le a (item + vlen_at + 2) (vlen lsr 16);
  if ttl then set64 a (item + expiry_at) (Int64.bits_of_float expires_at);
  Bytes.blit_string key 0 a (item + hdr) klen;
  Slab.write t.slab item ~pos:(hdr + klen) value;
  let f = fields t key in
  let p = t.partitions.(f lsr (t.bucket_bits + tag_bits)) in
  Spinlock.lock p.lock;
  let old = publish t p (bucket_of t f) (f land tag_mask) key item in
  Spinlock.unlock p.lock;
  if old >= 0 then slab_free t old

(* Clear slot [i] of chain [b] inside the partition lock; the caller
   removes the key from the SCAN index after this, and frees the item
   once the lock is released. *)
let clear_slot t p b i =
  let epoch = p.epochs.(b) in
  begin_write epoch;
  p.table.(i) <- 0;
  end_write epoch;
  Atomic.decr t.items

(* Remove [key] if its deadline is [<= now] (always, for [now = infinity]);
   returns the freed item or -1. *)
let remove t key now =
  let f = fields t key in
  let p = t.partitions.(f lsr (t.bucket_bits + tag_bits)) and b = bucket_of t f in
  Spinlock.lock p.lock;
  let i = find_slot t.arena p.table (b * bucket_words) 0 (f land tag_mask) key in
  let item = if i < 0 then -1 else p.table.(i) lsr tag_bits in
  let removed = item >= 0 && (now = infinity || lapsed t.arena item now) in
  if removed then begin
    clear_slot t p b i;
    Ordered.remove t.ordered key
  end;
  Spinlock.unlock p.lock;
  if removed then begin
    slab_free t item;
    true
  end
  else false

let delete t ~guard:(_ : guard) key = remove t key infinity

let expire t ~guard:(_ : guard) ~now key =
  let removed = remove t key now in
  if removed then Atomic.incr t.expired;
  removed

(* ---- whole-store walks ------------------------------------------------- *)

(* Fold [f] over the (slot index, item) pairs of the chain from word
   [base], in a table snapshot. *)
let rec fold_chain table base s f acc =
  if s = slots_per_bucket then
    let next = table.(base + link) in
    if next = 0 then acc else fold_chain table (next * bucket_words) 0 f acc
  else
    let w = table.(base + s) in
    let acc = if w = 0 then acc else f (base + s) (w lsr tag_bits) acc in
    fold_chain table base (s + 1) f acc

(* Reclaim the lapsed items of the chain from word [base]; returns [n]
   plus their number.  Under the partition lock. *)
let rec sweep_chain t p b base s now n =
  if s = slots_per_bucket then
    let next = p.table.(base + link) in
    if next = 0 then n else sweep_chain t p b (next * bucket_words) 0 now n
  else
    let w = p.table.(base + s) in
    let item = w lsr tag_bits in
    if w <> 0 && lapsed t.arena item now then begin
      clear_slot t p b (base + s);
      (* Checked after the slot is cleared, as [Ordered.remove] checks it:
         an index build that starts later reads the chain without the
         item. *)
      if Ordered.maintained t.ordered then
        Ordered.remove t.ordered (key_string t.arena item);
      slab_free t item;
      Atomic.incr t.expired;
      sweep_chain t p b base (s + 1) now (n + 1)
    end
    else sweep_chain t p b base (s + 1) now n

let expire_sweep t ~now =
  Array.fold_left
    (fun n p ->
      Spinlock.lock p.lock;
      let n = ref n in
      for b = 0 to Array.length p.epochs - 1 do
        n := sweep_chain t p b (b * bucket_words) 0 now !n
      done;
      Spinlock.unlock p.lock;
      !n)
    0 t.partitions

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
    let r =
      fold_chain p.table (b * bucket_words) 0 (fun _ item acc -> f t.arena item acc) acc
    in
    if Atomic.get epoch = e1 then r
    else begin
      Domain.cpu_relax ();
      fold_chain_read t p b f acc
    end

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

let scan ?(now = neg_infinity) t ~start ~count f =
  Ordered.build t.ordered (keys t);
  let visited = ref 0 in
  Ordered.iter_from t.ordered ~start (fun key ->
      if !visited >= count then false
      else begin
        let len = length ~now t key in
        if len >= 0 then begin
          f key len;
          incr visited
        end (* else deleted or lapsed since the snapshot *);
        !visited < count
      end);
  !visited

type stats = {
  items : int;
  value_bytes : int;
  arena_bytes : int;
  arena_peak_bytes : int;
  overflow_buckets : int;
  partitions : int;
  expired : int;
}

let stats (t : t) =
  {
    items = Atomic.get t.items;
    value_bytes = Slab.used_bytes t.slab;
    arena_bytes = Slab.arena_bytes t.slab;
    arena_peak_bytes = Slab.peak_bytes t.slab;
    overflow_buckets = Atomic.get t.overflow_count;
    partitions = partition_count t;
    expired = Atomic.get t.expired;
  }

let iter (t : t) f =
  fold_items t (fun a item acc -> (key_string a item, value_length a item) :: acc) []
  |> List.iter (fun (key, len) -> f key len)
