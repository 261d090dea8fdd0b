(** MICA-style in-memory key-value store (§4.2 of the paper).

    Keys are split into partitions by keyhash ({!Keyhash.fields}).  Each
    partition's index is a flat [int array] of 8-word primary buckets, as
    MICA's cache-line buckets: 7 slot words, each a 16-bit tag plus the
    item's arena offset ([tag lor (off lsl 16)], 0 = empty), then a link
    word naming the bucket's overflow bucket (0 = none).  Overflow buckets
    come from fixed-size chunks of 64 buckets, allocated one at a time as
    chains fill and never moved or copied, so growing the index allocates
    only the chunk it adds (and, rarely, a doubled spine of chunk
    pointers).  Overflow buckets are never unlinked.

    Items live in one slab arena ({!Slab}) shared by every partition.
    An item is one block: a 10-byte header, then the key, then the
    value.  Header bytes (little-endian): 0-3, the slab's block header;
    4-5, key length; 6-9, value length.  Nothing expires: the store keeps
    no TTL (the simulator's [Kvserver.Residency] models one).  Keys are
    at most 65535 bytes and values under 4 GiB.  Nothing per key lives
    on the OCaml heap: the index costs 8 bytes per slot, allocated with
    the buckets.

    Concurrency:
    - GETs are optimistic, as in the paper: each bucket chain has an
      epoch, odd while a write is in flight; readers snapshot the epoch,
      read, re-check, and retry on a mismatch.  A read that races a
      write may see a freed item whose bytes were since merged, split or
      reused; it bounds every length it derives from the header against
      the arena before using it, and confirms a value's length with the
      chain epoch before that length sizes the caller's buffer, so a
      torn header can make the read retry but never index outside the
      arena, overrun the caller's buffer or grow it.
    - PUTs/DELETEs take the partition spinlock.  The native server's
      workers may all serve any key, so no core is a partition's sole
      writer and every write locks.  A PUT fills its new item before it
      takes the lock, and frees the replaced item after releasing it.

    Allocation: {!read_into} into a reused buffer, {!length}, and a PUT
    that overwrites an existing key allocate nothing on the OCaml heap.

    Measured on the native benchmark's dataset (100k keys, 58.2 MB of
    values, 2 vCPUs): populating takes 0.11 s, the index allocates and
    keeps 0.41 words per key (a pool that doubled and copied allocated 9
    to keep 0.64), a GET costs ~0.9 us and a size lookup
    ~0.4 us, and [stats.value_bytes] is 1.038x the value bytes, since it
    counts headers and keys and rounds each item up to 8 B. *)

type t

type guard = [ `Lock  (** take the partition spinlock *) ]
(** Every write takes its partition's spinlock; the argument remains
    only because perfbench passes it. *)

val create :
  ?partition_bits:int -> ?bucket_bits:int -> ?value_arena_bytes:int -> unit -> t
(** [create ~partition_bits ~bucket_bits ~value_arena_bytes ()] makes a
    store with [2^partition_bits] partitions (default 4 → 16 partitions) of
    [2^bucket_bits] buckets each (default 10 → 1024), and one slab arena
    for the items of every partition (default 256 MiB, at most 4 GiB).  The arena's
    allocator runs under its own lock, so writers of different partitions
    can run at once; one item may take the whole arena.  Both bit counts
    must lie in [[0, 30]]. *)

val read_into : t -> string -> buf:(int -> bytes) -> off:int -> int
(** [read_into t key ~buf ~off] copies the item's value into the buffer
    [buf len] at offset [off] and returns its length [len], or [-1] when
    the key is absent.

    The copy is an optimistic read: it is retried until no write to the
    item's bucket chain overlapped it, so [buf] may be called more than
    once, each time with the length of the version being copied.  The
    buffer returned by the last call holds one whole version of the
    value, and the result is that version's length.  [buf len] must
    return a buffer of at least [off + len] bytes; the caller may hand
    back the same reused buffer every time.  Each attempt reads [len]
    once, checks it against the arena and, before calling [buf], checks
    that no write to the chain has begun since the attempt started, so
    [buf] is only ever asked for the length of a value that was stored:
    an item that a concurrent write frees and reuses can make the
    attempt retry but never overrun the buffer or ask for more. *)

val get : ?now:float -> t -> string -> bytes option
(** {!read_into} a fresh buffer of exactly the value's length.  [now] is
    accepted and ignored: nothing in the store expires, and perfbench
    still passes it. *)

val length : t -> string -> int
(** Size of the stored value without copying it, or [-1] when the key is
    absent.  This is the lookup a Minos small core performs to classify
    a GET as small or large (§3); it allocates nothing. *)

val size_of : ?now:float -> t -> string -> int option
(** {!length} as an option: [None] when the key is absent.  [now] is
    accepted and ignored, as by {!get}. *)

val put : t -> guard:guard -> string -> bytes -> unit
(** Insert or update.  Raises {!Slab.Out_of_memory} if the arena is
    exhausted, and [Invalid_argument] for a key over 65535 bytes or a
    value of 4 GiB or more. *)

val delete : t -> guard:guard -> string -> bool
(** Remove a key; [true] if it was present. *)

val scan : t -> start:string -> count:int -> (string -> int -> unit) -> int
(** [scan t ~start ~count f] visits up to [count] live items with key
    [>= start] in ascending key order, calling [f key value_size]; returns
    the number visited.  Skips items deleted since the index snapshot.

    The first call builds the sorted key index ({!Ordered}) that scans
    walk; a store that is never scanned holds no OCaml object per key.
    The build reads every chain's keys out of the arena under the chain's
    epoch, as a GET reads them, then sorts them and publishes one
    snapshot, all while holding the index lock: on the native
    benchmark's 100k keys the first call takes 0.13 s (2 vCPUs), a later
    one ~5 us.  From then on every insert and delete also maintains the
    index.  Inserts and deletes that race the build, and scans that
    arrive while it runs, wait on the index lock until it is published,
    so the index ends up equal to the key set and no scan walks a
    partial one.  The build takes no partition lock. *)

type stats = {
  items : int;
  value_bytes : int;
      (** bytes in the slab's live blocks: item headers and keys as well
          as values, each item rounded up to 8 B *)
  arena_bytes : int;      (** the slab's tail: bytes under live and free blocks *)
  arena_peak_bytes : int;
      (** the highest the tail has been: the item memory a run has
          touched, which the process's peak RSS includes *)
  overflow_buckets : int; (** dynamically chained buckets *)
  index_words : int;
      (** words the index holds: primary buckets, overflow chunks and
          their spines *)
  partitions : int;
}

val stats : t -> stats

val iter : t -> (string -> int -> unit) -> unit
(** [iter t f] calls [f key value_size] for every item.  Not linearizable
    with respect to concurrent writes.  Only test_kv calls it, as the
    key-set oracle that {!scan}'s sorted index is checked against. *)
