(** MICA-style in-memory key-value store (§4.2 of the paper).

    Keys are split into partitions by keyhash.  Each partition is a hash
    table whose entries are cache-line-like buckets of {!slots_per_bucket}
    slots; each slot holds a 16-bit tag plus the key and a slab region with
    the value.  Overflow buckets are chained dynamically when a bucket
    fills up.

    Concurrency:
    - GETs are optimistic, as in the paper: each bucket chain has a 64-bit
      epoch, odd while a write is in flight; readers snapshot the epoch,
      read, re-check, and retry on a mismatch.
    - PUTs/DELETEs take the partition spinlock ([`Lock]).  The native
      server passes [`Lock] on every write: any of its workers may serve
      any key, so no core is a partition's sole writer.  [`Crew] skips the
      lock and is correct only when the caller is the partition's single
      writer (the paper's CREW master core); only single-domain tests use
      it. *)

type t

type guard = [ `Crew  (** caller is the partition's only writer; no lock *)
             | `Lock  (** take the partition spinlock *) ]

val slots_per_bucket : int
(** 7, as in a 64-byte cache-line bucket with a header word. *)

val create :
  ?partition_bits:int -> ?bucket_bits:int -> ?value_arena_bytes:int -> unit -> t
(** [create ~partition_bits ~bucket_bits ~value_arena_bytes ()] makes a
    store with [2^partition_bits] partitions (default 4 → 16 partitions) of
    [2^bucket_bits] buckets each (default 10 → 1024), and one slab arena
    for the values of every partition (default 256 MiB).  The arena's
    allocator runs under its own lock, so writers of different partitions
    can run at once; one value may take the whole arena. *)

val partition_count : t -> int

val partition_of_key : t -> string -> int
(** The partition a key hashes to, whose spinlock guards the key's
    writes. *)

val read_into : ?now:float -> t -> string -> buf:(int -> bytes) -> off:int -> int
(** [read_into t key ~buf ~off] copies the item's value into the buffer
    [buf len] at offset [off] and returns its length [len], or [-1] when
    the key is absent.  With [~now], an item whose TTL deadline is
    [<= now] is absent (lazy expiry) — its slot is reclaimed separately
    by {!expire} or {!expire_sweep}.

    The copy is an optimistic read: it is retried until no write to the
    item's bucket chain overlapped it, so [buf] may be called more than
    once, each time with the length of the version being copied.  The
    buffer returned by the last call holds one whole version of the
    value, and the result is that version's length.  [buf len] must
    return a buffer of at least [off + len] bytes; the caller may hand
    back the same reused buffer every time.  Each attempt reads [len]
    once, so a region that a concurrent write frees and reuses can make
    the attempt retry but never overrun the buffer. *)

val get : ?now:float -> t -> string -> bytes option
(** {!read_into} a fresh buffer of exactly the value's length. *)

val size_of : ?now:float -> t -> string -> int option
(** Size of the stored value without copying it.  This is the lookup a
    Minos small core performs to classify a GET as small or large (§3). *)

val put : ?expires_at:float -> t -> guard:guard -> string -> bytes -> unit
(** Insert or update; [~expires_at] attaches an absolute TTL deadline
    (default: never expires).  Raises {!Slab.Out_of_memory} if the value
    arena is exhausted. *)

val delete : t -> guard:guard -> string -> bool
(** Remove a key; [true] if it was present. *)

val expire : t -> guard:guard -> now:float -> string -> bool
(** Reclaim the key's slot iff its deadline is [<= now]; [true] if it was
    removed.  The read path calls this after a lazy-expiry miss. *)

val expire_sweep : t -> now:float -> int
(** Walk every slot and reclaim those whose deadline is [<= now]; returns
    the number removed.  Takes each partition's spinlock (the sweeper is
    not a partition master, so CREW does not cover it). *)

val mem : ?now:float -> t -> string -> bool

val ensure_ordered : t -> unit
(** Build (once) the sorted key index that {!scan} walks.  After this,
    every insert/remove also maintains the index.  Idempotent.

    The build reads every chain's keys under the chain's epoch, as a GET
    reads them, sorts them once and publishes one snapshot, all while
    holding the index lock.  Writers racing the build queue on that lock
    and apply their insert or remove after it, so the index ends up equal
    to the key set.  The build takes no partition lock. *)

val scan : ?now:float -> t -> start:string -> count:int -> (string -> int -> unit) -> int
(** [scan t ~start ~count f] visits up to [count] live items with key
    [>= start] in ascending key order, calling [f key value_size]; returns
    the number visited.  Skips items deleted or lapsed since the index
    snapshot.  Raises [Invalid_argument] unless {!ensure_ordered} ran. *)

type stats = {
  items : int;
  value_bytes : int;      (** bytes handed out by the slab (rounded to class) *)
  arena_bytes : int;      (** the slab arena's high-water mark: live or free *)
  overflow_buckets : int; (** dynamically chained buckets *)
  partitions : int;
  expired : int;          (** slots reclaimed by {!expire} / {!expire_sweep} *)
}

val stats : t -> stats

val iter : t -> (string -> int -> unit) -> unit
(** [iter t f] calls [f key value_size] for every item.  Not linearizable
    with respect to concurrent writes; intended for tests and tooling. *)
