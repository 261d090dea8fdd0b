(** Segregated-fits slab allocator over a pre-allocated byte arena.

    Stands in for the DPDK memory manager / MICA segregated-fits allocator
    (§4.2): all item memory comes from one statically allocated region,
    carved into size classes with per-class free lists.  Classes are 16 B
    and then four per doubling (20, 24, 28, 32, 40, 48, ...), so a request
    above 16 B is rounded up by less than a quarter of its size.  A freed
    region is recycled by its class, or by a request of a smaller class
    down to half its capacity, so steady-state operation bump-allocates no
    new arena bytes.

    A region is named by its offset in the arena.  Its first
    {!header_bytes} byte belongs to the slab: the region's class number,
    with a free mark set while the region sits on a free list.  The free
    lists are threaded through the arena (a free region holds its
    successor's offset at [off + 8]), with one int head per class, so
    {!alloc} and {!free} allocate nothing on the OCaml heap. *)

type t

exception Out_of_memory of int
(** Raised by {!alloc} when the arena cannot satisfy a request of the given
    size. *)

val create : capacity:int -> t
(** [create ~capacity] pre-allocates a [capacity]-byte arena.
    [min_class <= capacity <= 2^35] required. *)

val min_class : int
(** Smallest allocation class in bytes (16). *)

val header_bytes : int
(** Bytes at the start of every region that the slab owns (1: the class
    byte).  The caller owns [[off + header_bytes, off + region_bytes)]. *)

val class_of_size : int -> int
(** The class that a request of this many bytes is rounded up to:
    [min_class] up to 16 B, above it less than 1.25 times the request.
    Exposed for tests and occupancy accounting. *)

val alloc : t -> int -> int
(** [alloc t len] returns the offset of a region of at least [len] bytes,
    the slab's header included.  It takes the first free region of the
    request's class or, failing that, of the next four classes (up to
    twice the class size); only when all five lists are empty does it
    bump-allocate a region of the class. *)

val free : t -> int -> unit
(** Return the region at this offset to the free list of its class.
    Freeing a region that is already free is detected and raises
    [Invalid_argument]. *)

val region_bytes : t -> int -> int
(** The capacity of the region at this offset: its class size. *)

val write : t -> int -> pos:int -> bytes -> unit
(** [write t off ~pos b] copies [b] into the region at [off], starting
    [pos] bytes into it.  Raises [Invalid_argument] if the copy would
    touch the slab's header or run past the region. *)

val arena : t -> bytes
(** The arena itself, for callers that read their regions in place. *)

val used_bytes : t -> int
(** Bytes currently handed out (sum of the classes of live regions). *)

val arena_bytes : t -> int
(** The arena's high-water mark: bytes ever bump-allocated, live or on a
    free list.  This is the item memory a run has touched. *)

val capacity : t -> int

val live_regions : t -> int
