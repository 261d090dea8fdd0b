(** Segregated-fits slab allocator over a pre-allocated byte arena.

    Stands in for the DPDK memory manager / MICA segregated-fits allocator
    (§4.2): all value memory comes from one statically allocated region,
    carved into size classes with per-class free lists.  Classes are 16 B
    and then four per doubling (20, 24, 28, 32, 40, 48, ...), so a request
    above 16 B is rounded up by less than a quarter of its size.  A freed
    region is recycled by its class, or by a request of a smaller class
    down to half its capacity, so steady-state operation bump-allocates no
    new arena bytes. *)

type t

type region = private { off : int; cap : int; mutable len : int; mutable freed : bool }
(** A slice of the arena: [cap] bytes starting at [off], of which [len]
    currently hold data.  [freed] is set while the region sits on a free
    list. *)

exception Out_of_memory of int
(** Raised by {!alloc} when the arena cannot satisfy a request of the given
    size. *)

val create : capacity:int -> t
(** [create ~capacity] pre-allocates a [capacity]-byte arena.
    [min_class <= capacity] required. *)

val min_class : int
(** Smallest allocation class in bytes (16). *)

val class_of_size : int -> int
(** The class that a request of this many bytes is rounded up to:
    [min_class] up to 16 B, above it less than 1.25 times the request.
    Exposed for tests and occupancy accounting. *)

val alloc : t -> int -> region
(** [alloc t len] returns a region with [cap >= len] and [len] set.  It
    takes the first free region of the request's class or, failing that,
    of the next four classes (up to twice the class size); only when all
    five lists are empty does it bump-allocate a region of the class. *)

val free : t -> region -> unit
(** Return a region to the free list of its capacity's class.  Freeing a
    region that is already free is detected and raises
    [Invalid_argument]. *)

val write : t -> region -> bytes -> unit
(** [write t r b] copies [b] into the region and updates [r.len].  Raises
    [Invalid_argument] if [b] exceeds [r.cap]. *)

val blit_to : t -> region -> len:int -> bytes -> int -> unit
(** [blit_to t r ~len dst pos] copies the first [len] bytes of the region
    ([len <= r.cap]) into [dst] at [pos].  The caller passes the length it
    read, so a region rewritten meanwhile cannot change how much is
    copied. *)

val used_bytes : t -> int
(** Bytes currently handed out (sum of caps of live regions). *)

val arena_bytes : t -> int
(** The arena's high-water mark: bytes ever bump-allocated, live or on a
    free list.  This is the value memory a run has touched. *)

val capacity : t -> int

val live_regions : t -> int
