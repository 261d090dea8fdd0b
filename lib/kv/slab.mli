(** Segregated-fits slab allocator over a pre-allocated byte arena.

    Stands in for the DPDK memory manager / MICA segregated-fits allocator
    (§4.2): all value memory comes from one statically allocated region,
    carved into power-of-two size classes with per-class free lists.  A
    freed region is recycled by its class, so steady-state operation does
    no OCaml allocation on the value path. *)

type t

type region = private { off : int; cap : int; mutable len : int }
(** A slice of the arena: [cap] bytes starting at [off], of which [len]
    currently hold data. *)

exception Out_of_memory of int
(** Raised by {!alloc} when the arena cannot satisfy a request of the given
    size. *)

val create : capacity:int -> t
(** [create ~capacity] pre-allocates a [capacity]-byte arena.
    [min_class <= capacity] required. *)

val min_class : int
(** Smallest allocation class in bytes (16). *)

val class_of_size : int -> int
(** The power-of-two class that a request of this many bytes is rounded up
    to.  Exposed for tests and occupancy accounting. *)

val alloc : t -> int -> region
(** [alloc t len] returns a region with [cap >= len] and [len] set.
    O(1) when the class free list is non-empty, otherwise bump-allocates. *)

val free : t -> region -> unit
(** Return a region to its class free list.  Freeing twice is detected and
    raises [Invalid_argument]. *)

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

val capacity : t -> int

val live_regions : t -> int
