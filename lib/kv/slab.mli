(** Exact-fit allocator over a pre-allocated byte arena: two-level
    segregated fit (TLSF; Masmano et al., ECRTS 2004).

    Stands in for the DPDK memory manager / MICA segregated-fits allocator
    (§4.2): all item memory comes from one statically allocated region.
    A request is rounded up to a multiple of 8 bytes (16 B at least) and
    gets a block of exactly that size, or 8 B more when the free block it
    came from leaves too little to split off.

    A block is named by its offset in the arena.  Its first
    {!header_bytes} bytes belong to the slab: the block's size, a free
    flag and a flag saying the block before it is free.  A free block
    also holds its two free-list links and, in its last word, its size
    (a boundary tag), so {!free} merges it with a free neighbour on
    either side.  Free blocks sit on lists by size: below 256 B one list
    per 8 B, above it 32 lists per power of two.  Two bitmaps, over the
    powers of two and over each power's lists, find the first list that
    can serve a request in O(1); {!alloc} splits the block it takes and
    returns the rest to its list.

    Fresh blocks are carved from the arena's tail, so an insert-only load
    touches exactly the sum of its block sizes; freeing the block next to
    the tail lowers the tail instead of listing the block.  Everything
    lives in the arena or in a few int arrays made at {!create}, so
    {!alloc} and {!free} allocate nothing on the OCaml heap. *)

type t

exception Out_of_memory of int
(** Raised by {!alloc} when the arena cannot satisfy a request of the given
    size. *)

val create : capacity:int -> t
(** [create ~capacity] pre-allocates a [capacity]-byte arena.
    [16 <= capacity <= 2^32] required. *)

val header_bytes : int
(** Bytes at the start of every block that the slab owns (4: the size
    word).  The caller owns [[off + header_bytes, off + region_bytes)].
    Only test_kv reads it; the store lays its item header out after
    these bytes. *)

val alloc : t -> int -> int
(** [alloc t len] returns the offset of a block of at least [len] bytes,
    the slab's header included: [len] rounded up to 8 B (16 B at least),
    or 8 B more.  It takes the first block of the first free list whose
    sizes all fit (or the head of the request's own list, if that block
    fits) and splits off the rest; with no such block it carves one from
    the tail.  Raises [Invalid_argument] for a negative [len]. *)

val free : t -> int -> unit
(** Return the block at this offset, merged with its free neighbours, to
    its free list, or to the tail if it ends there.  Freeing a block that
    is already free, or an offset at or past the tail, raises
    [Invalid_argument]. *)

val region_bytes : t -> int -> int
(** The size of the block at this offset.  For tests: test_kv checks each
    block's size against the fit rule with it. *)

val write : t -> int -> pos:int -> bytes -> unit
(** [write t off ~pos b] copies [b] into the block at [off], starting
    [pos] bytes into it.  Raises [Invalid_argument] if the copy would
    touch the slab's header or run past the block. *)

val arena : t -> bytes
(** The arena itself, for callers that read their blocks in place. *)

val used_bytes : t -> int
(** Bytes in live blocks. *)

val arena_bytes : t -> int
(** The tail: bytes under live and free blocks, [used_bytes] plus
    {!free_bytes}. *)

val peak_bytes : t -> int
(** The highest the tail has been: the item memory a run has touched. *)

val live_regions : t -> int
(** Blocks allocated and not freed.  For tests: test_kv's allocator
    invariants read it. *)

val fold_blocks : t -> (int -> int -> bool -> 'a -> 'a) -> 'a -> 'a
(** [fold_blocks t f acc] folds [f off size is_free] over the blocks
    below the tail in address order.  For tests: test_kv's allocator
    invariants (disjoint blocks, no two adjacent free) walk the arena
    with it. *)

val free_bytes : t -> int
(** Bytes in blocks on the free lists, summed by walking the lists.  For
    tests: test_kv checks it against the blocks {!fold_blocks} sees. *)
