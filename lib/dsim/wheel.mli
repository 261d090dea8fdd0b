(** Hierarchical timing wheel keyed by [(float, int)] — the event queue of
    the simulator.

    Same total order as {!Heap} — compare by time, break ties by a
    monotonically increasing sequence number — so swapping the wheel in
    for the heap keeps every simulation bit-identical.  The difference is
    the cost profile: nearly all simulator events are near-future
    (service/TX completions within a few hundred µs), and for those the
    wheel does O(1) enqueue and amortized-O(1) dequeue instead of the
    heap's O(log n), independent of occupancy.

    Layout: two 256-slot wheel levels at 0.25 µs and 256×0.25 µs per
    slot respectively, plus a
    far-future fallback heap for events beyond the ~16.4 ms horizon (and
    for times too large to convert to an integer tick).  Slots hold
    intrusive singly-linked chains through a preallocated arena of
    parallel arrays (float times, int seqs/tags/operands, values), so
    steady-state [add]/[pop] allocate nothing.  Slot residency follows the
    tick-match discipline: a chain entry is only *ready* when the cursor's
    tick equals the entry's own tick, which makes wrap-around collisions —
    and even cursor rollback after {!clear}-free time travel — safe.

    Events due at the current cursor tick are collected into a small
    ready-run, insertion-sorted by [(time, seq)]; late arrivals for the
    same tick append to the run and mark it for re-sort, preserving the
    exact heap order even for same-timestamp ties.

    Two payload forms share the arena: a closure ([add]/[pop], the cold
    escape hatch) and a typed call — tag plus two int operands — that the
    simulator dispatches through a handler table without allocating
    ([add_call]/[add_timer], read via [min_tag]/[min_i]/[min_j], consumed
    with [drop]).  [add_timer] returns an O(1) cancellation {!handle}
    (lazy deletion; ABA-guarded by packing the sequence number into the
    handle). *)

type 'a t

type handle = int
(** Cancellation handle for an event added with {!add_timer}.  Packs the
    arena slot and the event's sequence number, so a stale handle (slot
    reused by a later event) is rejected by {!cancel}. *)

val create : dummy:'a -> unit -> 'a t
(** [create ~dummy ()] makes an empty wheel.  Events closer together than
    the level-0 slot width (0.25 µs) still pop in exact [(time, seq)]
    order — the width affects only bucketing cost, never ordering.
    [dummy] fills unused value slots (and typed-event slots) so
    popped/cancelled values are collectable. *)

val length : 'a t -> int
(** Number of pending (non-cancelled) events.  O(1). *)

val is_empty : 'a t -> bool

val capacity : 'a t -> int
(** Current arena capacity.  Only test_wheel reads it, to check that
    cancelled slots are reclaimed rather than regrown. *)

val add : 'a t -> time:float -> seq:int -> 'a -> unit
(** Insert a closure-payload event.  O(1) amortized; allocates only when
    the arena grows. *)

val add_call : 'a t -> time:float -> seq:int -> tag:int -> i:int -> j:int -> unit
(** Insert a typed event: [tag >= 0] names a handler, [i]/[j] are its
    operands.  The value slot stays [dummy]; consume with {!drop} after
    reading {!min_tag}/{!min_i}/{!min_j}.  O(1) amortized, allocation-free
    in steady state. *)

val add_timer : 'a t -> time:float -> seq:int -> tag:int -> i:int -> j:int -> handle
(** Like {!add_call} but returns a {!handle} for O(1) cancellation.
    Requires [seq >= 0] (the handle packs the sequence number). *)

val cancel : 'a t -> handle -> bool
(** Cancel the event behind [handle].  Returns [false] if it already
    popped, was already cancelled, or the handle is stale.  O(1): the
    event is marked dead and its slot is reclaimed lazily when the cursor
    next encounters it. *)

val min_time : 'a t -> float
(** Time key of the minimum pending event.  Amortized O(1).
    @raise Invalid_argument on an empty wheel. *)

val min_seq : 'a t -> int
(** Sequence key of the minimum pending event.  The event loop reads the
    head through the unchecked accessors below; this and the other
    checked [min_*] accessors are what test_wheel's wheel≡heap
    differential compares.
    @raise Invalid_argument on an empty wheel. *)

val min_tag : 'a t -> int
(** Tag of the minimum pending event; [-1] for closure-payload events.
    @raise Invalid_argument on an empty wheel. *)

val min_i : 'a t -> int

val pop : 'a t -> 'a
(** Remove the minimum event and return its value ([dummy] for typed
    events — use {!drop} for those).  The event loop uses {!pop_head};
    only test_wheel calls this checked form.  Amortized O(1) for near-future
    events; O(log far) when serving from the far-future heap.
    @raise Invalid_argument on an empty wheel. *)

val drop : 'a t -> unit
(** Remove the minimum event without reading its value.  Same cost as
    {!pop}.
    @raise Invalid_argument on an empty wheel. *)

(** {2 Unchecked head access}

    Fast-path variants for the event loop: valid only between a call to
    {!min_time} (which locates and caches the minimum) and the next
    mutation of the wheel.  They skip the emptiness and cache-validity
    checks that every [min_*]/{!pop}/{!drop} call repeats, so a dispatch
    that reads several head fields pays for the lookup once. *)

val head_tag : 'a t -> int

val head_i : 'a t -> int

val head_j : 'a t -> int

val pop_head : 'a t -> 'a
(** Remove the (already located) head and return its value. *)

val drop_head : 'a t -> unit
(** Remove the (already located) head without reading its value. *)

val clear : 'a t -> unit
(** Remove all events (including lazily cancelled ones) and rewind the
    cursor to time zero.  The arena and slot arrays are retained; value
    slots are reset to [dummy], so nothing stays reachable.  Only
    test_wheel calls it, to check the rewound cursor and released
    values. *)
