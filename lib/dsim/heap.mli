(** Array-based binary min-heap keyed by [(float, int)].

    The event queue of the simulator.  Keys are compared first by the float
    component (event time) and then by the int component (a monotonically
    increasing sequence number), which makes the ordering total and the
    simulation deterministic even when many events share a timestamp.

    The heap is stored as three parallel arrays (unboxed [float] times,
    [int] seqs, values), so [add] and the non-optional accessors below are
    allocation-free in steady state — the event loop of {!Sim} runs without
    producing minor garbage per event. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [create ~dummy ()] makes an empty heap.  [dummy] fills unused value
    slots so that popped/cleared values become collectable immediately; it
    is never returned by any accessor. *)

val length : 'a t -> int
(** Only the tests read it: test_wheel compares it with the wheel's
    length in the wheel≡heap differential. *)

val is_empty : 'a t -> bool

val capacity : 'a t -> int
(** Current backing-array capacity.  Only test_dsim reads it, to check
    that steady-state use and {!clear} never regrow the arrays. *)

val add : 'a t -> time:float -> seq:int -> 'a -> unit
(** Insert an element.  O(log n); allocates only when the heap grows. *)

val min_time : 'a t -> float
(** Time key of the minimum element.  O(1).
    @raise Invalid_argument on an empty heap. *)

val min_seq : 'a t -> int
(** Sequence key of the minimum element.  O(1).  Only the tests read it:
    test_wheel's wheel≡heap differential compares it with the wheel's.
    @raise Invalid_argument on an empty heap. *)

val min_value : 'a t -> 'a
(** Value of the minimum element without removing it.  O(1).
    @raise Invalid_argument on an empty heap. *)

val pop : 'a t -> 'a
(** Remove the minimum element and return its value, without materializing
    a tuple.  Read {!min_time} first if the key is needed.  O(log n).
    @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit
(** Remove all elements.  The backing arrays (capacity) are retained so a
    reused heap does not re-grow from scratch; value slots are reset to
    [dummy], so no previously stored value stays reachable. *)
