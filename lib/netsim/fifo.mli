(** Unbounded FIFO with occupancy statistics.

    The simulator's model of an RX queue or software queue: ordering and
    occupancy are what matter for queueing behaviour; the real lock-free
    counterpart is {!Ring}.  Tracks total enqueues and the high-water mark
    so experiments can report queue depths.

    Implemented as a growable circular buffer over a flat array:
    steady-state {!push}/{!pop_exn} allocate nothing.  [dummy] fills
    vacated slots so popped values are not retained by the queue. *)

type 'a t

val create : dummy:'a -> unit -> 'a t

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Allocates the [Some]; prefer {!is_empty} + {!pop_exn} on hot paths. *)

val pop_exn : 'a t -> 'a
(** Raises [Invalid_argument] if empty. *)

val peek : 'a t -> 'a option

val peek_exn : 'a t -> 'a
(** Raises [Invalid_argument] if empty. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val total_enqueued : 'a t -> int
(** Cumulative pushes since creation. *)

val max_occupancy : 'a t -> int
(** High-water mark of {!length}. *)
