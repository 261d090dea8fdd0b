(** Bounded lock-free multi-producer/multi-consumer ring.

    Stands in for the DPDK rte_ring that Minos uses to dispatch large
    requests from small cores to large cores (§4.1).  The implementation is
    Vyukov's bounded MPMC queue: each slot carries a sequence number that
    encodes whether it is ready for a producer or a consumer, so both ends
    make progress with one CAS each and no locks.

    Slots store values behind a private sentinel (no ['a option] box), so
    [try_push] allocates nothing and [pop_exn] allocates nothing; only
    [try_pop] allocates its [Some] result.

    Memory-model contract (OCaml 5, see DESIGN.md §8): a producer's plain
    write to the slot is published by the release [Atomic.set] of the slot
    sequence number, and a consumer's acquire [Atomic.get] of that sequence
    number happens-before its plain read of the slot.  The interleaving
    model checker in lib/check verifies this ordering exhaustively on small
    histories via [Make].

    Safe for use from multiple OCaml domains. *)

exception Empty

(** Operations provided by every instantiation. *)
module type S = sig
  type 'a t

  val create : capacity:int -> 'a t
  (** [capacity] must be a power of two, >= 2. *)

  val try_push : 'a t -> 'a -> bool
  (** [false] when the ring is full.  Does not allocate. *)

  val try_pop : 'a t -> 'a option
  (** [None] when the ring is empty.  Allocates the [Some] on success. *)

  val pop_exn : 'a t -> 'a
  (** Like [try_pop] but raises {!Empty} when the ring is empty; does not
      allocate.  Preferred in polling hot loops. *)

  val length : 'a t -> int
  (** Occupancy estimate, always within [\[0, capacity\]].  [head] and
      [tail] are two separate atomic reads, not one atomic pair, so under
      concurrent pushes/pops the result is only a snapshot: it is exact
      when the ring is quiescent and otherwise reflects some state the
      ring passed through near the two reads.  The raw [tail - head]
      difference can transiently fall outside [\[0, capacity\]] (a pop's
      head CAS can land between the two reads); the result is clamped so
      callers never observe a negative or over-capacity length. *)

  val is_empty : 'a t -> bool
  (** [length t = 0]; the same snapshot semantics as {!length}. *)
end

(** The ring over an explicit atomics implementation.  The model checker
    instantiates this with traced atomics; production uses the specialized
    default below (same algorithm, hand-instantiated on [Stdlib.Atomic] so
    the hot path pays no functor indirection — see test_netsim.ml's
    equivalence property guarding the two against drift). *)
module Make (_ : Atomic_ops.S) : S

include S
