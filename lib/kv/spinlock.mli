(** Test-and-test-and-set spinlock.

    Guards the store's writes, one lock per partition.  The paper takes it
    only for keys mastered by large cores (§4.2); in the native server any
    worker may write any key, so CREW's lock-free write path does not
    apply and every write locks.  Critical sections are short and spread
    over the partitions, so a spinlock beats a mutex.

    Memory-model contract (OCaml 5, see DESIGN.md §8): [lock]'s successful
    [Atomic.exchange] is an acquire, [unlock]'s [Atomic.set] a release, so
    plain accesses inside the critical section cannot leak outside it.
    The interleaving model checker in lib/check verifies mutual exclusion
    exhaustively via [Make]. *)

(** Operations provided by every instantiation. *)
module type S = sig
  type t

  val create : unit -> t

  val try_lock : t -> bool

  val lock : t -> unit
  (** Spins (with [cpu_relax]) until acquired. *)

  val unlock : t -> unit

  val with_lock : t -> (unit -> 'a) -> 'a
  (** Runs the thunk under the lock; always releases, even on exception. *)
end

(** The spinlock over an explicit atomics implementation, for the model
    checker.  Production uses the specialized default below (same
    algorithm on [Stdlib.Atomic], no functor indirection). *)
module Make (_ : Atomic_ops.S) : S

include S
