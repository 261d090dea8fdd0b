(** A sorted key index: the ordered view that backs SCAN.

    The store's hash table gives O(1) point lookups but no key order; this
    side index keeps the live key set in a balanced set so range reads can
    walk keys in lexicographic order.  Writers mutate under a spinlock and
    publish a fresh immutable snapshot; readers iterate snapshots without
    locking, so scans never block writers (and are not linearizable with
    respect to them — a scan may miss keys inserted after it started). *)

type t

val create : unit -> t
(** An index that is off: {!add} and {!remove} do nothing and
    {!iter_from} walks nothing until {!build}. *)

val build : t -> (unit -> string list) -> unit
(** [build t keys] switches the index on and returns once its snapshot
    is published.  The first call takes the index lock, marks the index
    maintained, calls [keys ()], and publishes the set of the returned
    keys as one snapshot: it sorts them in an array and joins sorted
    halves, leaving little garbage beyond the set itself.

    Writers maintain the index from the moment it is marked, so {!add}
    and {!remove} calls that race the build wait on the lock and apply
    after it; a writer that finds the index still off must have finished
    its write before [keys] was called.  A later [build] returns at once
    when the snapshot is published, and otherwise waits on the lock for
    the build in flight.  [keys] must not take a lock that a writer
    holds while it calls {!add} or {!remove}. *)

val maintained : t -> bool
(** Whether writers maintain the index: true from the moment the first
    {!build} marks it, before its snapshot is published. *)

val add : t -> string -> unit

val remove : t -> string -> unit

val iter_from : t -> start:string -> (string -> bool) -> unit
(** [iter_from t ~start f] applies [f] to every key [>= start] of the
    published snapshot in ascending order, stopping early when [f]
    returns [false].  Before {!build} has published one, it applies [f]
    to nothing. *)
