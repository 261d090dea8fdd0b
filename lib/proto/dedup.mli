(** At-most-once execution of retransmitted requests.

    §4.1: "Retransmission is handled by the client.  [Minos] does not
    support exactly-once semantics and assumes idempotent operations.
    Guaranteeing exactly-once semantics can be achieved by means of
    request identifiers."  This module is that mechanism: a bounded reply
    cache keyed by request id.  When a retransmitted request arrives, the
    cached reply is returned instead of re-executing the operation.

    Eviction is FIFO over a fixed capacity: the cache need only hold
    replies for as long as a client may retransmit, which is bounded by
    the client's retry budget ({!Retry}). *)

type 'reply t

val create : ?capacity:int -> unit -> 'reply t
(** [capacity] bounds the number of cached replies (default 65536). *)

val execute : 'reply t -> id:int64 -> (unit -> 'reply) -> 'reply * [ `Fresh | `Replayed ]
(** [execute t ~id f] runs [f] and caches its reply if [id] is new;
    otherwise returns the cached reply without running [f]. *)

val find : 'reply t -> int64 -> 'reply option

val mem : 'reply t -> int64 -> bool
(** Only test_exactly_once calls it, to check which ids eviction kept. *)

val size : 'reply t -> int
(** Only test_exactly_once calls it, to check that the cache stays
    bounded. *)
