(** Consistent-hash ring with virtual nodes.

    Each server owns [vnodes] pseudo-random points on a ring of hash
    positions; a key is served by the owner of the first point at or
    after the key's own hashed position (wrapping around).  Virtual nodes
    smooth the load split: with 128 vnodes the heaviest shard carries
    within ~1.3× the mean key share (pinned by test/test_cluster.ml).

    The construction is a pure function of [(servers, vnodes, seed)] —
    no global state — so routing is deterministic, and {!remove} shows
    the defining property of consistent hashing: deleting one server
    moves only the keys that server owned. *)

type t

val create : ?vnodes:int -> ?seed:int -> servers:int -> unit -> t
(** [vnodes] defaults to 128, [seed] to 0.  [servers] must be >= 1.
    Equivalent to [of_members (List.init servers Fun.id)]. *)

val of_members : ?vnodes:int -> ?seed:int -> int list -> t
(** The ring over an explicit membership (arbitrary non-negative,
    distinct server ids).  A server's points are a pure function of
    [(seed, server, vnode)], independent of the other members — so
    [of_members (ms @ [s])] moves only keys that land on [s]'s new
    points, and [remove (of_members ms) s] routes identically to
    [of_members] over [ms] without [s] (pinned by qcheck in
    test/test_cluster.ml).  The elastic-resharding cutover protocol
    ({!Shardmgr}) relies on exactly these two properties. *)

val lookup : t -> int -> int
(** [lookup t h] is the server owning hash [h] (any non-negative int;
    it is re-mixed internally, so raw key ids are acceptable input). *)

val remove : t -> int -> t
(** [remove t s] is the ring without server [s]'s points (server ids keep
    their numbering).  Keys not owned by [s] keep their owner — the
    stability property {!lookup} inherits from the ring structure.
    Raises [Invalid_argument] when removing the last server. *)
