(** Reshard plans: timed elastic-reconfiguration events.

    The textual format follows {!Fault.Plan}: one [keyword key=value ...]
    event per line, ['#'] comments, an optional [plan NAME] header.
    Times are microseconds of simulated time.

    {v
    plan add-remove
    add-server at=55000 drain=5000 dual=20000
    remove-server server=1 at=90000 drain=3000 dual=15000
    add-replica shard=0 at=60000
    drop-replica shard=0 at=100000
    v}

    A membership change ([add-server] / [remove-server]) owns a
    three-phase migration window starting at [at]: [drain] µs during
    which moving keys are still served by their old owner only, then
    [dual] µs of dual-routing (writes to both owners, reads prefer the
    new owner), with each key group cutting over at a staggered instant
    inside the dual phase, after which the new owner serves alone.
    [drain] defaults to 2000, [dual] to 10000.  Replica events are
    instants: [add-replica] mirrors shard [shard] onto a fresh server,
    [drop-replica] retires that shard's most recent replica. *)

type event =
  | Add_server of { at_us : float; drain_us : float; dual_us : float }
      (** a fresh server (next unused id) joins the ring at [at_us] *)
  | Remove_server of {
      server : int;
      at_us : float;
      drain_us : float;
      dual_us : float;
    }
  | Add_replica of { shard : int; at_us : float }
  | Drop_replica of { shard : int; at_us : float }

type t = { name : string; events : event list }

val empty : t
(** The no-op plan: a run under it is byte-identical to a static-ring
    cluster run (pinned by test/test_shardmgr.ml). *)

val at_us : event -> float

val validate : t -> (unit, string) result
(** Event fields well-formed and migration windows pairwise disjoint
    (the routing table handles one membership change at a time). *)

val canned_names : string list

val canned : string -> warmup_us:float -> duration_us:float -> t option
(** Built-in scenarios with event times placed as fractions of the
    measurement window: ["noop"], ["add-remove"] (a server joins early,
    server 1 leaves later), ["replica-cycle"]. *)

val of_string : ?name:string -> string -> (t, string) result
(** Parse the format above.  A key the event does not take, or a key
    given twice, is an error naming it.  The result is validated.
    Production reads plans through {!of_file}; the tests call this parser
    directly, and fuzz it. *)

val of_file : string -> (t, string) result

val to_string : t -> string
(** Round-trips through {!of_string}, every float exactly.  Only the
    tests call it, to check that round trip. *)
