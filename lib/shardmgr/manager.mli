(** Shard-manager control loop (DynamicCache's add/drop-replica
    algorithm): replicate a shard that runs hot for [k_up] consecutive
    latency windows, retire its most recent replica after [k_down] cold
    ones, with a cooldown after every decision so the manager cannot
    flap.

    {!decide} is a pure fold over a recorded per-window p99 series, so
    managed runs stay deterministic: a first membership-only pass
    records the series, {!decide_all} turns them into timed replica
    events, and the run is replayed with those events appended to the
    plan ({!Minos.Reshard} with a manager config). *)

type cfg = {
  hi_p99_us : float;  (** replicate when the window p99 exceeds this *)
  lo_p99_us : float;  (** retire a replica when it stays below this *)
  k_up : int;  (** consecutive hot windows before add-replica *)
  k_down : int;  (** consecutive cold windows before drop-replica *)
  cooldown_us : float;  (** freeze a shard's counters after a decision *)
  max_replicas : int;  (** replicas per shard, beyond the primary *)
}

val default : cfg
(** 50 µs hot / 10 µs cold, 2 up / 3 down, 20 ms cooldown, 1 replica. *)

val decide : cfg -> shard:int -> window_us:float -> (float * float) list -> Plan.event list
(** [decide c ~shard ~window_us series] folds one shard's
    [(window_start, p99)] series (time order) into timed
    [Add_replica] / [Drop_replica] events, each stamped at the end of
    the deciding window.  NaN windows (no samples) are skipped.  Raises
    [Invalid_argument] on an invalid config.  Production calls it
    through {!decide_all}; test_shardmgr checks one shard's decisions
    with it. *)

val decide_all : cfg -> window_us:float -> (float * float) list array -> Plan.event list
(** {!decide} over every base shard ([series.(s)] is shard [s]'s); the
    result is ready to append to the plan's events before a second
    {!Table.compile}. *)
