(** Epoch-stamped routing table: a {!Plan} compiled against a concrete
    run (membership, workload, duration) into time intervals — epochs —
    with static routing inside each.

    Epoch boundaries are the protocol's state changes: drain start,
    dual-route start, each key group's staggered cutover instant,
    migration end, replica add/drop.  Within an epoch every routing
    decision is a pure function of (table, time, key), so a run under a
    fixed (seed, plan) is reproducible at any [MINOS_JOBS].

    During a membership change's dual phase, writes route to {e both}
    owners and reads prefer the new owner; a key group is served by the
    new owner alone once its cutover instant passes.  Replicas fan
    writes out to every mirror of the owning shard and spread reads
    deterministically by key hash.

    The query functions ({!routes_to}, {!rate_at}, {!next_change},
    {!epoch_at}) run inside the engines' per-request source filters:
    they are allocation-free (proved by [dune build @analyze]). *)

type t

(** Static routing outside a membership change: a consistent-hash ring
    over the members, or an explicit key-range map. *)
type policy = Hash | Range

(** What a range rebalance did, measured on the probe stream. *)
type rebalance_info = {
  imbalance_before : float;  (** max/mean shard share before re-cutting *)
  imbalance_after : float;
  moved_share : float;  (** fraction of probed traffic that changed shard *)
}

exception Range_membership of Plan.event
(** Raised by {!compile} when the plan adds or removes a server under
    [Range] routing: a key-range map has no ring to add a server to. *)

type kind = Drain_start | Dual_start | Cutover | Replica_add | Replica_drop

(** One protocol state change, for decision logs / traces / JSON. *)
type logged = {
  kind : kind;
  at : float;
  until : float;  (** window end for [Dual_start], nan for instants *)
  server : int;  (** joining/leaving server or replica id, [-1] if n/a *)
  shard : int;  (** replicated shard, or the cutover key group *)
  epoch : int;  (** routing epoch in force at [at] *)
}

val compile :
  ?policy:policy ->
  ?rebalance:bool ->
  ?vnodes:int ->
  ?groups:int ->
  ?seed:int ->
  servers:int ->
  workload:Workload.Spec.t ->
  dataset:Workload.Dataset.t ->
  duration_us:float ->
  offered_mops:float ->
  Plan.t ->
  t
(** Compile a validated plan.  [policy] ([Hash]) picks the static
    routing; [rebalance] (false) re-cuts a [Range] map from the probed
    per-bucket key load before anything else is measured (a [Hash] ring
    has no cut points: nothing moves, but the effect is still
    reported).  [vnodes] (128) sizes the consistent-hash ring,
    [groups] (8) the cutover key groups.  A seeded probe stream of 65536
    requests (seed [seed + 7919]) measures per-epoch shard shares, the
    rebalance weights and the per-group moving load.
    [servers] is the initial membership [0..servers-1]; each
    [add-server] / [add-replica] event allocates the next fresh id.
    Raises {!Range_membership} on an add/remove-server under [Range],
    and [Invalid_argument] on an invalid plan or an impossible step
    (removing a non-member or the last member, dropping a replica that
    does not exist, a migration window past [duration_us]). *)

(** {2 Hot-path queries (allocation-free)} *)

val epoch_at : t -> now:float -> int
(** The epoch in force at [now].  Outside this module only
    test_shardmgr calls it, to check the compiled schedule. *)

val routes_to : t -> now:float -> get:bool -> key:int -> int -> bool
(** Whether server [s] serves this request at [now]: the deterministic
    replica read target for a GET; any current write target for a PUT
    (both owners during dual-route, every replica of the owning
    shard). *)

val rate_at : t -> now:float -> int -> float
(** Server [s]'s offered rate (Mops) at [now] — [0.0] exactly when no
    probed traffic routes to it in this epoch (its engine parks). *)

val next_change : t -> now:float -> float
(** Start of the next epoch ([infinity] inside the last). *)

(** {2 Offline views (tests, {!Protocol}, reports)} *)

val policy : t -> policy

val rebalance_info : t -> rebalance_info option
(** [Some] exactly when compiled with [~rebalance:true]. *)

val n_servers : t -> int
(** Total engine count: base servers plus every plan-allocated id. *)

val dataset : t -> Workload.Dataset.t
val duration_us : t -> float
val epoch_count : t -> int
val epoch_start : t -> int -> float
val epoch_rates : t -> int -> float array
(** Per-server offered rates of one epoch.  Only test_shardmgr reads it,
    to check the compiled schedule. *)

val avg_rate : t -> int -> float
(** Time-weighted mean rate; exactly the common rate when constant
    across epochs (labels the engine's metrics). *)

val avg_share : t -> int -> float
(** Time-weighted mean traffic share; exactly the probed share when
    constant across epochs (feeds [Metrics.aggregate ~shard_share]). *)

val read_target : t -> epoch:int -> int -> int

val read_owner : t -> epoch:int -> int -> int
(** The owning primary a GET routes to before replica spread — the
    shard whose replica set ({!epoch_replicas}) serves the key.  Equals
    {!read_target} when the shard has no mirrors.  {!Protocol} uses it
    to fall back to the owner's other mirrors when the spread target is
    crashed. *)

val read_fallback : t -> epoch:int -> int -> int
(** The old-owner primary a migrating read falls back to on a store
    miss; the read target itself when the key is not mid-migration. *)

val write_targets : t -> epoch:int -> int -> int list

val cut_pending : t -> epoch:int -> int -> bool
(** The key is mid-migration with its group's cutover still ahead (the
    old owner is still authoritative); the boundary where this turns
    false is the key's backlog transfer point. *)

val epoch_replicas : t -> int -> int array array
(** A copy of the per-shard write-target sets (each includes the shard
    itself) in epoch [i]. *)

val events : t -> logged list
(** Chronological protocol state changes. *)

val migration_windows : t -> (float * float) list
(** [(start, end)] of each membership change, chronological. *)
