(** Configuration of the replicated tail-cutting cluster.

    Topology: [shards] primaries with [mirrors] full replicas each, laid
    out so replica [k] of shard [s] is server [k * shards + s] — the same
    ids {!Shardmgr.Table.compile} allocates when one [Add_replica] per
    shard (in shard order) opens the run.  Every server is a
    {!Kvserver.Engine} built from [server] running [design]; the
    engine's clock ([duration_us], [warmup_us]) is the cluster's, and its
    control epoch is also the period at which the router re-estimates
    the hedge delay and the width of the p99 reporting window. *)

type mode =
  | Off  (** one copy per GET, no backup *)
  | Hedged
      (** a backup copy goes to a different replica after the current
          delay quantile; first response wins, the loser is cancelled *)
  | Tied
      (** two copies enqueue immediately; when one starts service the
          other is cancelled from its queue (Dean's tied requests) *)

type route =
  | Spread  (** uniform seeded choice over the routable replica set *)
  | P2c
      (** power-of-two-choices: two seeded draws, pick the replica with
          the smaller outstanding-copy count *)

type t = {
  shards : int;
  mirrors : int;  (** replicas per shard beyond the primary *)
  mode : mode;
  route : route;
  hedge_delay_us : float;
      (** initial hedge delay, used until the first epoch window has
          enough completions to estimate the quantile *)
  hedge_quantile : float;
      (** completion-latency quantile tracked as the hedge delay
          (default 0.95: hedge after the windowed p95) *)
  min_delay_samples : int;
      (** completions an epoch window needs before it may move the
          delay *)
  detect_us : float option;
      (** failure-detector timeout: how long after a [kill-server]
          instant the router learns and fails pending copies over.
          [None] derives 15 % of the measured window — see
          {!detect_us}. *)
  budget_capacity : float;
      (** failover retry budget: token-bucket burst capacity.  A spend
          needs a whole token, so any value below 1.0 disables failover
          (every crash-stuck request is denied and fails). *)
  budget_earn_per_request : float;
      (** tokens earned per request issued (sustained failover rate) *)
  server : Kvserver.Config.t;  (** every server's engine configuration *)
  design : Kvserver.Design.t;  (** every server's design *)
}

val default : t
(** 4 shards x 1 mirror of {!Kvserver.Config.default} Minos servers,
    hedged, spread routing. *)

val servers : t -> int
(** [shards * (mirrors + 1)]. *)

val detect_us : t -> float
(** The effective failure-detector timeout: the configured value, or
    15 % of the server's [duration_us - warmup_us] when unset (a timeout
    that scales with the scenario keeps kill windows visible at any run
    scale). *)

val mode_name : mode -> string
val mode_of_name : string -> mode option
val route_name : route -> string
val route_of_name : string -> route option

val validate : t -> (unit, string) result
(** The router's own fields, then {!Kvserver.Config.validate} on
    [server]. *)
