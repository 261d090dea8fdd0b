(** The hedging policy: how the replica router spends a shard's
    replicas.  The topology (which servers hold which keys) is the run's
    {!Shardmgr.Table}, and the servers' engine configuration and design
    are {!Shardmgr.Run.run}'s; the hedge delay is re-estimated every
    server control epoch. *)

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
}

val default : t
(** Hedged at the windowed p95, spread routing. *)

val detect_us : t -> Kvserver.Config.t -> float
(** The effective failure-detector timeout: the configured value, or
    15 % of the server's [duration_us - warmup_us] when unset (a timeout
    that scales with the scenario keeps kill windows visible at any run
    scale). *)

val mode_name : mode -> string
val route_name : route -> string

val validate : t -> (unit, string) result
(** Every field in range.  The server configuration is checked where the
    engines are built ({!Kvserver.Engine.attach}). *)
