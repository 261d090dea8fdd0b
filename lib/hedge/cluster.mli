(** Replica-aware tail-cutting over a replicated shard cluster.

    One discrete-event simulation covers every server — unlike
    {!Shardmgr.Run}, whose engines each own a private clock — because
    hedged and tied requests race copies {e across} replicas and cancel
    the loser through the kernel's O(1) timer handles
    ({!Dsim.Sim.schedule_timer_after}/{!Dsim.Sim.cancel}).

    The server model is deliberately smaller than {!Kvserver.Engine}
    (per-core FIFO queues + {!Kvserver.Cost_model} service times; either
    a static size-aware core split or keyhash dispatch): the quantity
    under study is the {e routing layer} — replica spread,
    power-of-two-choices, hedges, ties, crash failover — against the
    single-server size-aware story, not the engine internals measured
    elsewhere.

    Faults: the cluster consumes a {!Fault.Plan} through its own seeded
    injector.  [Core_stall] windows apply to global core
    [server * cores + core]; [Kill_server]/[Recover_server] crash and
    restart whole servers:

    - At the kill instant the server's in-service completions are
      cancelled (O(1) handles), its queues are wiped, and every copy it
      held is counted [net_dropped].  Requests that lost their
      completing leg park on the server's stuck list.
    - The router only learns at [kill + detect_us]
      ({!Config.detect_us}): until then the dead replica still looks
      routable — arrivals bounce off the dead NIC and wait — which is
      exactly why unhedged tails degrade by the detector timeout while
      hedged requests race past after one hedge delay.
    - At detection the replica is marked unroutable and every stuck
      request fails over to a survivor, spending one retry-budget token
      ({!Proto.Retry.Budget}); an empty bucket fails the request
      ([budget_exhausted]).
    - At recovery the server restarts empty and is immediately routable.

    Determinism: all randomness comes from streams forked off the one
    simulation RNG plus the injector's private stream, so a fixed
    [(config, dataset, plan, seed)] reproduces byte-identical metrics at
    any [MINOS_JOBS]. *)

type t

val create :
  Config.t ->
  dataset:Workload.Dataset.t ->
  offered_mops:float ->
  ?plan:Fault.Plan.t ->
  seed:int ->
  unit ->
  t
(** Build the cluster and schedule the first arrival, the epoch ticks
    and the plan's kill/recover/detect instants.  Raises
    [Invalid_argument] on an invalid config or plan. *)

val run :
  Config.t ->
  dataset:Workload.Dataset.t ->
  offered_mops:float ->
  ?plan:Fault.Plan.t ->
  seed:int ->
  unit ->
  Metrics.t
(** [create] + drive the simulation to [duration_us] + {!metrics}. *)

val metrics : t -> Metrics.t
(** Snapshot the accounting (including [in_flight_end] as of now). *)

val set_hooks :
  t ->
  ?on_kill:(float -> int -> unit) ->
  ?on_detect:(float -> int -> unit) ->
  ?on_recover:(float -> int -> unit) ->
  ?on_delay:(float -> float -> unit) ->
  unit ->
  unit
(** Cold observation hooks for the decision log / Chrome traces:
    [(time, server)] at kill/detect/recover, [(time, new delay)] when an
    epoch re-estimates the hedge delay. *)

val sim : t -> Dsim.Sim.t

val servers : t -> int

(** {2 Test probes} *)

val hedge_delay_us : t -> float
(** The delay the next hedge timer will use. *)

val pick_replica : t -> shard:int -> exclude:int -> int
(** Run the configured routing policy once (consumes routing-RNG draws);
    [-1] when no replica of [shard] is routable.  [exclude] removes one
    server from the candidate set ([-1] for none). *)

val routable_snapshot : t -> bool array
val alive_snapshot : t -> bool array

val load_snapshot : t -> int array
(** Outstanding copies per server (the p2c signal). *)
