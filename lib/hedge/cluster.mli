(** Replica-aware tail-cutting over a replicated shard cluster.

    Every server is a real {!Kvserver.Engine} running the configured
    {!Kvserver.Design} ({!Config.t}[.design]) — its own control loop,
    handoff queues, NIC and TX model — and all of them share one
    discrete-event simulation, because hedged and tied requests race
    copies {e across} replicas.  This module is only the replica router
    in front of them: it draws the request stream, submits copies to
    engines ({!Kvserver.Engine.submit}), learns when a copy starts
    service (the engine's probe) and how it ended (its retire callback),
    and cancels losers ({!Kvserver.Engine.cancel}).  Hedge timers are
    O(1) kernel timers ({!Dsim.Sim.schedule_timer_after}/{!Dsim.Sim.cancel}).

    Faults: the cluster consumes a {!Fault.Plan} through one seeded
    injector shared by every engine (so a [core-stall] window stalls that
    core index on every server).  [Kill_server]/[Recover_server] crash
    and restart whole servers:

    - From the kill instant the engine bounces every arrival off its
      dead NIC.  The router writes off every copy the server still held
      (queued or in service) as [net_dropped] and cancels it in the
      engine, which drains them unserved.  Requests that lost their
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
    - At recovery the server is immediately routable again; its engine
      keeps its control-loop state across the crash.

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
(** Build the engines and the router, start every engine, and schedule
    the first arrival, the hedge-delay epoch ticks and the plan's
    kill/recover/detect instants.  Raises [Invalid_argument] on an
    invalid config or plan. *)

val metrics : t -> Metrics.t
(** Snapshot the accounting (including [in_flight_end] as of now) and
    every engine's report ({!Kvserver.Engine.finish}). *)

val set_log : t -> Obs.Decision_log.t -> unit
(** Record the router's decisions — each server kill and recovery, each
    hedge-delay re-estimate ({!Obs.Decision_log.record_hedge}) — for
    Chrome traces. *)

val sim : t -> Dsim.Sim.t

(** {2 Test probes}

    Only test_hedge calls these: they read the router's state in the
    middle of a run, which {!metrics} does not report. *)

val servers : t -> int

val pick_replica : t -> shard:int -> exclude:int -> int
(** Run the configured routing policy once (consumes routing-RNG draws);
    [-1] when no replica of [shard] is routable.  [exclude] removes one
    server from the candidate set ([-1] for none). *)

val routable_snapshot : t -> bool array
val alive_snapshot : t -> bool array
