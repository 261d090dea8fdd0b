(** The replica router: hedged and tied requests over a replicated
    {!Shardmgr.Table}, with crash failover.

    It runs inside {!Shardmgr.Run.run}'s replicated-table case, which
    owns the shared simulation, the caller-fed engines, the Poisson
    arrivals and the fault plan's crash instants.  The router is only
    the policy in front of the engines: it routes each request to the
    replica set of its key's {!Shardmgr.Table.read_owner} (writes to
    every routable member, so a table with a membership change is
    refused), submits copies ({!Kvserver.Engine.submit}), learns when a
    copy starts service (the engine's probe) and how it ended (its
    retire callback), and cancels losers ({!Kvserver.Engine.cancel}).
    Hedge timers are O(1) kernel timers.

    Crashes reach it as three calls:

    - [kill]: the engine already bounces every arrival off its dead NIC.
      The router writes off every copy the server still held as
      [net_dropped] and cancels it in the engine; requests that lost
      their completing leg park on the server's stuck list.
    - [detect], [detect_us] later ({!Config.detect_us}): until then the
      dead replica still looks routable and arrivals bounce — why
      unhedged tails degrade by the detector timeout while hedged
      requests race past after one hedge delay.  The replica turns
      unroutable, and every stuck request fails over to a survivor,
      spending one {!Proto.Retry.Budget} token (an empty bucket fails
      it: [budget_exhausted]).
    - [recover]: the server is routable again; its engine keeps its
      control-loop state across the crash.

    The router's randomness is one stream forked off the shared
    simulation. *)

type t

val run :
  Config.t ->
  ?fault:Fault.Plan.t ->
  ?setup:(t -> unit) ->
  seed:int ->
  server:Kvserver.Config.t ->
  design:Kvserver.Design.t ->
  workload:Workload.Spec.t ->
  Shardmgr.Table.t ->
  Metrics.t * Shardmgr.Run.t
(** One hedged run over the table: {!Shardmgr.Run.run} with this router
    installed on its engines, every engine built from [server] running
    [design].  [setup] sees the router before the first arrival.
    Returns the router's accounting and the run (each engine's report,
    and the table's key-conservation audit under [fault]).  Raises
    [Invalid_argument] on an invalid config or a table with a
    membership change. *)

val set_log : t -> Obs.Decision_log.t -> unit
(** Record the router's decisions — each server kill and recovery, each
    hedge-delay re-estimate ({!Obs.Decision_log.record_hedge}) — for
    Chrome traces. *)

(** {2 Test probes}

    Only test_hedge calls these: they read the router's state in the
    middle of a run, which {!metrics} does not report. *)

val sim : t -> Dsim.Sim.t

val pick_replica : t -> shard:int -> exclude:int -> int
(** Run the configured routing policy once over [shard]'s replica set
    (consumes routing-RNG draws); [-1] when no replica is routable.
    [exclude] removes one server from the candidate set ([-1] for
    none). *)

val routable_snapshot : t -> bool array
val alive_snapshot : t -> bool array

val on_submit : t -> (key:int -> server:int -> unit) -> unit
(** Observe every copy the router submits, as it is submitted. *)
