(** Cluster-scale experiment front end.

    Runs the same workload through a sharded cluster twice — once under
    the chosen (size-aware) design, once under a baseline — as a
    no-op-plan run of the resharding table: {!Shardmgr.Table.compile}
    over {!Shardmgr.Plan.empty} gives the static routing, and
    {!Shardmgr.Run.run} simulates one engine per shard, fanned out over
    {!Par}'s domain pool (results are bit-identical to sequential, any
    [MINOS_JOBS]).  The headline comparison: per-shard p99 and the
    fan-out multi-GET p99 (max over shards, {!Kvcluster.Fanout}) of
    size-aware sharding versus the keyhash baseline at the same offered
    load. *)

type side = {
  run : Shardmgr.Run.t;
  fanout : Kvcluster.Fanout.point list;
      (** multi-GET completion latency per fan-out degree *)
}

type t = {
  servers : int;
  offered_mops : float; (** total cluster load, split by routed share *)
  seed : int;
  table : Shardmgr.Table.t; (** the static routing both runs share *)
  main : side;
  baseline : side;
}

val run :
  ?policy:Shardmgr.Table.policy ->
  ?vnodes:int ->
  ?rebalance:bool ->
  ?fanouts:int list ->
  ?trials:int ->
  ?servers:int ->
  Run.t ->
  t
(** Run the flat mix ({!Run.flat}) over [servers] shards (default 4) at
    the run's offered load (default 8.0 Mops), under the run's design and
    again under its baseline.  Both runs share one compiled table
    ([policy], [vnodes], [rebalance] pass through to
    {!Shardmgr.Table.compile}) and seed, so they see identical shard
    splits.  [fanouts] (default [1; 2; 4; 8; 16]) and [trials] drive the
    multi-GET measurement.  The run's [trace_out] attaches one flight
    recorder per shard to the main run and writes a merged Chrome trace
    whose process ids are the server ids
    ({!Obs.Chrome_trace.write_cluster}). *)

val check : t -> (unit, string) result
(** The headline claims: loss accounting telescopes on every shard of
    both runs, every shard's main p99 is strictly below the baseline's,
    the main fan-out p99 is non-decreasing in the degree and not flat,
    and main beats the baseline at every degree.  [Error] names the
    first claim that fails. *)

val print : t -> unit
(** Aligned text tables: per-shard breakdown for both designs, loss
    accounting, rebalance effect (when enabled) and the fan-out p99
    comparison. *)

val to_json : t -> Obs.Json.t
(** The BENCH_cluster.json payload: per-shard and aggregate metrics for
    both designs, each design's cluster ["ledger"], and p99 versus
    fan-out degree. *)

val report : t Run.report
(** {!print}, {!to_json} and {!check} under the noun ["cluster"]. *)
